"""Golden outputs: the CLI's CSV, counts documents and reports, byte for byte.

The sha256 values were recorded before the bb84 / three-state code paths
were merged into one table-driven implementation (the multi-source and
finite sweeps before the sweep moved to one array pass per loss column);
any change to a printed digit, a setting order or a random stream shows up
here.
"""

import hashlib

import pytest

from qkdbound import bounds
from qkdbound.cli import EXIT_OK, main

README_SWEEP = ["sweep", "--protocol", "both", "--loss-start", "0",
                "--loss-end", "60", "--loss-step", "1",
                "--epsilon-u", "0,1e-6,1e-4,1e-3", "--delta", "0.063",
                "--cap-delta", "0.03"]

#: delta = 0.6 leaves the analytic sectors: both protocols take the grid branch
GRID_SWEEP = ["sweep", "--protocol", "both", "--loss-start", "0",
              "--loss-end", "20", "--loss-step", "10", "--delta", "0.6",
              "--cap-delta", "0.03", "--epsilon-u", "1e-6"]

#: several sources per protocol, so inputs cached under too coarse a key
#: (say per protocol, or per delta alone) change a row
MULTI_SOURCE_SWEEP = ["sweep", "--protocol", "both", "--loss-start", "0",
                      "--loss-end", "40", "--loss-step", "5",
                      "--epsilon-u", "0,1e-5", "--delta", "0.05,0.08",
                      "--cap-delta", "0.02,0.03", "--lc", "0,2"]

#: finite mode seeds row k with seed + k, so this pins the row order
FINITE_SWEEP = ["sweep", "--protocol", "both", "--loss-start", "0",
                "--loss-end", "20", "--loss-step", "10",
                "--epsilon-u", "0,1e-6", "--lc", "0,1", "--mode", "finite",
                "--n", "200000", "--seed", "7"]

SIMULATE = ["simulate", "--loss-db", "10", "--n", "300000", "--seed",
            "424242", "--lc", "2", "--epsilon-u", "1e-6"]


def sha256_of(argv, path):
    assert main(argv + ["--out", str(path)]) == EXIT_OK
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv, digest", [
    (README_SWEEP,
     "418ac9f0ab0b30d0401d75b85839571688439ad0a5e48d0159e0e0e046bb9531"),
    (GRID_SWEEP,
     "d64d5c92ecf9d488bf2aee4642d16b7fb181a480e91075a038bb499f06eb9749"),
    (MULTI_SOURCE_SWEEP,
     "66b03bc38cfd4b4fc9bc26d3073e355245d6e7a5e31d24980819b858515da63b"),
    (FINITE_SWEEP,
     "da193bb95ee1fef56d475e3f453ac91aa107f0d570041faa4693e81919beba19"),
], ids=["readme_sweep", "grid_branch_sweep", "multi_source_sweep",
        "finite_sweep"])
def test_sweep_csv(tmp_path, argv, digest):
    assert sha256_of(argv, tmp_path / "sweep.csv") == digest


@pytest.mark.parametrize("protocol, doc_digest, report_digest", [
    ("bb84",
     "866800c1f08a31404a4ee8da39673625a8d8bd959ab8bd47317deabf125a30c1",
     "ad1b99d6d077f194ee95bda60a8c2d43389e406f884dd0289b90dbcc3ce0e2a4"),
    ("three-state",
     "ffd3d2d360272834b26b17f904ee846ffe02aefbd5f2db1065011eee5c7c818f",
     "3ebb2aa9a7671b6401684651fd2951d629808b605e5c51bc64cb28ded4769dc1"),
], ids=["bb84", "three_state"])
def test_counts_document_and_report(tmp_path, protocol, doc_digest,
                                    report_digest):
    doc = tmp_path / "counts.json"
    assert sha256_of(SIMULATE + ["--protocol", protocol], doc) == doc_digest
    assert sha256_of(["bound", str(doc)], tmp_path / "report.txt") \
        == report_digest


#: ten tags: the per-tag bounds of the longest correlation the benchmark runs
SIMULATE_LC9 = ["simulate", "--loss-db", "15", "--n", "200000", "--seed",
                "99", "--lc", "9", "--epsilon-u", "1e-5"]


@pytest.mark.parametrize("protocol, doc_digest, report_digest", [
    ("bb84",
     "b4cf061ef0c1f73e2962bc72dcd86bd182408537ec11658093f0e03ca73977f5",
     "cf987cc29d9c187b808d987fa2f9a76ae46f5aff223a6a4cb586e5a74c8416ef"),
    ("three-state",
     "50d5af0512090026ef24bc2970376304ba833f0fca16deb1bb08e506457514bd",
     "0d7fa61bb06f1a72ad6d374ee413f24951b319889d4d05faa3fafcba26560a8c"),
], ids=["bb84", "three_state"])
def test_lc9_counts_document_and_report(tmp_path, protocol, doc_digest,
                                        report_digest):
    doc = tmp_path / "counts.json"
    assert sha256_of(SIMULATE_LC9 + ["--protocol", protocol], doc) \
        == doc_digest
    assert sha256_of(["bound", str(doc)], tmp_path / "report.txt") \
        == report_digest


@pytest.mark.parametrize("argv, calls", [
    (README_SWEEP, 2), (MULTI_SOURCE_SWEEP, 8),
], ids=["readme_sweep", "multi_source_sweep"])
def test_sweep_bounds_coefficients_once_per_source(tmp_path, monkeypatch,
                                                   argv, calls):
    # c^U depends on (protocol, delta, Delta) only, never on the loss
    count = []
    for name in ("coeff_bounds_bb84", "coeff_bounds_three_state"):
        original = getattr(bounds, name)

        def counted(ranges, *args, _original=original, **kwargs):
            count.append(ranges)
            return _original(ranges, *args, **kwargs)

        monkeypatch.setattr(bounds, name, counted)
    assert main(argv + ["--out", str(tmp_path / "sweep.csv")]) == EXIT_OK
    assert len(count) == calls
