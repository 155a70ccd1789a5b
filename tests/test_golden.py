"""Golden outputs: the CLI's CSV, counts documents and reports, byte for byte.

The sha256 values were recorded before the bb84 / three-state code paths
were merged into one table-driven implementation (the multi-source and
finite sweeps before the sweep moved to one array pass per loss column);
any change to a printed digit, a setting order or a random stream shows up
here. The ``--help`` texts and argparse rejection messages were recorded
before the CLI's flags came to be built from one table of config fields, at
80 columns under Python 3.11.
"""

import hashlib

import pytest

from qkdbound import bounds, cli, coeffs
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
     "18543a4d79a72359fb2a8c2ff754fd064f7a53e281edbf341e5a3def1358814b",
     "ad1b99d6d077f194ee95bda60a8c2d43389e406f884dd0289b90dbcc3ce0e2a4"),
    ("three-state",
     "f09a58587045bde9381861d93dec438d2e5b386460c8a02fa869dfe0f8e49ca1",
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
     "2e790a4e325736b929e8052c4a28fc422c31452a622e8ca4b6ade879649e81aa",
     "cf987cc29d9c187b808d987fa2f9a76ae46f5aff223a6a4cb586e5a74c8416ef"),
    ("three-state",
     "79b79081d75903ff22a69bc256297d1128feb992cfc9030965a106abf2e2eb58",
     "0d7fa61bb06f1a72ad6d374ee413f24951b319889d4d05faa3fafcba26560a8c"),
], ids=["bb84", "three_state"])
def test_lc9_counts_document_and_report(tmp_path, protocol, doc_digest,
                                        report_digest):
    doc = tmp_path / "counts.json"
    assert sha256_of(SIMULATE_LC9 + ["--protocol", protocol], doc) \
        == doc_digest
    assert sha256_of(["bound", str(doc)], tmp_path / "report.txt") \
        == report_digest


@pytest.mark.parametrize("argv, passes, scans", [
    (README_SWEEP, 1, 0), (MULTI_SOURCE_SWEEP, 4, 0), (GRID_SWEEP, 1, 2),
], ids=["readme_sweep", "multi_source_sweep", "grid_branch_sweep"])
def test_sweep_bounds_coefficients_once_per_source(tmp_path, monkeypatch,
                                                   argv, passes, scans):
    # c^U depends on (protocol, delta, Delta) only, never on the loss: one
    # coefficient pass per (delta, Delta) serves every protocol, and out of
    # sector it scans each X-reference box once (1X, and 0X for both)
    count = {"_coeff_bounds": 0, "_grid_maxima": 0}
    for module, name in ((bounds, "_coeff_bounds"), (coeffs, "_grid_maxima")):
        def counted(*args, _original=getattr(module, name), _name=name,
                    **kwargs):
            count[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert main(argv + ["--out", str(tmp_path / "sweep.csv")]) == EXIT_OK
    assert count == {"_coeff_bounds": passes, "_grid_maxima": scans}


@pytest.mark.parametrize("argv, calls", [
    (README_SWEEP, {"simulate_asymptotic": 1, "phase_error_bound": 1}),
    (MULTI_SOURCE_SWEEP, {"simulate_asymptotic": 2, "phase_error_bound": 4}),
], ids=["readme_sweep", "multi_source_sweep"])
def test_sweep_passes_once_per_delta_and_cap_delta(tmp_path, monkeypatch,
                                                   argv, calls):
    # the statistics depend on delta only, so all protocols share them, and
    # the bound pass covers all protocols and epsilon_eff of one (delta, Delta)
    count = dict.fromkeys(calls, 0)
    for module, name in ((cli, "simulate_asymptotic"),
                         (bounds, "phase_error_bound")):
        def counted(*args, _original=getattr(module, name), _name=name,
                    **kwargs):
            count[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert main(argv + ["--out", str(tmp_path / "sweep.csv")]) == EXIT_OK
    assert count == calls

#: argparse rejections, each of which exits 2 before any command runs:
#: name -> (argv, sha256 of the usage line and message)
REJECTIONS = {
    "sweep_n_not_int": (["sweep", "--n", "1.5"],
        "5ebde78caaf1a6428a7d8ce11538ff6ca3eb3ff044b1c0f8e355c9d25de9bbc0"),
    "sweep_delta_not_number": (["sweep", "--delta", "x"],
        "1949de3404f9e7536d28986ceab79195f416480723ffe8c60d6f7450edc9954b"),
    "sweep_lc_not_int": (["sweep", "--lc", "1.5"],
        "916865e26581784ba9f4f94c11108dca3e4be6a4187dd3ea5054e3115fd858b2"),
    "sweep_protocol_choice": (["sweep", "--protocol", "BB84"],
        "0cc9ce671d605ede6c23339c5157f273c0d2ea183901e1d43fe765ca5171572c"),
    "sweep_mode_choice": (["sweep", "--mode", "x"],
        "f4eee9303f7372ddbbf166cb26bb24dd089d53c1e4ae51b4c60b428fce937f6a"),
    "sweep_pd_not_number": (["sweep", "--pd", "x"],
        "b5b4ce733322c76f39b0cf6b4395a9ce4640ed36436558d643579aa561a49ee5"),
    "sweep_loss_db_unknown": (["sweep", "--loss-db", "10"],
        "0b1eccdae50a0bed65eaa861b05336745acb0baa2d5fb00a99161e6e6102cd2a"),
    "simulate_seed_not_int": (["simulate", "--seed", "x"],
        "8628129738621c242df469f41365f29d1a2c20da0f5f03aef41a383586d94598"),
    "simulate_loss_step_unknown": (["simulate", "--loss-step", "1"],
        "80ce95ba91d55af76637a927aca10c569497eb377d56b22cea52d721ceb9b404"),
    "bound_missing_counts": (["bound"],
        "1aa9d23946d57947b44aff826f916a22a3da860e12ef055fde395d0b6bd4a004"),
    "bound_delta_unknown": (["bound", "counts.json", "--delta", "0.1"],
        "acc1fa691acc733479a19eb6d9d50dc5b40a151a854ea19b80a0c8607510c984"),
    "no_command": ([],
        "ecf47b556d60fbf2e0da503ce47548171ae22b56908645239a3b25e6d93c9b15"),
    "unknown_command": (["plot"],
        "739377bcf670feed86d9463d5d01f456f6a55a7357eb92a2562617c19f185ac8"),
}


def cli_text(argv, capsys, monkeypatch):
    """Exit code and stdout + stderr of an argparse exit of ``main``."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out + captured.err


@pytest.mark.parametrize("argv, digest", [
    ([],
     "acb4ccedf26fc983c0fc19e01409c341a4bec753f845c37bf89c70b234c2b66d"),
    (["sweep"],
     "7f31143193d790d2a3514578585cc19fa1c97438c12cc7e38c24ac96723e6c63"),
    (["simulate"],
     "15282b077c7bdf7349f9b4203ebbd3c76ada64f4123e3495cb69689ce5051ee2"),
    (["bound"],
     "ee8cdb0bd78c8a1f363c08abb8b744df82c8d90430e3d3484f19cdf88a4f8870"),
], ids=["qkdbound", "sweep", "simulate", "bound"])
def test_help_text(capsys, monkeypatch, argv, digest):
    code, text = cli_text(argv + ["--help"], capsys, monkeypatch)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", list(REJECTIONS.values()),
                         ids=list(REJECTIONS))
def test_argparse_rejection_text(capsys, monkeypatch, argv, digest):
    code, text = cli_text(argv, capsys, monkeypatch)
    assert code == 2
    assert hashlib.sha256(text.encode()).hexdigest() == digest
