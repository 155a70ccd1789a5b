"""Golden outputs: the CLI's sweep CSVs, counts documents and ``bound``
reports, byte for byte, against the files committed under ``tests/golden``.

``GOLDEN`` maps each file to the one command line that writes it, run from
the repository root; a report's command bounds the committed counts document
it names. A mismatch fails with ``golden_diff``'s account of every changed
cell: its row, column, old and new value and direction. To re-record a file
after an intended change, run its command line with ``--out
tests/golden/<file>``; no test run rewrites a golden file. Every file is
compared here, the wide sweep through a child process's stdout under a
memory limit and a timeout; CI runs these tests and holds no command line of
its own. perfbench's README sweep digest is tied here to
``readme_sweep.csv``.

The ``--help`` texts and argparse rejection messages are pinned as sha256
digests, recorded before the CLI's flags came to be built from one table of
config fields, at 80 columns under Python 3.11.
"""

import ast
import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import golden_diff
from qkdbound import bounds, cli, coeffs
from qkdbound.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"

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

#: the counts runs by correlation length; l_c = 9 has ten tags, the longest
#: correlation the benchmark runs
SIMULATE = {
    2: ["simulate", "--loss-db", "10", "--n", "300000", "--seed", "424242",
        "--lc", "2", "--epsilon-u", "1e-6"],
    3: ["simulate", "--loss-db", "10", "--n", "200000", "--seed", "11",
        "--lc", "3", "--epsilon-u", "1e-5"],
    9: ["simulate", "--loss-db", "15", "--n", "200000", "--seed", "99",
        "--lc", "9", "--epsilon-u", "1e-5"],
}
#: file-name spelling -> --protocol spelling
PROTOCOLS = {"bb84": "bb84", "three_state": "three-state"}

#: golden file -> the command line that writes it
GOLDEN = {
    "readme_sweep.csv": README_SWEEP,
    "grid_branch_sweep.csv": GRID_SWEEP,
    "multi_source_sweep.csv": MULTI_SOURCE_SWEEP,
    "finite_sweep.csv": FINITE_SWEEP,
    # its rows are saturated (e_ph_u = 1), so it guards the 641-point grid's
    # completion within memory and time more than values, which
    # tests/test_coeff_grid.py checks at 161 points
    "wide_sweep.csv": ["sweep", "--cap-delta", "1.0", "--loss-end", "0",
                       "--protocol", "both"],
}
for _lc, _argv in SIMULATE.items():
    for _name, _protocol in PROTOCOLS.items():
        _counts = f"counts_lc{_lc}_{_name}.json"
        GOLDEN[_counts] = _argv + ["--protocol", _protocol]
        GOLDEN[f"report_lc{_lc}_{_name}.txt"] = [
            "bound", f"tests/golden/{_counts}"]


def assert_same(name, new):
    """Compare ``new`` output bytes with the golden file ``name``."""
    old = (GOLDEN_DIR / name).read_bytes()
    if new != old:
        pytest.fail(f"output differs from tests/golden/{name}:\n"
                    + golden_diff.describe(old, new), pytrace=False)


def assert_golden(tmp_path, monkeypatch, name):
    """Run ``name``'s command line and compare its output with the file."""
    monkeypatch.chdir(ROOT)
    out = tmp_path / name
    assert main(GOLDEN[name] + ["--out", str(out)]) == EXIT_OK
    assert_same(name, out.read_bytes())


@pytest.mark.parametrize("name", ["readme_sweep", "grid_branch_sweep",
                                  "multi_source_sweep", "finite_sweep"])
def test_sweep_csv(tmp_path, monkeypatch, name):
    assert_golden(tmp_path, monkeypatch, f"{name}.csv")


def test_wide_sweep_to_stdout_within_memory_and_time():
    # a child process, so that its address space can be capped at 1,500,000
    # KiB: a grid evaluated too many points at once fails on memory, a slow
    # one on the 60 s timeout
    def cap_memory():
        memory = 1_500_000 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "qkdbound.cli"] + GOLDEN["wide_sweep.csv"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, timeout=60, preexec_fn=cap_memory)
    assert proc.returncode == EXIT_OK, proc.stderr.decode()
    assert_same("wide_sweep.csv", proc.stdout)


def assert_counts_and_report(tmp_path, monkeypatch, lc, protocol):
    for name in (f"counts_lc{lc}_{protocol}.json",
                 f"report_lc{lc}_{protocol}.txt"):
        assert_golden(tmp_path, monkeypatch, name)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_counts_document_and_report(tmp_path, monkeypatch, protocol):
    assert_counts_and_report(tmp_path, monkeypatch, 2, protocol)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_lc3_counts_document_and_report(tmp_path, monkeypatch, protocol):
    assert_counts_and_report(tmp_path, monkeypatch, 3, protocol)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_lc9_counts_document_and_report(tmp_path, monkeypatch, protocol):
    assert_counts_and_report(tmp_path, monkeypatch, 9, protocol)


def test_every_golden_file_has_one_command_line():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(GOLDEN)


def test_perfbench_readme_digest_is_the_committed_sweep():
    # perfbench keeps its own literal; re-recording the README sweep fails
    # here until the benchmark's digest is updated with it
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    digest, = (ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["README_SWEEP_SHA256"])
    sweep = (GOLDEN_DIR / "readme_sweep.csv").read_bytes()
    assert digest == hashlib.sha256(sweep).hexdigest()


@pytest.mark.parametrize("argv, passes, scans", [
    (README_SWEEP, 1, 0), (MULTI_SOURCE_SWEEP, 4, 0), (GRID_SWEEP, 1, 1),
], ids=["readme_sweep", "multi_source_sweep", "grid_branch_sweep"])
def test_sweep_bounds_coefficients_once_per_source(tmp_path, monkeypatch,
                                                   argv, passes, scans):
    # c^U depends on (protocol, delta, Delta) only, never on the loss: one
    # coefficient pass per (delta, Delta) serves every protocol, and out of
    # sector one grid scan covers all its X-reference boxes (1X, and 0X for
    # both)
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
