"""Self-test of the benchmark harness: ``python -m pytest perfbench``.

Runs the smoke mode, which runs every workload at tiny size, untraced and
traced, and checks that every metric named in BENCHMARK.json is reported
with its unit, that no op fails and that the tracer restores every wrapper.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_reports_every_metric():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          cwd=RUN.parent.parent, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("smoke ok:") == 8, proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in RUN.parent.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    spec = RUN.parent.parent / "BENCHMARK.json"
    (tmp_path / "BENCHMARK.json").write_bytes(spec.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "bound_replay", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
