"""qkdbound benchmark: run one workload by name and seed, print its metrics.

    python3 perfbench/run.py --workload sweep_in_sector --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root (or any checkout of it); the program is
imported from ``src/`` next to this directory. The load is a closed loop with
one client: one process, one thread, back-to-back calls into
``qkdbound.cli.main``. Each run sets up the workload, runs one untimed
warm-up block and then measures whole blocks of ops until ``--seconds`` have
passed. With ``--trace 1`` the time is split between an untraced and a traced
phase and the per-layer metrics are printed instead of the end-to-end ones.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for the metric and workload definitions.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

import reference  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
SPEC_FILE = ROOT / "BENCHMARK.json"

#: An op running longer than this is stopped and counted as failed, so one
#: runaway op cannot hang the run; every op at the benchmark commit takes
#: under 3 s.
OP_LIMIT_S = 30.0
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 9
#: Latency p90 needs at least ten samples beyond it.
P90_MIN_OPS = 100

#: Imports qkdbound.cli in a fresh interpreter, then times the compute
#: kernels in that same process at once: import time scaled by them varies
#: far less than when scaled by kernels timed in another process.
_CHILD_IMPORT = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "c, t = time.process_time(), time.perf_counter()\n"
    "import qkdbound.cli\n"
    "c, t = time.process_time() - c, time.perf_counter() - t\n"
    "import reference\n"
    "print(c, t, reference.slowness(reference.COMPUTE),\n"
    "      qkdbound.cli.__file__)\n"
)


class OpTimeout(BaseException):
    """Raised from SIGALRM when an op exceeds ``OP_LIMIT_S``.

    A BaseException, so the CLI's own error handling cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise OpTimeout in the body once ``seconds`` of wall time have passed."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# ---------------------------------------------------------------------------
# program under test

def import_program():
    """Import qkdbound from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "qkdbound" / "cli.py").is_file():
        raise SystemExit(f"benchmark error: {SRC / 'qkdbound'} not found; "
                         "run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qkdbound.cli
    if Path(qkdbound.cli.__file__).resolve().parent != SRC / "qkdbound":
        raise SystemExit(f"benchmark error: imported {qkdbound.cli.__file__}, "
                         f"not the copy under {SRC}")
    return qkdbound.cli


def program_modules() -> Dict[str, object]:
    """Every loaded submodule of qkdbound, by its short name."""
    return {name.split(".", 1)[1]: mod
            for name, mod in sorted(sys.modules.items())
            if name.startswith("qkdbound.")}


def child_import_s() -> Tuple[float, float]:
    """(reference, wall) seconds to import qkdbound.cli in a fresh
    interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _CHILD_IMPORT, str(SRC), str(BENCH_DIR)],
        capture_output=True, text=True, timeout=60, check=True).stdout.split()
    if Path(out[3]).resolve().parent != SRC / "qkdbound":
        raise SystemExit(f"benchmark error: child imported {out[3]}")
    return float(out[0]) / float(out[2]), float(out[1])


def machine_context(workload: str, seed: int, seconds: float, trace: int
                    ) -> Dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:  # not some enclosing repository
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qkdbound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "load": "closed loop, 1 client, 1 process, 1 thread",
        "op_limit_s": OP_LIMIT_S,
    }


# ---------------------------------------------------------------------------
# running ops

@dataclass
class OpRecord:
    op_id: int
    wall_s: float
    cpu_s: float
    work: float
    points: int


@dataclass
class Phase:
    """Outcome of running whole blocks of ops for a while."""

    ops: List[OpRecord] = field(default_factory=list)
    #: work per second of wall time and of reference time, one per block
    block_rates: List[float] = field(default_factory=list)
    block_ref_rates: List[float] = field(default_factory=list)
    #: host slowness around each block (see reference.py)
    slowness: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0

    def add(self, other: "Phase") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.incorrect += other.incorrect

    def latencies_ms(self) -> List[float]:
        return [o.wall_s * 1e3 for o in self.ops]


def run_op(wl, i: int, phase: Phase, tracer=None) -> Optional[OpRecord]:
    """Run, time and check op ``i``; on failure record it and return None."""
    from workloads import CheckFailed

    phase.attempted += 1
    if tracer is not None:
        tracer.install(i)
    try:
        with deadline(OP_LIMIT_S):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                codes = wl.op(i)
            except SystemExit as exc:  # argparse rejects an argv this way
                codes = [exc.code]
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
    except OpTimeout:
        print(f"op {i}: exceeded {OP_LIMIT_S} s", file=sys.stderr)
        phase.failed += 1
        return None
    except Exception:  # an unhandled program error fails this op only
        traceback.print_exc()
        phase.failed += 1
        phase.incorrect += 1
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        work, points = wl.check(i, codes)
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        print(f"op {i}: check failed: {exc}", file=sys.stderr)
        phase.failed += 1
        phase.incorrect += 1
        return None
    rec = OpRecord(op_id=i, wall_s=wall, cpu_s=cpu, work=work, points=points)
    phase.ops.append(rec)
    return rec


def run_phase(wl, ref, first_op: int, seconds: float, tracer=None) -> Phase:
    """Run whole blocks of ops, starting at ``first_op``, for ``seconds``."""
    phase = Phase()
    i = first_op
    end = time.perf_counter() + seconds
    after = ref.slowness(wl.reference)
    while True:
        before = after
        done = []
        for _ in range(wl.block_size):
            done.append(run_op(wl, i, phase, tracer))
            i += 1
        # the kernels bracket the block, so a change of host speed during
        # a long block is seen from both sides
        after = ref.slowness(wl.reference)
        slow = (before + after) / 2
        phase.slowness.append(slow)
        if all(done):
            work = sum(r.work for r in done)
            cpu = sum(r.cpu_s for r in done)
            phase.block_rates.append(work / sum(r.wall_s for r in done))
            phase.block_ref_rates.append(work * slow / cpu)
        if time.perf_counter() >= end:
            return phase


# ---------------------------------------------------------------------------
# metrics

def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def layer_metrics(tracer, phase: Phase, untraced_rate: float) -> Dict:
    """Per-layer metrics of a traced phase."""
    import numpy as np
    from spans import LAYERS, SpanTable

    ops = phase.ops
    if not ops:
        raise SystemExit("benchmark error: no traced op succeeded")
    tab = SpanTable(tracer, [o.op_id for o in ops])
    walls = np.array([o.wall_s for o in ops])
    per_op = tab.layer_self_by_op()
    # cli is the residual: everything in the op not inside another layer
    cli = tracer.layers.index("cli")
    per_op[:, cli] = walls - np.delete(per_op, cli, axis=1).sum(axis=1)
    n_ops, points = len(ops), sum(o.points for o in ops)

    def us(*spans):
        return _median(tab.durations(*spans)) * 1e6

    coeff_spans = ("coeffs.coeff_bounds_bb84",
                   "coeffs.coeff_bounds_three_state")
    coeff_idx = tab.indices(*coeff_spans)
    in_sector = np.array([tab.note(k).in_analytic_sectors()
                          for k in coeff_idx], dtype=bool)
    coeff_dur = tab.dur[coeff_idx]
    sim = [tab.note(k) for k in tab.indices("simulator.simulate_finite")]
    sim_dur = tab.durations("simulator.simulate_finite")

    m = {
        "gmath.as_unit.calls_per_point": tab.calls("gmath.as_unit") / points,
        "gmath.G_plus.us_per_call": us("gmath.G_plus"),
        "coeffs.bound_calls_per_point": tab.calls(*coeff_spans) / points,
        "coeffs.in_sector.us_per_call":
            _median(coeff_dur[in_sector]) * 1e6,
        "coeffs.out_of_sector.ms_per_call":
            _median(coeff_dur[~in_sector]) * 1e3,
        "bounds.bound_inputs.calls_per_point":
            tab.calls("bounds.bound_inputs_from_source") / points,
        "bounds.phase_error_bound.calls_per_op":
            tab.calls("bounds.phase_error_bound") / n_ops,
        "bounds.phase_error_bound.us_per_call":
            us("bounds.phase_error_bound"),
        "bounds.key_rate.us_per_call": us("bounds.key_rate"),
        "simulator.simulate_asymptotic.us_per_call":
            us("simulator.simulate_asymptotic"),
        "simulator.simulate_finite.ns_per_round":
            _median([d / n for d, (n, _) in zip(sim_dur, sim)]) * 1e9,
        "simulator.simulate_finite.rss_bytes_per_round":
            _median([(rss.peak - rss.start) / n for n, rss in sim]),
        "cli.load_counts.ms_per_call": us("cli.load_counts") / 1e3,
    }
    total = walls.sum()
    for k, layer in enumerate(LAYERS):  # the first columns of per_op
        m[f"{layer}.self_ms_per_op"] = float(per_op[:, k].mean()) * 1e3
        m[f"{layer}.share"] = float(per_op[:, k].sum() / total)
    m["trace.overhead_ratio"] = untraced_rate / _median(phase.block_ref_rates)
    return {k: float(v) for k, v in m.items()}


def load_spec() -> Dict:
    with open(SPEC_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one run

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> Dict:
    """Set up, warm up and measure one workload; return the full result."""
    from workloads import WORKLOADS, CheckFailed

    cli = import_program()
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    context = machine_context(name, seed, seconds, int(trace))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        with reference.Reference() as ref:
            wl = WORKLOADS[name](cli, workdir, tiny=tiny)
            setup_ref, setup_wall = [], []
            for _ in range(SETUP_REPEATS):
                import_ref, wall = child_import_s()
                before = ref.slowness(reference.ALL)
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    with deadline(OP_LIMIT_S):
                        wl.setup(seed)
                except OpTimeout:
                    raise SystemExit(f"benchmark error: set-up of {name} "
                                     f"took over {OP_LIMIT_S} s") from None
                cpu = time.process_time() - c0
                setup_wall.append(wall + time.perf_counter() - t0)
                slow = (before + ref.slowness(reference.ALL)) / 2
                setup_ref.append(import_ref + cpu / slow)

            total = Phase()
            try:
                with deadline(OP_LIMIT_S):
                    wl.warmup()
            except OpTimeout:
                print(f"warm-up exceeded {OP_LIMIT_S} s", file=sys.stderr)
                total.attempted += 1
                total.failed += 1
            except (CheckFailed, OSError, ValueError, KeyError) as exc:
                print(f"warm-up failed: {exc}", file=sys.stderr)
                total.attempted += 1
                total.failed += 1
                total.incorrect += 1
            first = wl.block_size
            if trace:
                from spans import Tracer
                plain = run_phase(wl, ref, first, seconds / 2)
                first += plain.attempted
                tracer = Tracer(program_modules())
                traced = run_phase(wl, ref, first, seconds / 2, tracer)
                timed = plain
                total.add(traced)
            else:
                timed = run_phase(wl, ref, first, seconds)
            total.add(timed)
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = timed.latencies_ms()
    human = {
        "setup_s": (_median(setup_ref), "s"),
        "setup_wall_s": (_median(setup_wall), "s"),
        wl.rate_name: (_median(timed.block_rates), "1/s"),
        "work_per_ref_s": (_median(timed.block_ref_rates), "1/s"),
        "host_slowness": (_median(timed.slowness), "1"),
        "latency_ms_p50": (_median(lat), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_ratio": (total.failed / max(total.attempted, 1), "1"),
    }
    if len(lat) >= P90_MIN_OPS:
        human["latency_ms_p90"] = (statistics.quantiles(lat, n=10)[8], "ms")
    if trace:
        metrics = layer_metrics(tracer, traced, human["work_per_ref_s"][0])
    else:
        metrics = {m["name"]: human[m["name"]][0] for m in spec["end_to_end"]}
    return {
        "context": context,
        "notes": dict(wl.notes, timed_ops=len(lat),
                      blocks=len(timed.block_rates), block_size=wl.block_size),
        "human": human,
        "result": {
            "correct": total.incorrect == 0,
            "attempted": total.attempted,
            "failed": total.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
        },
    }


def report(out: Dict) -> None:
    """Print the human-readable lines, then the JSON result last."""
    print("context: " + json.dumps(out["context"], sort_keys=True))
    for key, value in out["notes"].items():
        print(f"{key}: {value}")
    n = out["notes"]["timed_ops"]
    for key, (value, unit) in out["human"].items():
        print(f"{key}: {value:.6g} {unit}")
    if "latency_ms_p90" not in out["human"]:
        print(f"latency_ms_p90: not reported ({n} timed ops < {P90_MIN_OPS})")
    print(f"timed ops: {n}, attempted {out['result']['attempted']}, "
          f"failed {out['result']['failed']}")
    print(json.dumps(out["result"]))


# ---------------------------------------------------------------------------
# smoke mode

def _program_state() -> Dict:
    """Every global of the six modules and attribute of their classes."""
    state = {}
    for mod in program_modules().values():
        for name, obj in vars(mod).items():
            state[(mod.__name__, name)] = obj
            if isinstance(obj, type):
                for attr, val in vars(obj).items():
                    state[(mod.__name__, name, attr)] = val
    return state


def _unwrapped_cross_refs(modules: Dict[str, object]) -> List[str]:
    """Package functions that a module other than their own refers to and
    that are not wrapped there: their time would count for the wrong layer."""
    names = {mod.__name__ for mod in modules.values()}
    return [f"{mod.__name__}.{name}"
            for mod in modules.values() for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ in names
            and obj.__module__ != mod.__name__
            and not hasattr(obj, "__wrapped__")]


def smoke() -> int:
    """Run every workload at tiny size, untraced and traced, and check that
    each run reports every metric of BENCHMARK.json with its unit, that the
    tracer wraps every function one module calls from another, and that
    tracing leaves no wrapper behind."""
    from spans import Tracer
    from workloads import WORKLOADS

    spec = load_spec()
    import_program()
    tracer = Tracer(program_modules())
    tracer.install(-1)
    try:
        missed = _unwrapped_cross_refs(program_modules())
    finally:
        tracer.uninstall()
    if missed:
        raise SystemExit(f"smoke: the tracer does not wrap {missed}")
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for name in WORKLOADS:
            import_program()
            before = _program_state()
            res = run_workload(name, seed=1, seconds=0.2, trace=trace,
                               tiny=True)["result"]
            changed = [k for k, v in _program_state().items()
                       if before.get(k) is not v]
            if changed:
                raise SystemExit(f"smoke: {name} left {changed} patched")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                raise SystemExit(f"smoke: {name} trace={int(trace)} reported "
                                 f"{got}, expected {want}")
            if not (res["correct"] and res["failed"] == 0
                    and res["attempted"] >= 1):
                raise SystemExit(f"smoke: {name} trace={int(trace)}: {res}")
            print(f"smoke ok: {name} trace={int(trace)} "
                  f"({res['attempted']} ops)")
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full result as JSON here")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at tiny size and check the output")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    out = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    report(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
