"""Benchmark workloads: seeded inputs, one operation, and its output checks.

Each workload draws all of its parameters from the workload seed and hands
the program nothing but the generated argv. An operation ("op") is one call
of ``qkdbound.cli.main`` (``simulate_replay``: a ``simulate`` call followed by
``bound`` of the document it wrote). ``op`` returns the exit codes of its CLI
calls and is the only timed part; ``check`` runs afterwards, untimed, and
raises ``CheckFailed`` when an output is wrong.

Ops are grouped into blocks that phases run whole: a block is one op, except
for ``bound_replay``, whose block is one pass over all of its documents so
that every phase bounds the same mix of correlation lengths.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from typing import Dict, List, Optional, Tuple

from reference import ALL, COMPUTE, MEMORY

#: The README's sweep example; the ``sweep_in_sector`` warm-up op runs it on
#: every run and seed 0 of that workload reproduces it exactly.
README_SWEEP = ["sweep", "--protocol", "both", "--loss-start", "0",
                "--loss-end", "60", "--loss-step", "1",
                "--epsilon-u", "0,1e-6,1e-4,1e-3", "--delta", "0.063",
                "--cap-delta", "0.03"]

#: sha256 of the README sweep CSV at the commit that introduced this
#: benchmark. The ROADMAP requires the sweep CSV to stay byte-identical, so
#: every ``sweep_in_sector`` run reports whether it still matches.
README_SWEEP_SHA256 = (
    "418ac9f0ab0b30d0401d75b85839571688439ad0a5e48d0159e0e0e046bb9531")

#: e_ph_u is printed with 9 significant digits; allow that rounding when
#: comparing it with the exact virtual error rate.
PRINT_RTOL = 1e-8


class CheckFailed(Exception):
    """An op's output is wrong."""


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _tag_lines(report: str) -> int:
    return sum(1 for line in report.splitlines()
               if line.startswith("e_ph_u[tag "))


class Workload:
    """One named workload; subclasses fill in the inputs, op and checks."""

    name = ""
    #: name under which the work rate is printed (points, rounds or docs)
    rate_name = ""
    block_size = 1
    #: kinds of work of the reference kernels timed before each block
    reference = COMPUTE

    def __init__(self, cli, workdir: str, tiny: bool = False):
        self.cli = cli
        self.workdir = workdir
        self.tiny = tiny
        self.notes: Dict[str, str] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self, seed: int) -> None:
        """Generate the inputs for ``seed``; repeating gives the same ones."""
        raise NotImplementedError

    def warmup(self) -> None:
        """Run one block untimed so lazy set-up is not measured."""
        for i in range(self.block_size):
            self.check(i, self.op(i))

    def op(self, i: int) -> List[int]:
        """Run op number ``i``; return the exit code of each CLI call."""
        raise NotImplementedError

    def check(self, i: int, codes: List[int]) -> Tuple[float, int]:
        """Check op ``i``'s output; return (work units, key-rate points)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sweeps

def check_sweep_csv(path: str, expected_rows: int, simulator, source
                    ) -> str:
    """Check every row of a sweep CSV and return the file's sha256.

    Each row needs 0 <= rate <= Y_Z and an e_ph_u that dominates the honest
    channel's exact virtual error rate for that row's parameters.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.decode("utf-8").splitlines()
    pd = None
    for line in lines:
        if line.startswith("# pd: "):
            pd = float(line.split()[2])
    if pd is None:
        raise CheckFailed(f"{path}: no '# pd:' header line")
    rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
    if len(rows) != expected_rows:
        raise CheckFailed(f"{path}: {len(rows)} rows, "
                          f"expected {expected_rows}")
    for r in rows:
        y_z, rate, e_ph = float(r["Y_Z"]), float(r["rate"]), float(r["e_ph_u"])
        if not all(math.isfinite(v) for v in (y_z, rate, e_ph)):
            raise CheckFailed(f"{path}: non-finite value in row {r}")
        if not 0.0 <= rate <= y_z:
            raise CheckFailed(f"{path}: rate outside [0, Y_Z] in row {r}")
        spec = source.SourceSpec(delta=float(r["delta"]),
                                 Delta=float(r["Delta"]),
                                 epsilon_u=float(r["epsilon_u"]),
                                 correlation_length=int(r["l_c"]))
        ch = simulator.ChannelParams(loss_db=float(r["loss_db"]), p_d=pd)
        truth = simulator.true_virtual_error_rate(spec, ch)
        if e_ph < truth * (1.0 - PRINT_RTOL):
            raise CheckFailed(f"{path}: e_ph_u {e_ph} below the true virtual "
                              f"error rate {truth} in row {r}")
    return hashlib.sha256(data).hexdigest()


class Sweep(Workload):
    """One op is one ``sweep --protocol both`` over a seeded parameter box."""

    rate_name = "points_per_s"
    #: loss step in dB of the 0-60 dB grid, at full and at tiny size
    step, tiny_step = 1.0, 20.0

    def __init__(self, cli, workdir, tiny=False):
        super().__init__(cli, workdir, tiny)
        from qkdbound import simulator, source
        self.simulator, self.source = simulator, source
        self.argv: List[str] = []
        self.rows = 0
        self.sha: Optional[str] = None

    def draw(self, rng: random.Random, seed: int
             ) -> Tuple[List[float], float, float]:
        """(epsilons, delta, Delta) for ``seed``."""
        raise NotImplementedError

    def setup(self, seed):
        eps, delta, cap = self.draw(random.Random(seed), seed)
        start, end = 0.0, 60.0
        step = self.tiny_step if self.tiny else self.step
        self.argv = ["sweep", "--protocol", "both",
                     "--loss-start", repr(start), "--loss-end", repr(end),
                     "--loss-step", repr(step),
                     "--epsilon-u", _floats(eps), "--delta", _floats([delta]),
                     "--cap-delta", _floats([cap]),
                     "--out", self.path("sweep.csv")]
        self.rows = 2 * (round((end - start) / step) + 1) * len(eps)
        self.sha = None

    def op(self, i):
        return [self.cli.main(self.argv)]

    def check(self, i, codes):
        if codes != [0]:
            raise CheckFailed(f"sweep exited with {codes}")
        sha = check_sweep_csv(self.path("sweep.csv"), self.rows,
                              self.simulator, self.source)
        if self.sha is None:
            self.sha = self.notes["sweep_sha256"] = sha
        elif sha != self.sha:
            raise CheckFailed("repeated sweep of the same grid is not "
                              "byte-identical")
        return float(self.rows), self.rows


class SweepInSector(Sweep):
    """README-shaped sweep whose phase ranges stay in the analytic sectors.

    The per-point scalar pipeline dominates: per point 43 ``as_unit`` calls,
    6 ``G_plus`` calls, one ``simulate_asymptotic``, one
    ``bound_inputs_from_source`` and corner-rule coefficients.
    """

    name = "sweep_in_sector"

    def draw(self, rng, seed):
        eps = [0.0] + sorted(_log_uniform(rng, 1e-7, 1e-3) for _ in range(3))
        delta = rng.uniform(0.03, 0.1)
        if seed == 0:
            eps, delta = [0.0, 1e-6, 1e-4, 1e-3], 0.063
        return eps, delta, 0.03

    def warmup(self):
        out = self.path("readme.csv")
        if self.cli.main(README_SWEEP + ["--out", out]) != 0:
            raise CheckFailed("README sweep failed")
        sha = check_sweep_csv(out, 488, self.simulator, self.source)
        self.notes["readme_sweep_sha256"] = sha
        self.notes["readme_sweep_matches_reference"] = str(
            sha == README_SWEEP_SHA256).lower()
        super().warmup()


class SweepOutOfSector(Sweep):
    """Coarse sweep with delta in [0.5, 0.7], outside the analytic sectors.

    Every coefficient bound falls back to ``coeffs._grid_max``, which then
    dominates the op while gmath work is negligible. Delta stays at or below
    0.06: at larger widths the grid refines further (bb84 with Delta = 1.0
    takes 26 s and 6 GB on a 641^3 grid), which no op of a timed run may do.
    """

    name = "sweep_out_of_sector"
    step, tiny_step = 10.0, 60.0
    #: the grid's arrays (81^3 doubles, 4 MB each) outgrow the caches, so
    #: the memory kernels join the compute ones
    reference = ALL

    def draw(self, rng, seed):
        eps = [0.0, _log_uniform(rng, 1e-7, 1e-3)]
        return eps, rng.uniform(0.5, 0.7), rng.uniform(0.03, 0.06)


# ---------------------------------------------------------------------------
# counts documents

class SimulateReplay(Workload):
    """One op simulates N = 10^7 rounds with l_c = 2, then bounds the result.

    ``simulator.simulate_finite`` is almost all of the op and its O(N) arrays
    set the peak RSS.
    """

    name = "simulate_replay"
    rate_name = "rounds_per_s"
    reference = MEMORY
    lc = 2

    def setup(self, seed):
        self.n = 100_000 if self.tiny else 10_000_000
        self.seed = seed
        rng = random.Random(seed)
        self.losses = [rng.uniform(0.0, 20.0) for _ in range(1000)]

    def op(self, i):
        doc, report = self.path("sim.json"), self.path("sim.txt")
        codes = [self.cli.main([
            "simulate", "--loss-db", repr(self.losses[i % len(self.losses)]),
            "--n", str(self.n), "--lc", str(self.lc),
            "--seed", str(self.seed + i), "--out", doc])]
        if codes[0] == 0:
            codes.append(self.cli.main(["bound", doc, "--out", report]))
        return codes

    def check(self, i, codes):
        if codes != [0, 0]:
            raise CheckFailed(f"simulate/bound exited with {codes}")
        with open(self.path("sim.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        n_w = [t["n_w"] for t in doc["per_tag"]]
        if len(n_w) != self.lc + 1 or sum(n_w) != self.n:
            raise CheckFailed(f"per-tag n_w {n_w} do not partition N={self.n}")
        with open(self.path("sim.txt"), encoding="utf-8") as fh:
            first = fh.read()
        again = self.path("sim2.txt")
        argv = ["bound", self.path("sim.json"), "--out", again]
        if self.cli.main(argv) != 0:
            raise CheckFailed("second bound of the same document failed")
        with open(again, encoding="utf-8") as fh:
            if fh.read() != first:
                raise CheckFailed("second bound of the same document differs")
        if _tag_lines(first) != self.lc + 1:
            raise CheckFailed(f"bound printed {_tag_lines(first)} tag lines")
        return float(self.n), 1


class BoundReplay(Workload):
    """One op bounds one of ~40 small counts documents, cycled.

    The only workload where the counts path dominates: JSON parsing in
    ``cli.load_counts``, ``ObservedStatistics.from_counts`` and per-tag
    bounds with l_c + 2 ``phase_error_bound`` calls per document. Loss stays
    at or below 20 dB: at 40 dB some l_c = 9 tags have no sifted rounds and
    ``bound`` refuses the document (exit 4), which would time a refusal.
    """

    name = "bound_replay"
    rate_name = "docs_per_s"

    def __init__(self, cli, workdir, tiny=False):
        super().__init__(cli, workdir, tiny)
        self.n_docs = 10 if tiny else 40
        self.block_size = self.n_docs

    def setup(self, seed):
        rng = random.Random(seed)
        n = 20_000 if self.tiny else 200_000
        self.lcs, self.reports = [], {}
        for k in range(self.n_docs):
            lc = k % 10
            argv = ["simulate", "--n", str(n), "--lc", str(lc),
                    "--loss-db", repr(rng.uniform(0.0, 20.0)),
                    "--epsilon-u", repr(_log_uniform(rng, 1e-7, 1e-3)),
                    "--seed", str(seed * 1000 + k),
                    "--out", self.path(f"doc{k}.json")]
            if self.cli.main(argv) != 0:
                raise CheckFailed(f"could not write counts document {k}")
            self.lcs.append(lc)

    def op(self, i):
        k = i % self.n_docs
        return [self.cli.main(["bound", self.path(f"doc{k}.json"),
                               "--out", self.path("bound.txt")])]

    def check(self, i, codes):
        k = i % self.n_docs
        if codes != [0]:
            raise CheckFailed(f"bound of document {k} exited with {codes}")
        with open(self.path("bound.txt"), encoding="utf-8") as fh:
            report = fh.read()
        if _tag_lines(report) != self.lcs[k] + 1:
            raise CheckFailed(f"document {k}: {_tag_lines(report)} tag lines, "
                              f"expected {self.lcs[k] + 1}")
        if self.reports.setdefault(k, report) != report:
            raise CheckFailed(f"document {k}: repeated bound differs")
        return 1.0, 1


WORKLOADS = {w.name: w for w in (SweepInSector, SweepOutOfSector,
                                 SimulateReplay, BoundReplay)}
