"""Decomposition of the X-basis virtual states over the emitted reference states.

Every state involved lies in the XZ plane, so a (possibly unnormalised)
real 2x2 density operator is fully described by the affine triple
(trace, Bloch-x, Bloch-z). Writing the virtual state as a real linear
combination of the reference states is then a 3x3 linear system per
virtual state. This module provides:

  * a generic solver (used as an independent oracle),
  * the analytic closed forms, one triple (0Z, 1Z, X reference) per virtual
    bit alpha; both protocol variants share them and differ only in the X
    reference and zeroed setting of each row (``source.Protocol``),
  * worst-case coefficient upper bounds over phase ranges: the analytic
    corner rules inside their validity sectors (only the alpha = 1 rule
    differs between the variants) and dense grid maximisation outside them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .source import BB84, THREE_STATE, PhaseRanges, Protocol

#: Denominators / determinants smaller than this are treated as singular.
SINGULAR_TOL = 1e-12


class SingularSystem(ValueError):
    """The reference states are affinely dependent (degenerate source)."""


class SectorViolation(ValueError):
    """Phase ranges leave the validity sectors of the analytic corner rules."""


def state_triple(theta: float) -> np.ndarray:
    """(trace, Bloch-x, Bloch-z) = (1, sin theta, cos theta) of a pure XZ state."""
    return np.array([1.0, math.sin(theta), math.cos(theta)])


def _ket(theta: float) -> np.ndarray:
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)])


def virtual_triple(th0z: float, th1z: float, alpha: int) -> np.ndarray:
    """Affine triple of the normalised virtual state built from the Z emissions.

    The unnormalised operator is (|a> + (-1)^alpha |b>)(<a| + (-1)^alpha <b|)/4
    with trace equal to the normalised virtual probability.
    """
    sign = 1.0 if alpha == 0 else -1.0
    v = _ket(th0z) + sign * _ket(th1z)
    m = 0.25 * np.outer(v, v)
    trace = m[0, 0] + m[1, 1]
    if trace < SINGULAR_TOL:
        raise SingularSystem(
            f"virtual state for alpha={alpha} has vanishing weight "
            f"(theta_0Z={th0z}, theta_1Z={th1z})"
        )
    triple = np.array([trace, 2.0 * m[0, 1], m[0, 0] - m[1, 1]])
    return triple / trace


@dataclass(frozen=True)
class CoefficientSet:
    """Real decomposition coefficients c[alpha][setting], one row per virtual state.

    ``protocol`` names an entry of the protocol table, which fixes the
    settings of each row and the one each row zeroes.
    """

    protocol: str
    c: Dict[int, Dict[str, float]]

    def row(self, alpha: int) -> Dict[str, float]:
        return self.c[alpha]

    def settings(self) -> Tuple[str, ...]:
        return Protocol.named(self.protocol).settings


def solve_generic(target: np.ndarray, ref_phases: Dict[str, float],
                  zeroed: Optional[str] = None) -> Dict[str, float]:
    """Solve target = sum_j c_j * triple(theta_j) with one coefficient zeroed.

    ``target`` is the affine triple of the (normalised) virtual state.
    With four reference settings the system is under-determined; ``zeroed``
    names the column removed to make it 3x3. Raises SingularSystem when the
    remaining reference triples are affinely dependent.
    """
    kept = [j for j in ref_phases if j != zeroed]
    if len(kept) != 3:
        raise ValueError(f"need exactly 3 free settings, got {kept}")
    a = np.column_stack([state_triple(ref_phases[j]) for j in kept])
    if abs(np.linalg.det(a)) < SINGULAR_TOL:
        raise SingularSystem(f"reference states {kept} are affinely dependent")
    x = np.linalg.solve(a, target)
    residual = float(np.max(np.abs(a @ x - target)))
    if residual > 1e-10:
        raise SingularSystem(f"ill-conditioned system, residual {residual:.3e}")
    out = {j: float(v) for j, v in zip(kept, x)}
    if zeroed is not None:
        out[zeroed] = 0.0
    return out


# ---------------------------------------------------------------------------
# Analytic closed forms. The alpha=1 forms are shared between the two
# protocol variants; only the X reference phase differs (1X for bb84,
# 0X for three-state).

def _checked(num, den):
    gap = np.min(np.abs(den))  # over scalars or grids; NaN fails the test too
    if not gap >= SINGULAR_TOL:
        raise SingularSystem(f"coefficient denominator {gap:.3e} below tolerance")
    return num / den


def c1_0z(th0z, th1z, thx):
    num = np.sin(th0z / 2 - thx / 2) - np.sin(th1z / 2 - thx / 2)
    den = (np.sin(th1z / 2 - th0z + thx / 2)
           + 2 * np.sin(th0z / 2 - thx / 2) - np.sin(th1z / 2 - thx / 2))
    return _checked(num, den)


def c1_1z(th0z, th1z, thx):
    num = -np.sin(th0z / 2 - thx / 2) + np.sin(th1z / 2 - thx / 2)
    den = (np.sin(th0z / 2 - th1z + thx / 2)
           - np.sin(th0z / 2 - thx / 2) + 2 * np.sin(th1z / 2 - thx / 2))
    return _checked(num, den)


def c1_x(th0z, th1z, thx):
    num = np.cos(th0z - th1z) - 1.0
    den = (np.cos(th0z - th1z) - np.cos(th0z - thx) - np.cos(th1z - thx)
           + 2 * np.cos(th0z / 2 + th1z / 2 - thx)
           - 2 * np.cos(th0z / 2 - th1z / 2) + 1.0)
    return _checked(num, den)


def c0_0z(th0z, th1z, th0x):
    num = np.sin(th0z / 2 - th0x / 2) + np.sin(th1z / 2 - th0x / 2)
    den = (2 * np.sin(th0z / 2 - th0x / 2)
           - np.sin(th1z / 2 - th0z + th0x / 2) + np.sin(th1z / 2 - th0x / 2))
    return _checked(num, den)


def c0_1z(th0z, th1z, th0x):
    num = np.sin(th0z / 2 - th0x / 2) + np.sin(th1z / 2 - th0x / 2)
    den = (np.sin(th0z / 2 - th0x / 2)
           - np.sin(th0z / 2 - th1z + th0x / 2) + 2 * np.sin(th1z / 2 - th0x / 2))
    return _checked(num, den)


def c0_0x(th0z, th1z, th0x):
    num = np.cos(th0z - th1z) - 1.0
    den = (np.cos(th0z - th1z) - np.cos(th0z - th0x) - np.cos(th1z - th0x)
           - 2 * np.cos(th0z / 2 + th1z / 2 - th0x)
           + 2 * np.cos(th0z / 2 - th1z / 2) + 1.0)
    return _checked(num, den)


#: Closed forms of row alpha, as (c_0Z, c_1Z, c_X) of the row's X reference.
_CLOSED_FORMS = {1: (c1_0z, c1_1z, c1_x), 0: (c0_0z, c0_1z, c0_0x)}


def _coefficient_set(proto: Protocol, rows: Dict[int, Sequence[float]]):
    """Spread each row's (0Z, 1Z, X reference) values over the settings."""
    c = {}
    for alpha, values in rows.items():
        named = dict(zip(("0Z", "1Z", proto.x_ref[alpha]), values))
        c[alpha] = {j: 0.0 if j == proto.zeroed[alpha] else named[j]
                    for j in proto.settings}
    return CoefficientSet(protocol=proto.name, c=c)


def _closed_form(proto: Protocol, phases: Sequence[float]) -> CoefficientSet:
    th = dict(zip(proto.settings, phases))
    return _coefficient_set(proto, {
        alpha: [fn(th["0Z"], th["1Z"], th[proto.x_ref[alpha]])
                for fn in _CLOSED_FORMS[alpha]]
        for alpha in (1, 0)})


def coeffs_bb84(th0z: float, th1z: float, th0x: float, th1x: float) -> CoefficientSet:
    """Closed-form coefficients for exact phases, bb84 zeroing convention."""
    return _closed_form(BB84, (th0z, th1z, th0x, th1x))


def coeffs_three_state(th0z: float, th1z: float, th0x: float) -> CoefficientSet:
    """Closed-form coefficients for exact phases, three-state variant."""
    return _closed_form(THREE_STATE, (th0z, th1z, th0x))


# ---------------------------------------------------------------------------
# Worst-case upper bounds over phase ranges.

def _corner_max(fn, r0z: Tuple[float, float], r1z: Tuple[float, float],
                rx: Tuple[float, float]) -> float:
    return max(fn(a, b, c) for a, b, c in itertools.product(r0z, r1z, rx))


def _grid_max(fn, r0z, r1z, rx, start: int = 41, tol: float = 1e-9,
              max_points: int = 700) -> float:
    """Dense-grid maximisation of a 3-phase closed form, refined until stable."""
    prev = None
    n = start
    while True:
        g0 = np.linspace(r0z[0], r0z[1], n)
        g1 = np.linspace(r1z[0], r1z[1], n)
        gx = np.linspace(rx[0], rx[1], n)
        a, b, c = np.meshgrid(g0, g1, gx, indexing="ij", sparse=True)
        cur = float(np.max(fn(a, b, c)))
        if prev is not None and abs(cur - prev) < tol:
            return cur
        if 2 * n > max_points:
            return cur
        prev = cur
        n = 2 * n - 1


def _alpha0_corners(r0z, r1z, r0x):
    """In-sector corner rule of row 0, the same for both variants."""
    return (c0_0z(r0z[0], r1z[0], r0x[1]), c0_1z(r0z[1], r1z[1], r0x[0]),
            _corner_max(c0_0x, r0z, r1z, r0x))


def _bb84_alpha1_corners(r0z, r1z, r1x):
    return (c1_0z(r0z[1], r1z[1], r1x[0]), c1_1z(r0z[0], r1z[0], r1x[1]),
            _corner_max(c1_x, r0z, r1z, r1x))


def _three_state_alpha1_corners(r0z, r1z, r0x):
    # the 0X maximiser of c_{1,0X} is interior when the Z midpoint falls
    # inside the 0X range, otherwise the nearest endpoint
    mid = (r0z[0] + r1z[1]) / 2.0
    return (c1_0z(r0z[1], r1z[0], r0x[0]), c1_1z(r0z[1], r1z[0], r0x[1]),
            c1_x(r0z[0], r1z[1], min(max(mid, r0x[0]), r0x[1])))


def _coeff_bounds(proto: Protocol, ranges: PhaseRanges, method: str,
                  alpha1_corners) -> CoefficientSet:
    """Shared body of both coeff_bounds_* entry points."""
    if method != "grid" and not ranges.in_analytic_sectors():
        if method == "analytic":
            raise SectorViolation("phase ranges outside analytic-bound sectors")
        method = "grid"
    r = {j: (ranges.lo[j], ranges.hi[j]) for j in proto.settings}
    rows = {}
    for alpha, corners in ((1, alpha1_corners), (0, _alpha0_corners)):
        args = (r["0Z"], r["1Z"], r[proto.x_ref[alpha]])
        rows[alpha] = ([_grid_max(fn, *args) for fn in _CLOSED_FORMS[alpha]]
                       if method == "grid" else corners(*args))
    return _coefficient_set(proto, rows)


def coeff_bounds_bb84(ranges: PhaseRanges, method: str = "auto") -> CoefficientSet:
    """Upper bounds on every bb84 coefficient over the phase ranges.

    Inside the analytic sectors the corner rules are used (four single-corner
    evaluations, two 8-corner maxima). Outside, ``method="auto"`` falls back
    to dense grid maximisation of the exact closed forms; ``method="analytic"``
    raises SectorViolation instead.
    """
    return _coeff_bounds(BB84, ranges, method, _bb84_alpha1_corners)


def coeff_bounds_three_state(ranges: PhaseRanges,
                             method: str = "auto") -> CoefficientSet:
    """Upper bounds on every three-state coefficient over the phase ranges."""
    return _coeff_bounds(THREE_STATE, ranges, method,
                         _three_state_alpha1_corners)
