"""Decomposition of the X-basis virtual states over the emitted reference states.

Every state involved lies in the XZ plane, so a (possibly unnormalised)
real 2x2 density operator is fully described by the affine triple
(trace, Bloch-x, Bloch-z). Writing the virtual state as a real linear
combination of the reference states is then a 3x3 linear system per
virtual state. Row alpha decomposes virtual state alpha over 0Z, 1Z and
its X reference (``source.Protocol.x_ref``) and gives every other setting
the coefficient 0; the protocol variants differ in nothing else. This module
provides:

  * a generic solver (used as an independent oracle),
  * the analytic closed forms of each row at the phases of (0Z, 1Z, X
    reference),
  * worst-case coefficient upper bounds over phase ranges: inside the
    validity sectors a corner rule per (row, X reference), and dense grid
    maximisation outside them. The grid is cut into blocks; every form is
    enclosed over every block (exact sin/cos ranges of the affine phase
    terms, and a mean-value form of the quotient, widened for float
    rounding), and only the blocks that may hold the maximum or a pole are
    evaluated, which gives the full grid's values bit for bit.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .gmath import trig_range
from .source import (BB84, THREE_STATE, InconsistentProtocol, PhaseRanges,
                     Protocol)

#: Denominators / determinants smaller than this are treated as singular.
SINGULAR_TOL = 1e-12


class SingularSystem(ValueError):
    """The reference states are affinely dependent (degenerate source)."""


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

    ``protocol`` names an entry of the protocol table, whose settings each
    row lists; only 0Z, 1Z and the row's X reference can be nonzero.
    """

    protocol: str
    c: Dict[int, Dict[str, float]]

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
# Analytic closed forms, each written once as (numerator, denominator) over
# the trig terms its parameters name, at the phase triple (0Z, 1Z, X
# reference). The alpha=1 forms are shared between the two protocol
# variants; only the X reference phase differs (1X for bb84, 0X for
# three-state).

#: the trig terms of the closed forms at phases (a, b, c) = (theta_0Z,
#: theta_1Z, theta of the row's X reference)
_TERMS = {
    "sin_ac": lambda a, b, c: np.sin(a / 2 - c / 2),
    "sin_bc": lambda a, b, c: np.sin(b / 2 - c / 2),
    "sin_bac": lambda a, b, c: np.sin(b / 2 - a + c / 2),
    "sin_abc": lambda a, b, c: np.sin(a / 2 - b + c / 2),
    "cos_ab": lambda a, b, c: np.cos(a - b),
    "cos_ac": lambda a, b, c: np.cos(a - c),
    "cos_bc": lambda a, b, c: np.cos(b - c),
    "cos_mid": lambda a, b, c: np.cos(a / 2 + b / 2 - c),
    "cos_half": lambda a, b, c: np.cos(a / 2 - b / 2),
}
#: each term of _TERMS as (function, weights of theta_0Z, theta_1Z and the X
#: reference phase in its argument)
_ARGS = {
    "sin_ac": (np.sin, (0.5, 0.0, -0.5)),
    "sin_bc": (np.sin, (0.0, 0.5, -0.5)),
    "sin_bac": (np.sin, (-1.0, 0.5, 0.5)),
    "sin_abc": (np.sin, (0.5, -1.0, 0.5)),
    "cos_ab": (np.cos, (1.0, -1.0, 0.0)),
    "cos_ac": (np.cos, (1.0, 0.0, -1.0)),
    "cos_bc": (np.cos, (0.0, 1.0, -1.0)),
    "cos_mid": (np.cos, (0.5, 0.5, -1.0)),
    "cos_half": (np.cos, (0.5, -0.5, 0.0)),
}


def _c1_0z(sin_ac, sin_bc, sin_bac):
    return sin_ac - sin_bc, sin_bac + 2 * sin_ac - sin_bc


def _c1_1z(sin_ac, sin_bc, sin_abc):
    return -sin_ac + sin_bc, sin_abc - sin_ac + 2 * sin_bc


def _c1_x(cos_ab, cos_ac, cos_bc, cos_mid, cos_half):
    den = cos_ab - cos_ac - cos_bc + 2 * cos_mid - 2 * cos_half + 1.0
    return cos_ab - 1.0, den


def _c0_0z(sin_ac, sin_bc, sin_bac):
    return sin_ac + sin_bc, 2 * sin_ac - sin_bac + sin_bc


def _c0_1z(sin_ac, sin_bc, sin_abc):
    return sin_ac + sin_bc, sin_ac - sin_abc + 2 * sin_bc


def _c0_0x(cos_ab, cos_ac, cos_bc, cos_mid, cos_half):
    den = cos_ab - cos_ac - cos_bc - 2 * cos_mid + 2 * cos_half + 1.0
    return cos_ab - 1.0, den


#: closed forms of row alpha, as (c_0Z, c_1Z, c_X of the row's X reference)
_FORMULAS = {1: (_c1_0z, _c1_1z, _c1_x), 0: (_c0_0z, _c0_1z, _c0_0x)}
#: the terms each closed form takes, in order
_TERMS_OF = {formula: tuple(inspect.signature(formula).parameters)
             for row in _FORMULAS.values() for formula in row}


def _at(formula, a, b, c):
    """(numerator, denominator) of a closed form at phases (a, b, c)."""
    return formula(*(_TERMS[name](a, b, c) for name in _TERMS_OF[formula]))


def _check_pole(gap) -> None:
    """Refuse a denominator whose smallest magnitude ``gap`` is a pole."""
    if not gap >= SINGULAR_TOL:  # NaN fails the test too
        raise SingularSystem(f"coefficient denominator {gap:.3e} below tolerance")


def _checked(num, den):
    _check_pole(abs(den).min())  # over numpy scalars or grids
    return num / den


def _public(formula):
    """The closed form ``formula``, checked for poles, named without its
    leading underscore."""
    def closed_form(th0z, th1z, thx):
        return _checked(*_at(formula, th0z, th1z, thx))
    closed_form.__name__ = closed_form.__qualname__ = formula.__name__[1:]
    return closed_form


c1_0z, c1_1z, c1_x = map(_public, _FORMULAS[1])
c0_0z, c0_1z, c0_0x = map(_public, _FORMULAS[0])


def _coefficient_set(proto: Protocol, rows: Dict[int, Sequence[float]]):
    """Spread each row's (0Z, 1Z, X reference) values over the settings,
    with 0 for every other setting."""
    c = {}
    for alpha, values in rows.items():
        named = dict(zip(("0Z", "1Z", proto.x_ref[alpha]), values))
        c[alpha] = {j: named.get(j, 0.0) for j in proto.settings}
    return CoefficientSet(protocol=proto.name, c=c)


def _closed_form(proto: Protocol, phases: Sequence[float]) -> CoefficientSet:
    th = dict(zip(proto.settings, phases))
    rows = {}
    for alpha in (1, 0):
        triple = (th["0Z"], th["1Z"], th[proto.x_ref[alpha]])
        rows[alpha] = [_checked(*_at(formula, *triple))
                       for formula in _FORMULAS[alpha]]
    return _coefficient_set(proto, rows)


def coeffs_bb84(th0z: float, th1z: float, th0x: float, th1x: float) -> CoefficientSet:
    """Closed-form coefficients for exact phases, bb84 variant."""
    return _closed_form(BB84, (th0z, th1z, th0x, th1x))


def coeffs_three_state(th0z: float, th1z: float, th0x: float) -> CoefficientSet:
    """Closed-form coefficients for exact phases, three-state variant."""
    return _closed_form(THREE_STATE, (th0z, th1z, th0x))


# ---------------------------------------------------------------------------
# Worst-case upper bounds over phase ranges.

#: (row, end) indices of the 8 corners of a phase box, one column each
_CORNERS = (np.arange(3)[:, None],
            np.array(list(itertools.product((0, 1), repeat=3))).T)


def _corner_max(formula, r0z: Tuple[float, float], r1z: Tuple[float, float],
                rx: Tuple[float, float]) -> float:
    """The largest value of a closed form over the 8 corners of a box.

    One array call of the form at all corners, each the value the scalar
    form gives there. A corner within SINGULAR_TOL of a pole raises
    SingularSystem, naming the smallest |denominator| over all 8.
    """
    a, b, c = np.array((r0z, r1z, rx))[_CORNERS]
    return float(_checked(*_at(formula, a, b, c)).max())


#: grid points per axis of the first grid; each refinement takes n -> 2n - 1
_GRID_START = 41
#: a form's grid maximum is final once a refinement moves it less than this
_GRID_TOL = 1e-9
#: no refinement may exceed this many points per axis
_GRID_MAX_POINTS = 700
#: grid points per axis of one block of the pruned scan; even, so that every
#: block starts on an even index and holds points of the coarser grid
_BLOCK = 14
#: blocks enclosed at once: what bounds the enclosure pass's working memory
_SLAB_BLOCKS = 1 << 12

#: the derivative of each term function, as (function, sign)
_DERIVATIVE = {np.sin: (np.cos, 1.0), np.cos: (np.sin, -1.0)}

_EPS = np.finfo(float).eps
#: float64 rounding allowances of the enclosures. A term is off its exact
#: value by the rounding of its argument (at most _EPS per unit of the
#: argument's magnitude) plus that of sin or cos (_TRIG_ERR); a numerator or
#: denominator adds that of its at most six sums of terms weighing at most 9
#: in all (_SUM_ERR). Each allowance covers both the grid's evaluation and
#: the enclosure's own, with room to spare.
_TRIG_ERR = 2 * _EPS
_SUM_ERR = 128 * _EPS
#: the most a numerator or denominator can weigh in terms
_TERM_WEIGHT = 9


class _Enclosure:
    """Interval [lo, hi] of an expression over each block of a grid, with
    an interval (dlo[i], dhi[i]) of its derivative along each phase axis i.

    It supports the sums, differences and constant multiples the closed
    forms are made of, so a closed form applied to the enclosures of its
    terms encloses its own numerator and denominator.
    """

    __slots__ = ("lo", "hi", "dlo", "dhi")

    def __init__(self, lo, hi, dlo, dhi):
        self.lo, self.hi, self.dlo, self.dhi = lo, hi, dlo, dhi

    def __add__(self, other):
        if not isinstance(other, _Enclosure):
            return _Enclosure(self.lo + other, self.hi + other,
                              self.dlo, self.dhi)
        return _Enclosure(self.lo + other.lo, self.hi + other.hi,
                          tuple(map(np.add, self.dlo, other.dlo)),
                          tuple(map(np.add, self.dhi, other.dhi)))

    def __neg__(self):
        return _Enclosure(-self.hi, -self.lo, tuple(-d for d in self.dhi),
                          tuple(-d for d in self.dlo))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, k):
        if k < 0:
            return -(self * -k)
        return _Enclosure(self.lo * k, self.hi * k, tuple(d * k for d in self.dlo),
                          tuple(d * k for d in self.dhi))

    __rmul__ = __mul__

    def widened(self, by):
        return _Enclosure(self.lo - by, self.hi + by, self.dlo, self.dhi)


def _enclose_term(name, boxes, mags):
    """Enclosure of one term of _TERMS over blocks.

    ``boxes`` holds, per phase axis, the (lo, hi) arrays of the blocks'
    phase ranges, shaped to broadcast; ``mags`` the largest |phase| per axis.
    The argument range is widened by its rounding before the exact sin or
    cos range is taken, and that range by the rounding of sin and cos, so
    it holds every computed value of the term in the block as well as every
    exact one.
    """
    fn, weights = _ARGS[name]
    lo = hi = 0.0
    for w, (b_lo, b_hi) in zip(weights, boxes):
        if w:
            lo = lo + w * (b_lo if w > 0 else b_hi)
            hi = hi + w * (b_hi if w > 0 else b_lo)
    slack = 4 * _EPS * (sum(abs(w) * m for w, m in zip(weights, mags)) + 1.0)
    lo, hi = lo - slack, hi + slack
    v_lo, v_hi = trig_range(fn, lo, hi)
    d_fn, sign = _DERIVATIVE[fn]
    g_lo, g_hi = trig_range(d_fn, lo, hi)
    dlo, dhi = [], []
    for w in weights:
        w = w * sign
        dlo.append(w * (g_lo if w > 0 else g_hi))
        dhi.append(w * (g_hi if w > 0 else g_lo))
    return _Enclosure(v_lo - _TRIG_ERR, v_hi + _TRIG_ERR, tuple(dlo), tuple(dhi))


def _product(a, b):
    """Interval product of (lo, hi) pairs."""
    ends = [x * y for x in a for y in b]
    return np.minimum.reduce(ends), np.maximum.reduce(ends)


def _bound_forms(formulas, boxes, mags):
    """Upper bound and smallest-|denominator| bound of each form per block.

    ``boxes`` and ``mags`` are as for ``_enclose_term``. Returns, per form,
    (upper, gap) arrays over the blocks: every computed grid value of the
    form in a block is at most ``upper``, and every computed |denominator|
    at least ``gap``. The upper bound is the smaller of the interval
    quotient of the enclosed numerator and denominator and a mean-value
    form: the value at the block centre plus the interval gradient times
    the half-width, widened by the most the computed values can differ from
    the exact ones. A denominator enclosure that holds 0 gives gap 0 and
    upper +inf.
    """
    names = dict.fromkeys(name for formula in formulas
                          for name in _TERMS_OF[formula])
    terms = {name: _enclose_term(name, boxes, mags) for name in names}
    centres = [(lo + hi) / 2 for lo, hi in boxes]
    radii = [np.maximum(hi - mid, mid - lo) * (1 + 4 * _EPS)
             for (lo, hi), mid in zip(boxes, centres)]
    at_centre = {name: _TERMS[name](*centres) for name in names}
    point_err = (_TERM_WEIGHT * (4 * _EPS * (2 * max(mags) + 1.0) + _TRIG_ERR)
                 + _SUM_ERR)
    out = []
    for formula in formulas:
        num, den = (x.widened(_SUM_ERR) for x in
                    formula(*(terms[name] for name in _TERMS_OF[formula])))
        gap = np.maximum(np.maximum(den.lo, -den.hi), 0.0)
        inverse = (1 / den.hi, 1 / den.lo)  # of a denominator that excludes 0
        value = _product((num.lo, num.hi), inverse)
        size = np.maximum(-value[0], value[1]) * (1 + 4 * _EPS)
        high = value[1] + 4 * _EPS * size
        # the most a computed value can differ from the exact one
        margin = point_err * (1.0 + size) / gap + 4 * _EPS * size
        # f' = (num' - f den') / den along each axis, times the half-width
        slope = 0.0
        for d, r in enumerate(radii):
            drag = _product(value, (den.dlo[d], den.dhi[d]))
            lo, hi = _product((num.dlo[d] - drag[1], num.dhi[d] - drag[0]), inverse)
            rounding = 8 * _EPS * (np.maximum(-num.dlo[d], num.dhi[d])
                                   + np.maximum(-drag[0], drag[1]))
            slope = slope + (np.maximum(-lo, hi) + rounding / gap) * r
        c_num, c_den = formula(*(at_centre[name] for name in _TERMS_OF[formula]))
        centre = c_num / c_den
        mean_value = centre + 2 * margin + slope
        mean_value = mean_value + 8 * _EPS * (np.abs(centre) + 2 * margin + slope)
        upper = np.where(gap > 0, np.fmin(high, mean_value), np.inf)
        out.append((np.where(np.isnan(upper), np.inf, upper), gap))
    return out


def _scan_level(formulas, r0z, r1z, rx, n: int, with_start: bool):
    """Smallest |denominator| and maximum of each form on the n-point grid.

    The grid is cut into blocks of ``_BLOCK`` points per axis, and each
    form is enclosed over every block (``_bound_forms``) in slabs of at
    most ``_SLAB_BLOCKS`` blocks. A form is then evaluated pointwise only on
    the blocks whose upper bound reaches the largest value found on the
    block with the highest bound, and on those whose denominator bound lies
    below SINGULAR_TOL, with the terms of a block computed once for all
    forms that visit it. The maxima are then those of the full grid, and
    so is the smallest |denominator| wherever it lies below SINGULAR_TOL.
    Returns, per form, a list of [gap, max] with one entry per grid size.
    With ``with_start`` the entry of the ``_GRID_START``-point grid comes
    first, read off the even-index points: ``np.linspace(lo, hi, 2 * m -
    1)[::2]`` is ``np.linspace(lo, hi, m)`` bit for bit.
    """
    grids = [np.linspace(lo, hi, n) for lo, hi in (r0z, r1z, rx)]
    # the points of a range of one phase are all equal: its first stands
    # for all of them
    edges = [np.append(np.arange(0, n, _BLOCK), n) if g[0] < g[-1]
             else np.array([0, 1]) for g in grids]
    shape = tuple(len(e) - 1 for e in edges)
    bcast = ((-1, 1, 1), (-1, 1), (-1,))
    axes = [(np.minimum.reduceat(g, e[:-1]), np.maximum.reduceat(g, e[:-1]))
            for g, e in zip(grids, edges)]
    mags = [max(abs(g[0]), abs(g[-1])) for g in grids]
    bounds = [(np.empty(shape), np.empty(shape)) for _ in formulas]
    rows = max(1, _SLAB_BLOCKS // (shape[1] * shape[2]))
    for i in range(0, shape[0], rows):
        cut = [slice(i, i + rows), slice(None), slice(None)]
        slab = _bound_forms(formulas, [[x[c].reshape(b) for x in axis] for
                                       axis, c, b in zip(axes, cut, bcast)], mags)
        for (upper, gap), (u, g) in zip(bounds, slab):
            upper[i:i + rows], gap[i:i + rows] = u, g

    views = [(slice(None),) * 3]
    if with_start:
        views.insert(0, (slice(None, None, 2),) * 3)
    found = [[[np.inf, -np.inf] for _ in views] for _ in formulas]
    seen = [set() for _ in formulas]

    def visit(wanted):
        """Evaluate each form on the blocks ``wanted[k]`` it has not seen."""
        visitors = {}
        for k, blocks in enumerate(wanted):
            for b in set(blocks.tolist()) - seen[k]:
                visitors.setdefault(b, []).append(k)
                seen[k].add(b)
        for b, ks in visitors.items():
            phases = [g[e[i]:e[i + 1]].reshape(to) for g, e, i, to
                      in zip(grids, edges, np.unravel_index(b, shape), bcast)]
            names = dict.fromkeys(name for k in ks
                                  for name in _TERMS_OF[formulas[k]])
            terms = {name: _TERMS[name](*phases) for name in names}
            for k in ks:
                formula = formulas[k]
                num, den = formula(*(terms[name] for name in _TERMS_OF[formula]))
                size, value = np.abs(den), num / den
                for view, acc in zip(views, found[k]):
                    # np.minimum keeps a NaN, so it fails the pole test
                    acc[0] = np.minimum(acc[0], size[view].min())
                    acc[1] = np.maximum(acc[1], value[view].max())

    # the block with the highest bound, and every block near a pole (a NaN
    # bound counts as one)
    visit([np.append(np.flatnonzero(~(gap >= SINGULAR_TOL)), np.argmax(upper))
           for upper, gap in bounds])
    # every block that may beat the values found so far; a NaN value is a
    # pole the check raises on
    visit([np.flatnonzero(upper >= np.fmin.reduce([acc[1] for acc in per_size]))
           for (upper, _), per_size in zip(bounds, found)])
    return found


def _grid_maxima(formulas, r0z, r1z, rx):
    """Grid maximum of each closed form over one (0Z, 1Z, X) range triple.

    Each form is maximised on grids of n = 41, 81, 161, ... points per
    axis until a refinement moves its maximum by less than ``_GRID_TOL`` or
    the next grid would exceed ``_GRID_MAX_POINTS``. The forms still
    refining share the scan of each grid, and the first two grids share one
    scan. The first form, in order, with a grid point within SINGULAR_TOL
    of a pole raises SingularSystem.

    Each scan is pruned (``_scan_level``): it evaluates a form only on the
    blocks of ``_BLOCK``^3 points whose enclosure may reach the maximum or
    a pole, so each maximum, convergence decision and SingularSystem message
    is that of the full grid. Its memory is two floats per form and block,
    the enclosures of at most ``_SLAB_BLOCKS`` blocks and the points of one
    block, not the grid.
    """
    maxima = [None] * len(formulas)
    prev = [None] * len(formulas)
    pending = list(range(len(formulas)))
    sizes = (_GRID_START, 2 * _GRID_START - 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # poles raise below
        while pending:
            scans = _scan_level([formulas[k] for k in pending], r0z, r1z, rx,
                                sizes[-1], len(sizes) == 2)
            kept = []
            for k, scan in zip(pending, scans):
                for n, (gap, cur) in zip(sizes, scan):
                    _check_pole(gap)
                    cur = float(cur)
                    settled = (prev[k] is not None
                               and abs(cur - prev[k]) < _GRID_TOL)
                    if settled or 2 * n > _GRID_MAX_POINTS:
                        maxima[k] = cur
                        break
                    prev[k] = cur
                else:
                    kept.append(k)
            pending = kept
            sizes = (2 * sizes[-1] - 1,)
    return maxima


#: the in-sector corner rule of each row, keyed by (alpha, X reference):
#: the row's (0Z, 1Z, X reference) bounds over the ranges r0z, r1z and rx
_CORNER_RULES = {
    (0, "0X"): lambda r0z, r1z, rx: (
        c0_0z(r0z[0], r1z[0], rx[1]), c0_1z(r0z[1], r1z[1], rx[0]),
        _corner_max(_c0_0x, r0z, r1z, rx)),
    (1, "1X"): lambda r0z, r1z, rx: (
        c1_0z(r0z[1], r1z[1], rx[0]), c1_1z(r0z[0], r1z[0], rx[1]),
        _corner_max(_c1_x, r0z, r1z, rx)),
    # the 0X maximiser of c_{1,0X} is interior when the Z midpoint falls
    # inside the 0X range, otherwise the nearest endpoint
    (1, "0X"): lambda r0z, r1z, rx: (
        c1_0z(r0z[1], r1z[0], rx[0]), c1_1z(r0z[1], r1z[0], rx[1]),
        c1_x(r0z[0], r1z[1], min(max((r0z[0] + r1z[1]) / 2.0, rx[0]), rx[1]))),
}


def _coeff_bounds(proto: Protocol, ranges: PhaseRanges) -> CoefficientSet:
    """Upper bounds on every coefficient of ``proto`` over the phase ranges.

    The ranges of the settings the rows use (0Z, 1Z and the X references)
    alone choose the rule: the corner rules of ``_CORNER_RULES`` when they
    all sit inside their analytic sectors, otherwise the exact closed forms
    maximised on a dense grid, evaluated only on the grid blocks that may
    hold a maximum or a pole. Every bound is a Python float.
    """
    used = dict.fromkeys(("0Z", "1Z") + proto.x_ref)
    missing = [j for j in used if j not in ranges.lo]
    if missing:
        raise InconsistentProtocol(f"phase ranges lack settings {missing} "
                                   f"that the {proto.name} rows use")
    own = PhaseRanges(lo={j: ranges.lo[j] for j in used},
                      hi={j: ranges.hi[j] for j in used})
    r = {j: (own.lo[j], own.hi[j]) for j in used}
    rows = {}
    if own.in_analytic_sectors():
        for alpha in (1, 0):
            x = proto.x_ref[alpha]
            rows[alpha] = [float(v) for v in
                           _CORNER_RULES[alpha, x](r["0Z"], r["1Z"], r[x])]
    else:
        # rows with the same X reference share one grid (three-state: 0X)
        for x in dict.fromkeys(proto.x_ref[alpha] for alpha in (1, 0)):
            alphas = [alpha for alpha in (1, 0) if proto.x_ref[alpha] == x]
            maxima = _grid_maxima(
                [formula for alpha in alphas for formula in _FORMULAS[alpha]],
                r["0Z"], r["1Z"], r[x])
            for i, alpha in enumerate(alphas):
                rows[alpha] = maxima[3 * i:3 * i + 3]
    return _coefficient_set(proto, rows)


def coeff_bounds_bb84(ranges: PhaseRanges) -> CoefficientSet:
    """Upper bounds on every bb84 coefficient over the phase ranges."""
    return _coeff_bounds(BB84, ranges)


def coeff_bounds_three_state(ranges: PhaseRanges) -> CoefficientSet:
    """Upper bounds on every three-state coefficient over the phase ranges."""
    return _coeff_bounds(THREE_STATE, ranges)
