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
    reference), over the sin/cos terms of one table (``_TERMS``); ``_at``
    is the one evaluator of a closed form at phase values,
  * worst-case coefficient upper bounds over phase ranges: inside the
    validity sectors a corner rule per (row, X reference), and dense grid
    maximisation outside them. Per grid size one array pass encloses every
    form over every X-reference box, each box one block (exact sin/cos term
    ranges, each form an affine map of its terms, a mean-value quotient
    widened for float rounding, a sign per axis where the form certainly
    rises or falls, and where its second derivative along X certainly keeps
    it convex there); a form that rises or falls along all axes but at
    most one is evaluated only on the corner or grid line that holds its
    maxima, one convex along X only on the box's two X end faces. The
    other forms' grids are cut into blocks, per box one such pass encloses
    them over every block, and only the blocks that may hold the maximum
    or a pole are evaluated, away from poles only on the face, edge or
    corner that can hold it: the full grid's values, bit for bit.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Real decomposition coefficients c^U: ``table[..., alpha, k]`` is row
    alpha's coefficient of setting k of ``settings`` (those of ``protocol``),
    in a read-only float array, leading axes stacking tables; the engine's
    rows use only 0Z, 1Z and their X reference. ``c`` gives a (row, setting)
    table as {alpha: {setting: float}}, rows 1, 0."""

    protocol: str
    table: np.ndarray

    def __post_init__(self):
        table = np.array(self.table, dtype=float)
        if table.shape[-2:] != (2, len(self.settings)):
            raise InconsistentProtocol(f"{self.protocol} table shape {table.shape}")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def settings(self) -> Tuple[str, ...]:
        return Protocol.named(self.protocol).settings

    @property
    def c(self) -> Dict[int, Dict[str, float]]:
        if self.table.ndim != 2:
            raise InconsistentProtocol(f"stacked {self.protocol} tables have no c view")
        return {a: dict(zip(self.settings, self.table[a].tolist())) for a in (1, 0)}


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
#: theta_1Z, theta of the row's X reference), each as (function, argument)
_TERMS = {
    "sin_ac": (np.sin, lambda a, b, c: a / 2 - c / 2),
    "sin_bc": (np.sin, lambda a, b, c: b / 2 - c / 2),
    "sin_bac": (np.sin, lambda a, b, c: b / 2 - a + c / 2),
    "sin_abc": (np.sin, lambda a, b, c: a / 2 - b + c / 2),
    "cos_ab": (np.cos, lambda a, b, c: a - b),
    "cos_ac": (np.cos, lambda a, b, c: a - c),
    "cos_bc": (np.cos, lambda a, b, c: b - c),
    "cos_mid": (np.cos, lambda a, b, c: a / 2 + b / 2 - c),
    "cos_half": (np.cos, lambda a, b, c: a / 2 - b / 2),
}
#: the weights of theta_0Z, theta_1Z and the X reference phase in each
#: term's argument, read off at the unit phases: exact, as every argument
#: is linear and every weight 0, +-1/2 or +-1
_WEIGHTS = {name: tuple(float(arg(*unit)) for unit in np.eye(3))
            for name, (_, arg) in _TERMS.items()}


def _term(name, a, b, c):
    """The term ``name`` of _TERMS at phases (a, b, c)."""
    fn, arg = _TERMS[name]
    return fn(arg(a, b, c))


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


def _affine(formula):
    """(b, A): the form's (numerator, denominator) is b + A t over the terms
    t of _TERMS, read off at the unit vectors and at t = 0 as _WEIGHTS is.
    Exact, as every entry of A is 0, +-1 or +-2 and of b 0 or +-1."""
    names = _TERMS_OF[formula]
    *units, b = (np.array(formula(*t)) for t in np.eye(len(names) + 1, len(names)))
    cols = dict(zip(names, units))
    return b, np.column_stack([cols.get(name, b) - b for name in _TERMS])


_AFFINE = {formula: _affine(formula) for formula in _TERMS_OF}


def _at(formula, a, b, c):
    """(numerator, denominator) of a closed form at phases (a, b, c)."""
    return formula(*(_term(name, a, b, c) for name in _TERMS_OF[formula]))


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


def _coefficient_set(proto: Protocol,
                     rows: Dict[int, Sequence[float]]) -> CoefficientSet:
    """The table of each row's (0Z, 1Z, X reference) values, 0 elsewhere."""
    table = np.zeros((2, len(proto.settings)))
    for alpha, values in rows.items():
        for j, v in zip(("0Z", "1Z", proto.x_ref[alpha]), values):
            table[alpha, proto.settings.index(j)] = v
    return CoefficientSet(protocol=proto.name, table=table)


def _closed_form(proto: Protocol, phases: Sequence[float]) -> CoefficientSet:
    th = dict(zip(proto.settings, phases))
    return _coefficient_set(proto, {alpha: [
        _checked(*_at(formula, th["0Z"], th["1Z"], th[proto.x_ref[alpha]]))
        for formula in _FORMULAS[alpha]] for alpha in (1, 0)})


def coeffs_bb84(th0z: float, th1z: float, th0x: float, th1x: float) -> CoefficientSet:
    """Closed-form coefficients for exact phases, bb84 variant."""
    return _closed_form(BB84, (th0z, th1z, th0x, th1x))


def coeffs_three_state(th0z: float, th1z: float, th0x: float) -> CoefficientSet:
    """Closed-form coefficients for exact phases, three-state variant."""
    return _closed_form(THREE_STATE, (th0z, th1z, th0x))


# ---------------------------------------------------------------------------
# Worst-case upper bounds over phase ranges.

def _corner_max(formula, r0z: Tuple[float, float], r1z: Tuple[float, float],
                rx: Tuple[float, float]) -> float:
    """The largest value of a closed form over the 8 corners of a box.

    One array call of the form on the 2x2x2 grid of the ends (``np.ix_``),
    each the value the scalar form gives there. A corner within
    SINGULAR_TOL of a pole raises SingularSystem, naming the smallest
    |denominator| over all 8.
    """
    return float(_checked(*_at(formula, *np.ix_(r0z, r1z, rx))).max())


#: grid points per axis of the first grid; each refinement takes n -> 2n - 1
_GRID_START = 41
#: a form's grid maximum is final once a refinement moves it less than this
_GRID_TOL = 1e-9
#: no refinement may exceed this many points per axis
_GRID_MAX_POINTS = 700
#: grid points per axis of one block of the pruned scan; even, so that every
#: block starts on an even index and holds points of the coarser grid
_BLOCK = 14
#: blocks of one box enclosed at once, but at least one row of blocks: what
#: bounds the enclosure pass's working memory, about 0.3 kB per block and form
_SLAB_BLOCKS = 1 << 11

#: the derivative of each term function, as (function, sign)
_DERIVATIVE = {np.sin: (np.cos, 1.0), np.cos: (np.sin, -1.0)}

_EPS = np.finfo(float).eps
#: float64 rounding allowances, each over the sum of |weight * value| of
#: what is added, so that it holds in any summation order. A term is off by
#: the rounding of its argument (2 _EPS per unit of sum |weight * phase|)
#: plus that of sin or cos (_TRIG_ERR). A numerator, a denominator or either
#: one's derivative along an axis adds at most five exact products and a
#: constant, of |weight * value| summing to at most _TERM_WEIGHT + 1: five
#: roundings of _EPS / 2 per unit, 25 _EPS. _SUM_ERR covers both the grid's
#: evaluation and the enclosure's own, with room to spare.
_TRIG_ERR = 2 * _EPS
_SUM_ERR = 128 * _EPS
#: the most a numerator or denominator can weigh in terms: sum |A| over a
#: row of _AFFINE, besides a constant |b| <= 1
_TERM_WEIGHT = 9


def _term_ranges(names, boxes, mags):
    """Value and slope ranges of the terms ``names`` over blocks.

    ``boxes`` holds, per phase axis, the (lo, hi) arrays of the blocks'
    phase ranges, shaped to broadcast; ``mags`` the largest |phase| per axis.
    One broadcast pass over the terms' weights (``_WEIGHTS``) gives each
    argument's range, widened by its rounding, and one exact sin and one
    exact cos range of all (``trig_range``). Returns (values, slopes) over
    (term, block), lower ends over upper ones, widened by _TRIG_ERR: the
    range of each term's function, which holds every computed and exact
    value of the term in the block, and of the other one, its derivative up
    to sign.
    """
    expand = (...,) + (None,) * max(np.ndim(x) for box in boxes for x in box)
    weights = np.array([_WEIGHTS[name] for name in names]).T[expand]
    lo = hi = slack = 0.0
    for w, (low, high), mag in zip(weights, boxes, mags):
        # w * phase is least at the upper end of the phase when w < 0
        lo = lo + np.where(w < 0, w * high, w * low)
        hi = hi + np.where(w > 0, w * high, w * low)
        slack = slack + np.abs(w) * mag
    slack = 4 * _EPS * (slack + 1.0)
    sin, cos = (trig_range(fn, lo - slack, hi + slack) for fn in (np.sin, np.cos))
    widen = np.reshape((-_TRIG_ERR, _TRIG_ERR), (2,) + (1,) * lo.ndim)
    sine = np.array([_TERMS[name][0] is np.sin for name in names])[expand]
    return [(np.where(sine, a, b) + widen).reshape((-1,) + lo.shape[1:])
            for a, b in ((sin, cos), (cos, sin))]


def _map(a, b):
    """The interval map of b + a t per (numerator or denominator, form) row:
    (matrix, offset, lead). The matrix stacks the rows' positive and
    negative parts so that one product with the term ranges gives the lower
    ends, then the upper ones; the offset is b widened by _SUM_ERR, and lead
    the shape of a's rows. Read-only, as plans share it."""
    rows = a.reshape(-1, a.shape[-1])
    up, down = np.maximum(rows, 0.0), np.minimum(rows, 0.0)
    offset = np.add.outer((-_SUM_ERR, _SUM_ERR),
                          np.broadcast_to(b, a.shape[:-1])).ravel()
    matrix = np.vstack([np.hstack([up, down]), np.hstack([down, up])])
    matrix.flags.writeable = offset.flags.writeable = False
    return matrix, offset, a.shape[:-1]


def _apply(plan_map, ends):
    """A ``_map`` over the term ranges ``ends`` (as ``_term_ranges`` stacks
    them): the (lo, hi) ends over (rows of a..., block). Sums of products in
    numpy's own loops (``einsum`` without ``optimize`` makes no BLAS call)."""
    matrix, offset, lead = plan_map
    out = np.einsum("rt,t...->r...", matrix, ends)
    out += offset.reshape((-1,) + (1,) * (ends.ndim - 1))
    return out.reshape((2,) + lead + ends.shape[1:])


def _derivative_rows(a, names):
    """The rows ``a`` over terms ``names`` differentiated along each phase
    axis in turn: their rows over the terms' derivatives (``_DERIVATIVE``)."""
    signs = [_DERIVATIVE[_TERMS[name][0]][1] for name in names]
    return [a * w for w in np.array([_WEIGHTS[name] for name in names]).T * signs]


@functools.cache
def _plan(forms):
    """What ``_bound_forms`` derives from the tuple ``forms`` alone: the
    terms they use, in _TERMS order, and the ``_map`` of their (num, den)
    rows (``_AFFINE`` over those terms), of their second derivatives along X
    (a term's is -w_X^2 times the term) and of their derivatives along the
    three phase axes."""
    used = [any(name in _TERMS_OF[f] for f in forms) for name in _TERMS]
    names = tuple(itertools.compress(_TERMS, used))
    a = np.array([_AFFINE[f][1][:, used] for f in forms]).swapaxes(0, 1)
    b = np.array([_AFFINE[f][0] for f in forms]).T
    bend = -np.array([_WEIGHTS[name][2] for name in names]) ** 2
    return names, [_map(a, b), _map(a * bend, 0.0)] + [
        _map(rows, 0.0) for rows in _derivative_rows(a, names)]


def _product(a, b):
    """Interval product of (lo, hi) pairs."""
    p, q, r, s = (x * y for x in a for y in b)
    return (np.minimum(np.minimum(p, q), np.minimum(r, s)),
            np.maximum(np.maximum(p, q), np.maximum(r, s)))


def _bound_forms(forms, boxes, mags, steps):
    """Upper bound, smallest-|denominator| bound and lean of each form per block.

    ``boxes`` and ``mags`` are as for ``_term_ranges``, ``steps`` (shaped as
    ``mags``) the least spacing of the grid per axis, all broadcasting to
    the blocks' shape, so that each block has its own phase ends, magnitude
    and step. Returns (upper, gap) over (form, block...), int8 ``lean`` over
    (axis, form, block...) and bool ``convex`` over (form, block...): every
    computed grid value of a form in a block is at most ``upper``, every
    computed |denominator| at least ``gap``, the computed values rise
    (fall) strictly along each axis where ``lean`` is +1 (-1), and where
    ``convex`` holds every computed value strictly inside a line of the
    grid along X lies below the larger of the line's ends. The interval
    maps of the forms' affine maps (``_AFFINE``), built once per tuple of
    forms (``_plan``), give over the term ranges the numerators,
    denominators, their derivatives along the three axes and their second
    derivatives along X; ``_apply`` forms each row's sum. The upper bound
    is the smaller of the interval quotient and a mean-value form: the value
    at the block centre plus the interval gradient times the half-width,
    widened by the most the computed values can differ from the exact ones.
    A form leans where its interval derivative keeps one sign and moves it
    by more than twice that over one step (the monotonicity test of interval
    optimisation), never where gap lies below SINGULAR_TOL. Likewise a form
    is convex where the lower end kappa of its interval second derivative
    along X gives kappa h (w - h) / 2 > 2 margin, h the step and w the
    block's width (the convexity test): every interior point's exact value
    then lies that far below the larger end's. A denominator enclosure that
    holds 0 gives gap 0 and upper +inf.
    """
    names, maps = _plan(tuple(forms))
    values, slopes = _term_ranges(names, boxes, mags)
    ((num_lo, den_lo), (num_hi, den_hi)), bend_ends, *slope_ends = (
        _apply(m, slopes if k > 1 else values) for k, m in enumerate(maps))
    centres = [(lo + hi) / 2 for lo, hi in boxes]
    radii = [np.maximum(hi - mid, mid - lo) * (1 + 4 * _EPS)
             for (lo, hi), mid in zip(boxes, centres)]
    big = functools.reduce(np.maximum, mags)
    point_err = _TERM_WEIGHT * (4 * _EPS * (2 * big + 1) + _TRIG_ERR) + _SUM_ERR
    gap = np.maximum(np.maximum(den_lo, -den_hi), 0.0)
    value = _product((num_lo, num_hi), (1 / den_hi, 1 / den_lo))
    size = np.maximum(-value[0], value[1]) * (1 + 4 * _EPS)
    high = value[1] + 4 * _EPS * size
    # the most a computed value can differ from the exact one
    margin = point_err * (1.0 + size) / gap + 4 * _EPS * size
    # |f'| = |num' - f den'| / |den| along each axis, times the half-width
    # lean where g = num' - f den' keeps one sign and |g| step / |den| > 2
    # margin; the factor covers the rounding of the products and the step
    slope, lean = 0.0, np.zeros((3,) + gap.shape, np.int8)
    needed = 2 * margin * np.maximum(-den_lo, den_hi) * (1 + 16 * _EPS)
    for axis, (((dn_lo, dd_lo), (dn_hi, dd_hi)), r, step) in enumerate(
            zip(slope_ends, radii, steps)):
        drag = _product(value, (dd_lo, dd_hi))
        rounding = 8 * _EPS * (np.maximum(-dn_lo, dn_hi)
                               + np.maximum(-drag[0], drag[1]))
        g_lo, g_hi = dn_lo - drag[1] - rounding, dn_hi - drag[0] + rounding
        slope = slope + np.maximum(-g_lo, g_hi) / gap * r
        sure = (np.maximum(g_lo, -g_hi) * step > needed) & (gap >= SINGULAR_TOL)
        lean[axis][sure] = (np.sign(g_lo) * np.sign(den_lo))[sure]
    # along X (the loop's last axis) den f'' = num'' - 2 f' den' - f den''
    # with f' = g / den, at least ``bent`` times the sign of den: convex
    # where bent h (w - h) > 4 margin |den|, h the step and w the width
    (bn_lo, bd_lo), (bn_hi, bd_hi) = bend_ends
    cross = _product(_product((g_lo, g_hi), (1 / den_hi, 1 / den_lo)), (dd_lo, dd_hi))
    drag = _product(value, (bd_lo, bd_hi))
    rounding = 8 * _EPS * (np.maximum(-bn_lo, bn_hi) + np.maximum(-drag[0], drag[1])
                           + 2 * np.maximum(-cross[0], cross[1]))
    bent = np.where(den_lo > 0, bn_lo - 2 * cross[1] - drag[1],
                    2 * cross[0] + drag[0] - bn_hi) - rounding
    step, width = steps[2], boxes[2][1] - boxes[2][0]
    with np.errstate(over="ignore"):  # a huge box: +-inf decides alike
        convex = bent * step * (width - step) > 2 * needed
    convex &= gap >= SINGULAR_TOL
    # the value at each block centre, as ``_at`` gives it
    terms = {name: np.broadcast_to(_term(name, *centres), values.shape[1:])
             for name in names}
    centre = np.array([np.divide(*f(*(terms[name] for name in _TERMS_OF[f])))
                       for f in forms])
    mean_value = centre + 2 * margin + slope
    mean_value = mean_value + 8 * _EPS * (np.abs(centre) + 2 * margin + slope)
    upper = np.where(gap > 0, np.fmin(high, mean_value), np.inf)
    return np.where(np.isnan(upper), np.inf, upper), gap, lean, convex


#: the points of the first two grids, or of one, among those evaluated:
#: ``np.linspace(lo, hi, 2 * m - 1)[::2]`` is ``np.linspace(lo, hi, m)``
_VIEWS = ((slice(None, None, 2),) * 3, (slice(None),) * 3)


def _grids(r0z, r1z, xs, n: int):
    """The n-point grids of r0z, r1z and the X ranges xs, and per axis the
    largest |phase| and least spacing (0 where the points coincide), those
    of the X ranges in one array."""
    grids = [np.linspace(lo, hi, n) for lo, hi in [r0z, r1z] + xs]
    mags = [max(abs(g[0]), abs(g[-1])) for g in grids]
    steps = [np.diff(g).min() for g in grids]
    for per_axis in (mags, steps):
        per_axis[2:] = [np.array(per_axis[2:])]
    return grids, mags, steps


def _cut(start, stop, sign):
    """The points of grid indices start..stop - 1 (start even) on one axis
    that can hold the maxima of a form leaning ``sign`` there, in both
    views: from the last even index on where it rises, the first where it
    falls, all where it does neither."""
    start += (stop - 1 - start) // 2 * 2 if sign > 0 else 0
    return slice(start, start + 1 if sign < 0 else stop)


def _fold(formula, axes, views, found):
    """Evaluate a form on the grid of the points ``axes`` of (0Z, 1Z, X) and
    fold each view's smallest |denominator| and largest value into its
    [gap, max] in ``found``."""
    a, b, c = axes
    num, den = _at(formula, a.reshape(-1, 1, 1), b.reshape(-1, 1), c)
    size, value = np.abs(den), num / den
    for view, acc in zip(views, found):
        # np.minimum keeps a NaN, so it fails the pole test
        acc[0] = np.minimum(acc[0], size[view].min())
        acc[1] = np.maximum(acc[1], value[view].max())


def _scan_level(boxes, r0z, r1z, n: int):
    """{(X range, form): [gap, max] per grid size} of the forms of ``boxes``
    (X ranges to forms) on the n-point grid of their box (r0z, r1z, X
    range), gap the least |denominator| seen; at n = 2 ``_GRID_START`` - 1
    the ``_GRID_START``-point grid's entry comes first (``_VIEWS``).

    One ``_bound_forms`` call encloses the union of the forms over every
    box, each one block along X, with the n-point grid's step. A form that
    leans there along all axes but at most one is evaluated only from the
    corner or grid line its lean leaves (``_cut``), one convex along X that
    does not lean along X only on the box's two X end faces: where both
    maxima lie, and no pole is in its box. Each box's other forms share one
    blocked scan of its grid (``_scan_blocks``).
    """
    xs = list(boxes)
    forms = tuple(dict.fromkeys(itertools.chain(*boxes.values())))
    grids, mags, steps = _grids(r0z, r1z, xs, n)
    _, _, lean, convex = _bound_forms(forms, [r0z, r1z, np.array(xs).T], mags, steps)
    views, found = _VIEWS[n != 2 * _GRID_START - 1:], {}
    for box, rx in enumerate(xs):
        on, rest = grids[:2] + [grids[2 + box]], []
        for f in boxes[rx]:
            k = forms.index(f)
            signs, bent = lean[:, k, box], convex[k, box]
            if np.count_nonzero(signs) < 2 and not bent:
                rest.append(f)
                continue
            axes, cut = [g[_cut(0, n, s)] for g, s in zip(on, signs)], views
            if not signs[2] and bent:  # the two X ends, which every view holds
                axes[2] = on[2][::n - 1]
                cut = [v[:2] + (slice(None),) for v in views]
            found[rx, f] = [[np.inf, -np.inf] for _ in views]
            _fold(f, axes, cut, found[rx, f])
        if rest:
            own = [per_axis[:2] + [per_axis[2][box]] for per_axis in (mags, steps)]
            found.update(zip([(rx, f) for f in rest],
                             _scan_blocks(rest, on, *own, views)))
    return found


def _scan_blocks(forms, grids, mags, steps, views):
    """Smallest |denominator| and maximum of each of ``forms`` on the grid
    of one box: ``grids`` its points, ``mags`` and ``steps`` its largest
    |phase| and least spacing, per axis, as ``_grids`` gives them.

    Each axis is cut into blocks of ``_BLOCK`` points, and every form is
    enclosed over every block (``_bound_forms``) in slabs of at most
    ``_SLAB_BLOCKS`` blocks. A form is then evaluated pointwise only on the
    blocks whose upper bound reaches the largest value found on the block
    with the highest bound, and on those whose denominator bound lies below
    SINGULAR_TOL. Those are evaluated whole, the others only on the points
    of each axis the form leans on that can hold their maxima (``_cut``).
    The maxima are then those of the full grid, and so is the smallest
    |denominator| wherever it lies below SINGULAR_TOL. Returns, per form, a
    list of [gap, max], one per view of the grid in ``views`` (``_VIEWS``).
    """
    # the points of a range of one phase are all equal: its first stands
    # for all of them
    edges = [np.append(np.arange(0, len(g), _BLOCK), len(g)) if g[0] < g[-1]
             else np.array([0, 1]) for g in grids]
    counts = [len(e) - 1 for e in edges]
    ends = [[f.reduceat(g, e[:-1]) for f in (np.minimum, np.maximum)]
            for g, e in zip(grids, edges)]
    upper, gap = np.empty((2, len(forms), *counts))
    lean = np.empty((3, len(forms), *counts), np.int8)
    rows = max(1, _SLAB_BLOCKS // (counts[1] * counts[2]))
    for i in range(0, counts[0], rows):
        slab = [[x[i:i + rows].reshape(-1, 1, 1) for x in ends[0]],
                [x.reshape(-1, 1) for x in ends[1]], ends[2]]
        upper[:, i:i + rows], gap[:, i:i + rows], lean[:, :, i:i + rows], _ = (
            _bound_forms(forms, slab, mags, steps))

    found = [[[np.inf, -np.inf] for _ in views] for _ in forms]
    seen = [set() for _ in forms]

    def visit(wanted):
        """Evaluate form k on the blocks ``wanted[k]`` it has not seen."""
        for formula, leans, blocks, done, acc in zip(
                forms, lean.swapaxes(0, 1), wanted, seen, found):
            for b in set(blocks.tolist()) - done:
                done.add(b)
                at = np.unravel_index(b, counts)
                _fold(formula, [g[_cut(e[i], e[i + 1], signs[at])]
                                for g, e, i, signs in zip(grids, edges, at, leans)],
                      views, acc)

    # the block with the highest bound, and every block near a pole (a NaN
    # bound counts as one)
    visit([np.append(np.flatnonzero(~(low >= SINGULAR_TOL)), np.argmax(high))
           for high, low in zip(upper, gap)])
    # every block that may beat the values found so far; a NaN value is a
    # pole the check raises on
    visit([np.flatnonzero(high >= np.fmin.reduce([acc[1] for acc in per_size]))
           for high, per_size in zip(upper, found)])
    return found


def _grid_maxima(boxes, r0z, r1z):
    """{(X range, form): (gap, maximum)} of each form's grid maximum over
    its box (r0z, r1z, X range), ``boxes`` mapping X ranges to forms.

    Each form is maximised on grids of n = 41, 81, 161, ... points per axis
    until a refinement moves its maximum by less than ``_GRID_TOL`` or the
    next grid would exceed ``_GRID_MAX_POINTS``: (gap, maximum) of its final
    grid, gap the smallest |denominator| evaluated, or of the first grid on
    which gap marks a pole (below SINGULAR_TOL or NaN; the full grid's gap
    then); that pair stops, the others go on. One pass per grid size
    (``_scan_level``, the first two grids in one) takes every pair still
    refining, and no result depends on the pairs it is taken with. Its
    blocked scan evaluates a form only on the blocks of ``_BLOCK``^3
    points of its box whose enclosure may reach the maximum or a pole, away
    from poles only on the face, edge or corner its lean leaves: the full
    grid's result, in two floats and three int8 per form and block, the
    enclosures of at most ``_SLAB_BLOCKS`` blocks and one block's points.
    """
    out, prev = {}, {}
    n = 2 * _GRID_START - 1
    with np.errstate(divide="ignore", invalid="ignore"):  # poles: see above
        while boxes:
            for key, per_size in _scan_level(boxes, r0z, r1z, n).items():
                for gap, cur in per_size:
                    pole = not gap >= SINGULAR_TOL  # NaN fails the test too
                    cur = float(cur)
                    settled = key in prev and abs(cur - prev[key]) < _GRID_TOL
                    if pole or settled or 2 * n > _GRID_MAX_POINTS:
                        out[key] = (gap, cur)
                        break
                    prev[key] = cur
            boxes = {rx: rest for rx, forms in boxes.items()
                     if (rest := [f for f in forms if (rx, f) not in out])}
            n = 2 * n - 1
    return out


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


def _coeff_bounds(protos: Sequence[Protocol],
                  ranges: PhaseRanges) -> List[CoefficientSet]:
    """Upper bounds on every coefficient of each of ``protos`` over the phase
    ranges, one CoefficientSet per protocol.

    The ranges of the settings a protocol's rows use (0Z, 1Z and its X
    references) alone choose its rule: the corner rules of ``_CORNER_RULES``
    when they all sit inside their analytic sectors, otherwise the exact
    closed forms maximised on a dense grid. All grid boxes are scanned
    together, one scan per grid size, each box once with the union of the
    forms all protocols take there (``_grid_maxima``), and each corner rule
    runs once: rows are found by (row, X reference, rule), protocol by
    protocol, row 1 first. A pole raises the message of the first grid form
    in that order (0Z, 1Z, X within a row), as one call per protocol in
    turn would.
    """
    r = {j: (ranges.lo[j], ranges.hi[j]) for j in ranges.lo}
    keys, boxes = [], {}
    for proto in protos:
        used = dict.fromkeys(("0Z", "1Z") + proto.x_ref)
        missing = [j for j in used if j not in r]
        if missing:
            raise InconsistentProtocol(f"phase ranges lack settings {missing}"
                                       f" that the {proto.name} rows use")
        grid = not PhaseRanges(lo={j: ranges.lo[j] for j in used},
                               hi={j: ranges.hi[j] for j in used}
                               ).in_analytic_sectors()
        keys.append([(alpha, proto.x_ref[alpha], grid) for alpha in (1, 0)])
        # rows with the same X range share one box (three-state: 0X)
        for alpha, x, _ in keys[-1]:
            if grid:
                boxes.setdefault(r[x], {}).update(dict.fromkeys(_FORMULAS[alpha]))
    found = _grid_maxima(boxes, r["0Z"], r["1Z"]) if boxes else {}
    rows = {}
    for key in dict.fromkeys(itertools.chain(*keys)):  # each key once, in order
        alpha, x, grid = key
        if grid:
            gaps, rows[key] = zip(*(found[r[x], f] for f in _FORMULAS[alpha]))
            for gap in gaps:
                _check_pole(gap)
        else:
            rows[key] = _CORNER_RULES[alpha, x](r["0Z"], r["1Z"], r[x])
    return [_coefficient_set(proto, {key[0]: rows[key] for key in row_keys})
            for proto, row_keys in zip(protos, keys)]


def coeff_bounds_bb84(ranges: PhaseRanges) -> CoefficientSet:
    """Upper bounds on every bb84 coefficient over the phase ranges."""
    return _coeff_bounds([BB84], ranges)[0]


def coeff_bounds_three_state(ranges: PhaseRanges) -> CoefficientSet:
    """Upper bounds on every three-state coefficient over the phase ranges."""
    return _coeff_bounds([THREE_STATE], ranges)[0]
