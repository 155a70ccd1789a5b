"""Soundness of the block enclosures behind the pruned out-of-sector grid.

``coeffs._scan_blocks`` skips a grid block when its enclosure shows that the
block cannot hold a form's maximum or a pole. That is only bit-identical to
the full grid if every computed value in a block lies inside its enclosure:
each term's range, each form's upper bound and each |denominator| lower
bound. These tests sample computed values inside random boxes of the kinds
that stress the enclosures (ranges across sin/cos extrema, ranges wider
than 2 pi, single-phase and one-ulp ranges, ranges next to the
theta_0Z = theta_1Z pole) and check them, and check a sample of term ranges
against mpmath's interval arithmetic. They also check that each form's
affine table is the form itself, that the interval sums hold every
summation order, that blocks with their own X magnitude and step get the
bounds of a call of their own, bit for bit, as does each box the grid
scans, and that along every axis on which a form is certified to lean its
computed grid values rise or fall strictly. The forms that lean over their
whole box along all axes but one skip the blocked scan: their maxima and pole
decisions must be the scan's, each grid level's pass must certify them with
the step of the grid it evaluates, and one whose maximum still moves at 81
points must refine as the full grid does. The benchmark's out-of-sector
sources must evaluate no more forms, blocks and grid points than the
enclosures let through at the last count.
"""

import contextlib
import itertools
import math
import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import (assume, example, given, seed, settings,
                        strategies as st)
from mpmath import iv

from qkdbound import coeffs
from qkdbound.bounds import bound_inputs_from_source
from qkdbound.gmath import trig_range
from qkdbound.source import (BB84, PROTOCOLS, THREE_STATE, PhaseRanges,
                             SourceSpec)
from test_coeff_grid import assert_grid_matches_reference, takes_grid

FORMULAS = tuple(f for row in coeffs._FORMULAS.values() for f in row)


def _width(kind, rng, lo):
    if kind == "point":
        return lo
    if kind == "ulps":
        hi = lo
        for _ in range(rng.integers(1, 4)):
            hi = np.nextafter(hi, np.inf)
        return hi
    return lo + {"small": 10.0 ** rng.uniform(-12, -3),
                 "wide": rng.uniform(0.05, 1.5),
                 "turn": rng.uniform(2 * math.pi, 10.0)}[kind]


KINDS = ("point", "ulps", "small", "wide", "turn")


@st.composite
def boxes(draw):
    """A (0Z, 1Z, X) phase box, as (lo, hi) per axis."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.tuples(*[st.sampled_from(KINDS)] * 3))
    los = [float(rng.uniform(-7.0, 7.0)) for _ in kinds]
    box = [(lo, float(_width(kind, rng, lo))) for lo, kind in zip(los, kinds)]
    if draw(st.booleans()):
        # 1Z ends just below 0Z, or overlaps it: next to or on the
        # theta_0Z = theta_1Z pole of every form
        (lo, hi), offset = box[0], draw(st.sampled_from([0.0, 1e-12, 1e-7, 1e-3]))
        box[1] = (lo - offset - (hi - lo), lo - offset)
    return box


def _points(box, rng, n=9):
    """The box's n-point linspace grid and as many random points per axis."""
    axes = [np.concatenate([np.linspace(lo, hi, n), rng.uniform(lo, hi, n)])
            for lo, hi in box]
    return axes[0][:, None, None], axes[1][:, None], axes[2]


def _mags(box):
    return [max(abs(lo), abs(hi)) for lo, hi in box]


def _bound(formulas, box, steps=(0.0, 0.0, 0.0)):
    """``_bound_forms`` of ``formulas`` over ``box`` as the one block of a
    call."""
    return coeffs._bound_forms(formulas, box, _mags(box), list(steps))


def _term_ranges(box):
    """The value range of every term of _TERMS over the box, by name."""
    names = tuple(coeffs._TERMS)
    values, _ = coeffs._term_ranges(names, box, _mags(box))
    return {name: SimpleNamespace(lo=lo, hi=hi) for name, lo, hi in
            zip(names, values[:len(names)], values[len(names):])}


@settings(max_examples=150, deadline=None)
@given(box=boxes(), seed=st.integers(0, 2 ** 32 - 1))
def test_term_ranges_hold_every_computed_value(box, seed):
    a, b, c = _points(box, np.random.default_rng(seed))
    for name, enc in _term_ranges(box).items():
        values = coeffs._term(name, a, b, c)
        assert enc.lo <= values.min() and values.max() <= enc.hi, name


@settings(max_examples=150, deadline=None)
@given(box=boxes(), seed=st.integers(0, 2 ** 32 - 1),
       formulas=st.lists(st.sampled_from(FORMULAS), min_size=1, unique=True))
def test_form_bounds_hold_every_computed_value(box, seed, formulas):
    # any nonempty set of forms in any order, as a list: the tables built
    # once per set of forms must be those of this set, row for row
    a, b, c = _points(box, np.random.default_rng(seed))
    with np.errstate(divide="ignore", invalid="ignore"):
        upper, gap, lean, convex = _bound(formulas, box)
        # no axis leans or bends without a grid step to do it over
        assert not lean.any() and not convex.any()
        for formula, upper, gap in zip(formulas, upper, gap, strict=True):
            num, den = coeffs._at(formula, a, b, c)
            assert np.abs(den).min() >= gap, formula.__name__
            if gap > 0:
                assert (num / den).max() <= upper, formula.__name__
            else:
                assert upper == np.inf


def _halves(box, shapes):
    """Each axis of ``box`` cut into two blocks at its midpoint, as (lo, hi)
    arrays of the given shapes."""
    return [[np.reshape(ends, to) for ends in ((lo, (lo + hi) / 2),
                                               ((lo + hi) / 2, hi))]
            for (lo, hi), to in zip(box, shapes)]


@settings(max_examples=60, deadline=None)
@given(first=boxes(), second=boxes(),
       forms=st.lists(st.sampled_from(FORMULAS), min_size=1, unique=True))
def test_blocks_with_their_own_x_magnitude_and_step_get_their_own_bounds(
        first, second, forms):
    # two boxes with the same 0Z and 1Z ranges, each cut into 2^3 blocks,
    # their X blocks side by side on the X axis of one call, each with the
    # X magnitude and X grid step of its own box: each box's bounds, leans
    # and convexity are those of a call of its own, bit for bit
    pair = [first, first[:2] + second[2:]]
    alone = [_halves(box, ((-1, 1, 1), (-1, 1), (-1,))) for box in pair]
    mags = [_mags(box) for box in pair]
    # the steps of a 14-point grid on each half
    steps = [[(hi - lo) / 26 for lo, hi in box] for box in pair]

    def side_by_side(per_box):
        """Per-axis values of the boxes, the X ones repeated per X block."""
        return per_box[0][:2] + [np.repeat([x[2] for x in per_box], 2)]

    with np.errstate(divide="ignore", invalid="ignore"):
        both = coeffs._bound_forms(
            forms, alone[0][:2] + [[np.concatenate([blocks[2][k] for blocks in alone])
                                    for k in (0, 1)]],
            side_by_side(mags), side_by_side(steps))
        own = [coeffs._bound_forms(forms, blocks, mag, step)
               for blocks, mag, step in zip(alone, mags, steps)]
    for got, want in zip(both, zip(*own), strict=True):
        assert ([float(x).hex() for x in got.ravel()]
                == [float(x).hex() for x in np.concatenate(want, -1).ravel()])


def test_mean_value_form_is_second_order():
    # on a box of width w away from poles each bound lies within O(w^2) of
    # the largest value: 1e-6 here, where the interval quotient alone is
    # off by 1e-4 to 2e-3 (the c_X forms' numerator and denominator share
    # cos(theta_0Z - theta_1Z))
    box = [(0.0, 0.001), (3.7, 3.701), (2.0, 2.001)]
    a, b, c = _points(box, np.random.default_rng(0))
    with np.errstate(divide="ignore", invalid="ignore"):
        upper, gap, *_ = _bound(FORMULAS, box)
    for formula, upper, gap in zip(FORMULAS, upper, gap, strict=True):
        num, den = coeffs._at(formula, a, b, c)
        assert gap > coeffs.SINGULAR_TOL
        assert upper - (num / den).max() < 1e-5, formula.__name__


@settings(max_examples=200, deadline=None)
@given(los=st.tuples(*[st.floats(-7.0, 7.0)] * 3),
       widths=st.tuples(*[st.floats(-14.0, 0.3)] * 3),
       sizes=st.tuples(*[st.integers(3, coeffs._BLOCK)] * 3))
def test_leaning_axes_order_every_computed_value(los, widths, sizes):
    # a block whose form leans along an axis is evaluated only on its far
    # (rising) or near (falling) end there, so along that axis every
    # computed value of the block's grid must rise (fall) strictly. Widths
    # run from 1e-14, where rounding swamps the slope, to ~2
    grids = [np.linspace(lo, lo + 10.0 ** w, n)
             for lo, w, n in zip(los, widths, sizes)]
    box = [(g.min(), g.max()) for g in grids]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, _, lean, _ = _bound(FORMULAS, box, [np.diff(g).min() for g in grids])
        a, b, c = grids[0][:, None, None], grids[1][:, None], grids[2]
        for formula, signs in zip(FORMULAS, lean.swapaxes(0, 1), strict=True):
            value = np.divide(*coeffs._at(formula, a, b, c))
            for axis, sign in enumerate(signs):
                if sign:
                    order = np.sign(np.diff(value, axis=axis))
                    assert (order == sign).all(), (formula.__name__, axis)


@seed(20261021)
@settings(max_examples=200, deadline=None)
@given(los=st.tuples(*[st.floats(-7.0, 7.0)] * 3),
       widths=st.tuples(st.floats(-14.0, -0.5), st.floats(-14.0, -0.5),
                        st.floats(-4.5, 0.0)),
       sizes=st.tuples(*[st.integers(1, 9)] * 2))
@example(los=(-0.0529, 3.7582, 1.8526), widths=(-0.9754,) * 3,
         sizes=(9, 9))  # the box of a sweep_out_of_sector draw
def test_convex_x_axes_keep_every_maximum_at_an_end(los, widths, sizes):
    # a form certified convex along X over its whole box is evaluated only
    # on the box's two X end faces, so on every X line of the 81-point grid,
    # and of the 41-point grid it holds, each interior computed value must
    # lie strictly below the larger of the two end values. X widths run
    # from 1e-5, where rounding swamps the curvature, to ~2
    grids = [np.linspace(lo, lo + 10.0 ** w, n)
             for lo, w, n in zip(los, widths, sizes + (81,))]
    box = [(g.min(), g.max()) for g in grids]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        *_, convex = _bound(FORMULAS, box, [0.0, 0.0, np.diff(grids[2]).min()])
        a, b, c = grids[0][:, None, None], grids[1][:, None], grids[2]
        for formula, bent in zip(FORMULAS, convex, strict=True):
            if bent:
                value = np.divide(*coeffs._at(formula, a, b, c))
                for line in (value, value[..., ::2]):
                    ends = np.maximum(line[..., :1], line[..., -1:])
                    assert (line[..., 1:-1] < ends).all(), formula.__name__


@pytest.mark.parametrize("name", sorted(coeffs._TERMS))
def test_term_arguments_are_their_weights(name):
    # the enclosures read each argument's weights off the unit phases; that
    # is exact only for a linear argument with no offset and weights that
    # are sums of halves
    _, arg = coeffs._TERMS[name]
    weights = coeffs._WEIGHTS[name]
    assert arg(0.0, 0.0, 0.0) == 0.0
    assert set(weights) <= {0.0, 0.5, -0.5, 1.0, -1.0}
    phases = np.random.default_rng(11).uniform(-1e3, 1e3, (3, 200))
    assert np.array_equal(arg(*phases),
                          sum(w * theta for w, theta in zip(weights, phases)))


@contextlib.contextmanager
def _iv_bits(bits):
    """mpmath interval arithmetic at ``bits`` of precision."""
    saved, iv.prec = iv.prec, bits
    try:
        yield
    finally:
        iv.prec = saved


@settings(max_examples=60, deadline=None)
@given(box=boxes(), name=st.sampled_from(sorted(coeffs._TERMS)))
def test_term_ranges_against_mpmath_intervals(box, name):
    # the range of the exact term over the box, in 80-bit interval
    # arithmetic, lies inside the enclosure and close to its ends
    fn, weights = coeffs._TERMS[name][0], coeffs._WEIGHTS[name]
    with _iv_bits(80):
        arg = sum(w * iv.mpf([lo, hi]) for w, (lo, hi) in zip(weights, box))
        exact = (iv.sin if fn is np.sin else iv.cos)(arg)
    lo, hi = (mpmath.mp.make_mpf(end) for end in exact._mpi_)
    enc = _term_ranges(box)[name]
    assert mpmath.mpf(float(enc.lo)) <= lo and hi <= mpmath.mpf(float(enc.hi))
    slack = 1e-14 * (1 + sum(abs(w) * m for w, m in zip(weights, _mags(box))))
    assert lo - enc.lo <= slack and enc.hi - hi <= slack


@pytest.mark.parametrize("fn, iv_fn", [(np.sin, iv.sin), (np.cos, iv.cos)],
                         ids=["sin", "cos"])
def test_trig_range_is_exact(fn, iv_fn):
    rng = np.random.default_rng(5)
    lo = rng.uniform(-20, 20, 400)
    hi = lo + np.concatenate([rng.uniform(0, 0.5, 200), rng.uniform(0, 8, 200)])
    low, high = trig_range(fn, lo, hi)
    for x, y, l, h in zip(lo, hi, low, high):
        with _iv_bits(80):
            exact = iv_fn(iv.mpf([x, y]))
        e_lo, e_hi = (mpmath.mp.make_mpf(end) for end in exact._mpi_)
        assert abs(l - e_lo) <= 1e-15 and abs(h - e_hi) <= 1e-15
    # the endpoint values themselves wherever an endpoint is extreme
    point_lo, point_hi = trig_range(fn, lo, lo)
    assert np.array_equal(point_lo, fn(lo)) and np.array_equal(point_hi, fn(lo))


def _tables(formulas=FORMULAS):
    """The (b, A) rows of ``formulas`` as ``_plan`` stacks them for one box."""
    b = np.array([coeffs._AFFINE[f][0] for f in formulas]).T
    a = np.array([coeffs._AFFINE[f][1] for f in formulas]).swapaxes(0, 1)
    return b, a


@pytest.mark.parametrize("formula", FORMULAS, ids=lambda f: f.__name__)
def test_affine_tables_are_exact(formula):
    # b + A t is the closed form itself wherever the arithmetic is exact:
    # at small-integer term values, by float.hex
    b, a = coeffs._AFFINE[formula]
    names = tuple(coeffs._TERMS)
    rng = np.random.default_rng(3)
    for t in rng.integers(-4, 5, (50, len(names))).astype(float):
        got = formula(*(t[names.index(name)] for name in coeffs._TERMS_OF[formula]))
        want = b + (a * t).sum(1)
        assert [float(x).hex() for x in got] == [x.hex() for x in want]
    assert set(a.ravel()) <= {0.0, 1.0, -1.0, 2.0, -2.0}
    assert set(b) <= {0.0, 1.0, -1.0}
    # what _SUM_ERR and point_err are stated over
    assert (np.abs(a).sum(1) + np.abs(b) <= coeffs._TERM_WEIGHT + 1).all()
    assert (np.count_nonzero(a, axis=1) <= 5).all()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), width=st.sampled_from([0.0, 1e-15, 1e-9]))
def test_interval_map_holds_every_summation_order(seed, width):
    # each end of a numerator, a denominator or a derivative holds its
    # exact value and its float sum in every order, at term values anywhere
    # in the ranges: the value map, the second-derivative map along X and
    # the axis-derivative maps that _plan builds for all forms,
    # whose rows are the tables, the tables times -w_X^2, then the tables
    # times each axis's weights and signs
    rng = np.random.default_rng(seed)
    b, a = _tables()
    names, plan_maps = coeffs._plan(FORMULAS)
    assert names == tuple(coeffs._TERMS)
    lo = rng.uniform(-1.0, 1.0, len(names))
    hi = np.minimum(lo + width, 1.0)
    ranges = np.concatenate([lo, hi])
    signs = [coeffs._DERIVATIVE[coeffs._TERMS[name][0]][1] for name in names]
    weights = np.array([coeffs._WEIGHTS[name] for name in names]).T * signs
    bend = -np.array([coeffs._WEIGHTS[name][2] for name in names]) ** 2
    maps = [(rows, const, coeffs._apply(m, ranges)) for (rows, const), m in zip(
        [(a, b)] + [(a * w, np.zeros_like(b)) for w in [bend, *weights]],
        plan_maps, strict=True)]
    t = [rng.uniform(lo, hi) for _ in range(3)] + [lo, hi]
    for rows, const, ends in maps:
        for part, form in np.ndindex(const.shape):
            row, c = rows[part, form], float(const[part, form])
            low, high = ends[0][part][form], ends[1][part][form]
            for x in t:
                summands = [c] + [float(w * v) for w, v in zip(row, x) if w]
                assert low <= math.fsum(summands) <= high
                for order in itertools.permutations(summands):
                    total = 0.0
                    for s in order:
                        total += s
                    assert low <= total <= high


# the (delta, Delta) draws of the benchmark's sweep_out_of_sector workload
# for seeds 1-5, how many grid evaluations (whole-box corners, lines and
# faces, and visited blocks) the out-of-sector pass makes there and how
# many grid points they evaluate, both protocols together, and the (X
# reference, form) keys of each protocol that reach the blocked scan: none,
# as c_{0,0X} is convex along X over its whole box and is settled on its two
# X end faces (2 * 81^2 points per protocol). Last, a seeded source (numpy
# seed 7, the 20th of 100 with delta in [-1.5, 1.5] and Delta in [0, 0.2])
# where the denominator enclosure of bb84's c_{1,1X} over its whole box
# holds 0, so no certificate applies and the blocked scan still prunes it.
# A visit evaluates a block only where its leaning axes let the maxima lie:
# a whole-block visit (14^3 points) alone is more than the points allowed
OUT_OF_SECTOR_DRAWS = [
    (0.6694867473874465, 0.052913238569298415, 12, 26414, {}),
    (0.6895654974118699, 0.03169654103180426, 12, 26334, {}),
    (0.6088458450591904, 0.04109865499644238, 12, 26334, {}),
    (0.5206332068461431, 0.04188174727832043, 12, 26334, {}),
    (0.6483573978521459, 0.0538558069669709, 12, 26414, {}),
    (0.9901431894052366, 0.030892216212287972, 17, 26339,
     {"bb84": [("1X", coeffs._c1_x)]}),
]


@pytest.mark.parametrize("delta, cap_delta, evaluations, points, scans",
                         OUT_OF_SECTOR_DRAWS,
                         ids=["-".join(map(str, draw[:3]))
                              for draw in OUT_OF_SECTOR_DRAWS])
def test_pruning_evaluates_no_more_blocks(monkeypatch, delta, cap_delta,
                                          evaluations, points, scans):
    # a looser enclosure lets more blocks through to pointwise evaluation,
    # and a weaker lean or convexity certificate more points of each and
    # more forms to the blocked scan: each _at call of _fold evaluates one
    # form on the corner, line or X end faces of its whole box, or on (part
    # of) one block
    calls, scanned = [], []
    at = coeffs._at

    def counted(formula, *phases):
        if sys._getframe(1).f_code.co_name == "_fold":
            calls.append(np.broadcast(*phases).size)
        return at(formula, *phases)

    monkeypatch.setattr(coeffs, "_at", counted)
    _record_blocked_scans(monkeypatch, scanned)
    for protocol in ("bb84", "three_state"):
        spec = SourceSpec(delta=delta, Delta=cap_delta)
        bound_inputs_from_source(spec, protocol)
        ranges = PhaseRanges.from_source(spec)
        assert scanned == [((ranges.lo[x], ranges.hi[x]), f)
                           for x, f in scans.get(protocol, [])], protocol
        scanned.clear()
    assert 0 < len(calls) <= evaluations
    assert sum(calls) <= points


def _pass_boxes(delta, cap_delta):
    """The grid boxes of one pass for both protocols at the source, as
    ``_coeff_bounds`` hands them to ``_grid_maxima``: ({X range: forms},
    r0z, r1z)."""
    ranges = PhaseRanges.from_source(SourceSpec(delta=delta, Delta=cap_delta))
    r = {j: (ranges.lo[j], ranges.hi[j]) for j in ranges.lo}
    boxes = {}
    for proto in (BB84, THREE_STATE):
        for alpha in (1, 0) if takes_grid(proto, ranges) else ():
            boxes.setdefault(r[proto.x_ref[alpha]], {}).update(
                dict.fromkeys(coeffs._FORMULAS[alpha]))
    return boxes, r["0Z"], r["1Z"]


def _recorded(mp):
    """Every ``_bound_forms`` call made after this one, as (args, result)."""
    calls = []
    bound_forms = coeffs._bound_forms

    def recorded(*args):
        calls.append((args, bound_forms(*args)))
        return calls[-1][1]

    mp.setattr(coeffs, "_bound_forms", recorded)
    return calls


def _record_blocked_scans(mp, scanned):
    """Append the (X range, form) keys of every ``_scan_blocks`` call made
    after this one to ``scanned``; a grid's ends are its range's."""
    scan_blocks = coeffs._scan_blocks

    def scan(forms, grids, *rest):
        scanned.extend(((grids[2][0], grids[2][-1]), f) for f in forms)
        return scan_blocks(forms, grids, *rest)

    mp.setattr(coeffs, "_scan_blocks", scan)


def _axis(rx, n):
    """An X range's n-point grid, its least spacing and the (lo, hi) ends of
    its blocks, as ``_scan_blocks`` cuts them."""
    g = np.linspace(*rx, n)
    starts = np.arange(0, n, coeffs._BLOCK) if rx[0] < rx[1] else [0]
    return g, np.diff(g).min(), [f.reduceat(g, starts)
                                 for f in (np.minimum, np.maximum)]


@pytest.mark.parametrize("delta, cap_delta",
                         [(0.6, 0.05), (-0.75, 0.02), (1.05, 0.004)])
def test_scans_give_each_box_the_bounds_of_its_own_call(monkeypatch, delta,
                                                        cap_delta):
    # the level pass's column of each box in its whole-box call (the union
    # of the forms, each box one block along X), and each box's blocked
    # scan, must get the bounds, leans and convexity of a _bound_forms call
    # of its own forms, with the X block ends, X magnitude and X grid step
    # worked out here from its X range, bit for bit. einsum may sum a call
    # of one block in another order (see _apply), so the whole box's own
    # call holds it twice. The pass is shown no certificate, so that every
    # form of each box goes on to the box's blocked scan
    boxes, r0z, r1z = _pass_boxes(delta, cap_delta)
    assert len(boxes) == 2
    calls = _recorded(monkeypatch)
    recorded = coeffs._bound_forms

    def uncertified(*args):
        upper, gap, lean, convex = recorded(*args)
        if len(calls) == 1:  # the whole-box call
            return upper, gap, np.zeros_like(lean), np.zeros_like(convex)
        return upper, gap, lean, convex

    monkeypatch.setattr(coeffs, "_bound_forms", uncertified)
    with np.errstate(divide="ignore", invalid="ignore"):
        coeffs._scan_level(boxes, r0z, r1z, 81)
        ((union, _, mags, steps), stacked), *scans = calls
        assert len(scans) == len(boxes)
        for box, ((rx, forms), ((given, blocked, *_), scanned)) in enumerate(
                zip(boxes.items(), scans)):
            forms = tuple(forms)
            assert tuple(given) == forms
            g, step, ends = _axis(rx, 81)
            m = max(abs(g[0]), abs(g[-1]))
            own = coeffs._bound_forms(forms, blocked[:2] + [ends],
                                      mags[:2] + [m], steps[:2] + [step])
            assert [x.tobytes() for x in scanned] == [x.tobytes() for x in own], rx
            own = coeffs._bound_forms(
                forms, [r0z, r1z, np.repeat(np.reshape(rx, (2, 1)), 2, 1)],
                mags[:2] + [np.repeat(m, 2)], steps[:2] + [np.repeat(step, 2)])
            rows = [union.index(f) for f in forms]
            assert ([x[..., rows, box].tobytes() for x in stacked]
                    == [x[..., 0].tobytes() for x in own]), rx


@seed(20261020)
@settings(max_examples=5, deadline=None)
@given(delta=st.floats(0.35, 1.2), side=st.sampled_from([-1, 1]),
       cap_delta=st.floats(0.0, 0.1))
@example(delta=OUT_OF_SECTOR_DRAWS[0][0], side=1,
         cap_delta=OUT_OF_SECTOR_DRAWS[0][1])
@example(delta=0.4, side=1, cap_delta=1e-10)
def test_whole_box_leans_order_the_grid_and_settle_as_the_scan(delta, side,
                                                              cap_delta):
    # the 81-point level pass for both protocols: along every axis on which
    # a form leans over its whole box, its computed 81-point grid values
    # rise or fall strictly, along X where it is convex there every interior
    # value lies below the larger end, and a key the pass settles there (at
    # most one axis free, or a convex X axis) without the blocked scan has
    # the maxima and pole decisions that the blocked scan gives it alone.
    # The example is a benchmark draw, where c_{0,0X} is settled by
    # convexity alone
    boxes, r0z, r1z = _pass_boxes(side * delta, cap_delta)
    assume(boxes)
    scanned = []
    with pytest.MonkeyPatch.context() as mp, np.errstate(divide="ignore",
                                                         invalid="ignore"):
        calls = _recorded(mp)
        _record_blocked_scans(mp, scanned)
        found = coeffs._scan_level(boxes, r0z, r1z, 81)
    ((union, *_), (_, _, lean, convex)), *_ = calls
    # the certificates of (box, form) at [form, box]
    keys = [(rx, f, box, union.index(f)) for box, (rx, forms)
            in enumerate(boxes.items()) for f in forms]
    assert set(found) == {(rx, f) for rx, f, *_ in keys}
    for rx, f, box, row in keys:
        signs, bent = lean[:, row, box], convex[row, box]
        settled = (rx, f) not in scanned
        assert settled == (np.count_nonzero(signs) >= 2 or bent)
        a, b, c = (np.linspace(*r, 81) for r in (r0z, r1z, rx))
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.divide(*coeffs._at(f, a[:, None, None], b[:, None], c))
        for axis, sign in enumerate(signs):
            if sign:
                order = np.sign(np.diff(value, axis=axis))
                assert (order == sign).all(), (f.__name__, axis)
        if bent:
            ends = np.maximum(value[..., :1], value[..., -1:])
            assert (value[..., 1:-1] < ends).all(), f.__name__
        if settled:
            alone = coeffs._scan_blocks((f,), *coeffs._grids(r0z, r1z, [rx], 81),
                                        coeffs._VIEWS)[0]
            for (gap, top), (gap_alone, top_alone) in zip(found[rx, f], alone,
                                                         strict=True):
                assert float(top).hex() == float(top_alone).hex()
                tol = coeffs.SINGULAR_TOL
                assert (gap >= tol) == (gap_alone >= tol)


# a box from a seeded search (numpy seed 1, 3,000 boxes of phases in
# [-pi, 2 pi) and widths 0, 1e-6 or up to 0.3, the 904th): c_{0,0Z} leans
# over its whole 0X box along all axes but X, and its 41- and 81-point
# maxima on that X line differ by 1.4e-7 >= _GRID_TOL
MOVING_LO = {"0Z": -3.010095805918806, "1Z": 4.30846330604306,
             "0X": 1.4608574987233442, "1X": -2.1267800005181057}
MOVING_HI = dict(MOVING_LO, **{"0Z": -2.966014874797573, "1Z": 4.30846430604306,
                               "0X": 1.5028569597058017})
MOVING_KEY = ((MOVING_LO["0X"], MOVING_HI["0X"]), coeffs._c0_0z)
MOVING_ZS = tuple((MOVING_LO[j], MOVING_HI[j]) for j in ("0Z", "1Z"))


def test_whole_box_key_that_moves_at_81_points_refines_to_the_reference(
        monkeypatch):
    # the moving key settles in the 81-point level pass only to go on to
    # the 161-point one, which settles it too without a blocked scan, and
    # both protocols must end where the full grid does
    key, (r0z, r1z) = MOVING_KEY, MOVING_ZS
    with np.errstate(divide="ignore", invalid="ignore"):
        (_, top_41), (_, top_81) = coeffs._scan_level(
            {key[0]: [key[1]]}, r0z, r1z, 81)[key]
    assert abs(top_81 - top_41) >= coeffs._GRID_TOL
    levels, scanned = {}, []
    scan_level = coeffs._scan_level

    def level(boxes, r0z, r1z, n):
        levels.setdefault(n, []).extend((rx, f) for rx, forms in boxes.items()
                                        for f in forms)
        return scan_level(boxes, r0z, r1z, n)

    monkeypatch.setattr(coeffs, "_scan_level", level)
    _record_blocked_scans(monkeypatch, scanned)
    for proto in PROTOCOLS:
        levels.clear()
        assert_grid_matches_reference(proto, PhaseRanges(lo=MOVING_LO,
                                                         hi=MOVING_HI))
        assert [n for n, keys in levels.items() if key in keys] == [81, 161], proto.name
        assert key not in scanned, proto.name


def test_level_passes_certify_with_the_step_of_the_grid_they_evaluate(
        monkeypatch):
    # on the moving key's box, the 81- and 161-point level passes each
    # enclose with the least spacing of their own grid and give the key the
    # maximum of that full grid, and the key's leans at 161 points put its
    # computed 161-point values in strict order along every leaning axis
    key, (r0z, r1z) = MOVING_KEY, MOVING_ZS
    calls = _recorded(monkeypatch)
    for n in (81, 161):
        calls.clear()
        with np.errstate(divide="ignore", invalid="ignore"):
            found = coeffs._scan_level({key[0]: [key[1]]}, r0z, r1z, n)
        ((_, _, _, steps), (_, _, lean, _)), = calls
        grids = [np.linspace(*r, n) for r in (r0z, r1z, key[0])]
        assert ([float(np.ravel(s)[0]) for s in steps]
                == [np.diff(g).min() for g in grids]), n
        value = np.divide(*coeffs._at(key[1], grids[0][:, None, None],
                                      grids[1][:, None], grids[2]))
        assert float(found[key][-1][1]).hex() == float(value.max()).hex(), n
    signs = lean[:, 0, 0]
    assert np.count_nonzero(signs) >= 2
    for axis, sign in enumerate(signs):
        if sign:
            assert (np.sign(np.diff(value, axis=axis)) == sign).all(), axis
