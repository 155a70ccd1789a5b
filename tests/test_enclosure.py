"""Soundness of the block enclosures behind the pruned out-of-sector grid.

``coeffs._scan_level`` skips a grid block when its enclosure shows that the
block cannot hold a form's maximum or a pole. That is only bit-identical to
the full grid if every computed value in a block lies inside its enclosure:
each term's range, each form's upper bound and each |denominator| lower
bound. These tests sample computed values inside random boxes of the kinds
that stress the enclosures (ranges across sin/cos extrema, ranges wider
than 2 pi, single-phase and one-ulp ranges, ranges next to the
theta_0Z = theta_1Z pole) and check them, and check a sample of term ranges
against mpmath's interval arithmetic. They also check that each form's
affine table is the form itself, that the interval sums hold every
summation order, that boxes stacked on one call's box axis get the bounds
of their own calls, bit for bit, as do the boxes the grid scans stack, and
that along every axis on which a form is certified to lean its computed
grid values rise or fall strictly. The forms that lean over their whole
box along all axes but one skip the blocked scan: their maxima and pole
decisions must be the scan's, and one whose maximum still moves at 81
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
from hypothesis import assume, given, seed, settings, strategies as st
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
    """``_bound_forms`` of ``formulas`` over ``box`` as the one box of a
    call, its X ends, magnitude and grid step on a box axis of length 1."""
    mags = _mags(box)
    return coeffs._bound_forms([formulas], box[:2] + [[np.reshape(end, 1)
                                                       for end in box[2]]],
                               mags[:2] + [np.reshape(mags[2], 1)],
                               list(steps[:2]) + [np.reshape(steps[2], 1)])


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
        upper, gap, lean = _bound(formulas, box)
        # no axis leans without a grid step to lean over
        assert not lean.any()
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
@given(first=boxes(), second=boxes(), forms=st.lists(
    st.lists(st.sampled_from(FORMULAS), min_size=1, unique=True),
    min_size=2, max_size=2))
def test_stacked_boxes_give_each_boxs_own_bounds(first, second, forms):
    # two boxes with the same 0Z and 1Z ranges, each cut into 2^3 blocks and
    # given its own forms, their X block ends, X magnitudes and X grid steps
    # stacked on the box axis as _scan_level stacks them: each box's bounds
    # and leans are those of its own call, bit for bit
    pair = [first, first[:2] + second[2:]]
    alone = [_halves(box, ((-1, 1, 1), (-1, 1), (1, 1, 1, -1))) for box in pair]
    x_ends = [np.concatenate([blocks[2][k] for blocks in alone]) for k in (0, 1)]
    mags = [_mags(box) for box in pair]
    # the steps of a 14-point grid on each half
    steps = [[(hi - lo) / 26 for lo, hi in box] for box in pair]

    def stack(per_box):
        """Per-axis values of the boxes, the X ones on a box axis."""
        return per_box[0][:2] + [np.reshape([x[2] for x in per_box], (-1, 1, 1, 1))]

    with np.errstate(divide="ignore", invalid="ignore"):
        stacked = coeffs._bound_forms(forms, alone[0][:2] + [x_ends],
                                      stack(mags), stack(steps))
        own = [coeffs._bound_forms([formulas], blocks, stack([mag]), stack([step]))
               for formulas, blocks, mag, step in zip(forms, alone, mags, steps)]
    for got, want, axis in zip(stacked, zip(*own), (0, 0, 1), strict=True):
        assert ([float(x).hex() for x in got.ravel()]
                == [float(x).hex() for x in np.concatenate(want, axis).ravel()])


def test_mean_value_form_is_second_order():
    # on a box of width w away from poles each bound lies within O(w^2) of
    # the largest value: 1e-6 here, where the interval quotient alone is
    # off by 1e-4 to 2e-3 (the c_X forms' numerator and denominator share
    # cos(theta_0Z - theta_1Z))
    box = [(0.0, 0.001), (3.7, 3.701), (2.0, 2.001)]
    a, b, c = _points(box, np.random.default_rng(0))
    with np.errstate(divide="ignore", invalid="ignore"):
        upper, gap, _ = _bound(FORMULAS, box)
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
        _, _, lean = _bound(FORMULAS, box, [np.diff(g).min() for g in grids])
        a, b, c = grids[0][:, None, None], grids[1][:, None], grids[2]
        for formula, signs in zip(FORMULAS, lean.swapaxes(0, 1), strict=True):
            value = np.divide(*coeffs._at(formula, a, b, c))
            for axis, sign in enumerate(signs):
                if sign:
                    order = np.sign(np.diff(value, axis=axis))
                    assert (order == sign).all(), (formula.__name__, axis)


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
    # each end of a numerator, a denominator or a derivative along an axis
    # holds its exact value and its float sum in every order, at term
    # values anywhere in the ranges: the value map and the axis-derivative
    # maps that _plan builds for a box of all forms, whose rows are the
    # tables, then the tables times each axis's weights and signs
    rng = np.random.default_rng(seed)
    b, a = _tables()
    names, (plan_maps,) = coeffs._plan((FORMULAS,))
    assert names == tuple(coeffs._TERMS)
    lo = rng.uniform(-1.0, 1.0, len(names))
    hi = np.minimum(lo + width, 1.0)
    ranges = np.concatenate([lo, hi])
    signs = [coeffs._DERIVATIVE[coeffs._TERMS[name][0]][1] for name in names]
    weights = np.array([coeffs._WEIGHTS[name] for name in names]).T * signs
    maps = [(rows, const, coeffs._apply(m, ranges)) for (rows, const), m in zip(
        [(a, b)] + [(a * w, np.zeros_like(b)) for w in weights], plan_maps,
        strict=True)]
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
# for seeds 1-5, how many grid evaluations (whole-box corners and lines, and
# visited blocks) the out-of-sector pass makes there and how many grid
# points they evaluate, both protocols together. A visit evaluates a block
# only where its leaning axes let the maxima lie: a whole-block visit (14^3
# points) alone is more than the points allowed
OUT_OF_SECTOR_DRAWS = [
    (0.6694867473874465, 0.052913238569298415, 22, 1984),
    (0.6895654974118699, 0.03169654103180426, 22, 2124),
    (0.6088458450591904, 0.04109865499644238, 22, 1904),
    (0.5206332068461431, 0.04188174727832043, 18, 736),
    (0.6483573978521459, 0.0538558069669709, 22, 1984),
]


@pytest.mark.parametrize("delta, cap_delta, evaluations, points",
                         OUT_OF_SECTOR_DRAWS,
                         ids=["-".join(map(str, draw[:3]))
                              for draw in OUT_OF_SECTOR_DRAWS])
def test_pruning_evaluates_no_more_blocks(monkeypatch, delta, cap_delta,
                                          evaluations, points):
    # a looser enclosure lets more blocks through to pointwise evaluation,
    # and a weaker lean certificate more points of each and more forms to
    # the blocked scan: each _at call of _fold evaluates one form on the
    # corner or line of its whole box, or on (part of) one block. Only
    # c_{0,0X}, whose whole box leans on no axis, reaches the blocked scan
    calls, scanned = [], []
    at, scan_level = coeffs._at, coeffs._scan_level

    def counted(formula, *phases):
        if sys._getframe(1).f_code.co_name == "_fold":
            calls.append(np.broadcast(*phases).size)
        return at(formula, *phases)

    def scan(keys, r0z, r1z, n, with_start):
        scanned.append(list(keys))
        return scan_level(keys, r0z, r1z, n, with_start)

    monkeypatch.setattr(coeffs, "_at", counted)
    monkeypatch.setattr(coeffs, "_scan_level", scan)
    for protocol in ("bb84", "three_state"):
        spec = SourceSpec(delta=delta, Delta=cap_delta)
        bound_inputs_from_source(spec, protocol)
        ranges = PhaseRanges.from_source(spec)
        r0x = (ranges.lo["0X"], ranges.hi["0X"])
        assert scanned.pop() == [(r0x, coeffs._c0_0x)]
        assert not scanned
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


def _axis(rx, n):
    """An X range's n-point grid, its least spacing and the (lo, hi) ends of
    its blocks, as ``_scan_level`` cuts them."""
    g = np.linspace(*rx, n)
    starts = np.arange(0, n, coeffs._BLOCK) if rx[0] < rx[1] else [0]
    return g, np.diff(g).min(), [f.reduceat(g, starts)
                                 for f in (np.minimum, np.maximum)]


@pytest.mark.parametrize("delta, cap_delta",
                         [(0.6, 0.05), (-0.75, 0.02), (1.05, 0.004)])
def test_scans_give_each_box_the_bounds_of_its_own_call(monkeypatch, delta,
                                                        cap_delta):
    # the scans stack each box's X block ends, X magnitude and X grid step
    # on one box axis: every box must get the bounds and leans of a
    # _bound_forms call of its own, with those three worked out here from
    # its X range. On the blocked level bit for bit. The whole-box call has
    # one block per box, and einsum may sum a call of one block in another
    # order (see _apply), so there the bounds need only agree within a
    # relative 1e-12, each holding the other up to rounding, and lean alike
    boxes, r0z, r1z = _pass_boxes(delta, cap_delta)
    assert len(boxes) == 2
    keys = [(rx, f) for rx, forms in boxes.items() for f in forms]
    calls = _recorded(monkeypatch)
    with np.errstate(divide="ignore", invalid="ignore"):
        coeffs._scan_level(keys, r0z, r1z, 81, True)
        coeffs._whole_boxes(boxes, r0z, r1z, 81)
        (blocked, stacked), (whole, stacked_whole) = calls
        k = 0
        for b, (rx, forms) in enumerate(boxes.items()):
            forms = list(forms)
            g, step, ends = _axis(rx, 81)
            m = max(abs(g[0]), abs(g[-1]))
            own = coeffs._bound_forms(
                [forms], blocked[1][:2] + [[e.reshape(1, 1, 1, -1) for e in ends]],
                blocked[2][:2] + [np.reshape(m, (1, 1, 1, 1))],
                blocked[3][:2] + [np.reshape(step, (1, 1, 1, 1))])
            for got, want in zip(stacked, own, strict=True):
                got = got[..., k:k + len(forms), :, :, :len(ends[0])]
                assert got.tobytes() == want.tobytes(), (b, rx)
            own = coeffs._bound_forms([forms], [r0z, r1z, np.reshape(rx, (2, 1))],
                                      whole[2][:2] + [np.reshape(m, 1)],
                                      whole[3][:2] + [np.reshape(step, 1)])
            for got, want, rtol in zip(stacked_whole, own, (1e-12, 1e-12, 0),
                                       strict=True):
                got = got[..., k:k + len(forms)]
                assert np.allclose(got, want, rtol=rtol, atol=0), (b, rx)
            k += len(forms)
    assert k == len(keys)


@seed(20261020)
@settings(max_examples=5, deadline=None)
@given(delta=st.floats(0.35, 1.2), side=st.sampled_from([-1, 1]),
       cap_delta=st.floats(0.0, 0.1))
def test_whole_box_leans_order_the_grid_and_settle_as_the_scan(delta, side,
                                                              cap_delta):
    # an out-of-sector pass for both protocols: along every axis on which a
    # form leans over its whole box, its computed 81-point grid values rise
    # or fall strictly, and a key settled there (at most one axis free) has
    # the maxima and pole decisions that the blocked scan gives it alone
    boxes, r0z, r1z = _pass_boxes(side * delta, cap_delta)
    assume(boxes)
    with pytest.MonkeyPatch.context() as mp, np.errstate(divide="ignore",
                                                         invalid="ignore"):
        calls = _recorded(mp)
        found = coeffs._whole_boxes(boxes, r0z, r1z, 81)
    (_, (_, _, lean)), = calls
    keys = [(rx, f) for rx, forms in boxes.items() for f in forms]
    for (rx, f), signs in zip(keys, lean.T, strict=True):
        assert ((rx, f) in found) == (np.count_nonzero(signs) >= 2)
        a, b, c = (np.linspace(*r, 81) for r in (r0z, r1z, rx))
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.divide(*coeffs._at(f, a[:, None, None], b[:, None], c))
        for axis, sign in enumerate(signs):
            if sign:
                order = np.sign(np.diff(value, axis=axis))
                assert (order == sign).all(), (f.__name__, axis)
        if (rx, f) in found:
            alone = coeffs._scan_level([(rx, f)], r0z, r1z, 81, True)[0]
            for (gap, top), (gap_alone, top_alone) in zip(found[rx, f], alone,
                                                         strict=True):
                assert float(top).hex() == float(top_alone).hex()
                tol = coeffs.SINGULAR_TOL
                assert (gap >= tol) == (gap_alone >= tol)


def test_whole_box_key_that_moves_at_81_points_refines_to_the_reference(
        monkeypatch):
    # a box from a seeded search (numpy seed 1, 3,000 boxes of phases in
    # [-pi, 2 pi) and widths 0, 1e-6 or up to 0.3, the 904th): c_{0,0Z}
    # leans over its whole 0X box along all axes but X, and its 41- and
    # 81-point maxima on that X line differ by 1.4e-7 >= _GRID_TOL. So it
    # settles at depth 0 only to go on to the 161-point scan, and both
    # protocols must end where the full grid does
    lo = {"0Z": -3.010095805918806, "1Z": 4.30846330604306,
          "0X": 1.4608574987233442, "1X": -2.1267800005181057}
    hi = dict(lo, **{"0Z": -2.966014874797573, "1Z": 4.30846430604306,
                     "0X": 1.5028569597058017})
    key = ((lo["0X"], hi["0X"]), coeffs._c0_0z)
    r0z, r1z = ((lo[j], hi[j]) for j in ("0Z", "1Z"))
    with np.errstate(divide="ignore", invalid="ignore"):
        (_, top_41), (_, top_81) = coeffs._whole_boxes(
            {key[0]: [key[1]]}, r0z, r1z, 81)[key]
    assert abs(top_81 - top_41) >= coeffs._GRID_TOL
    scanned = {}
    scan_level = coeffs._scan_level

    def scan(keys, r0z, r1z, n, with_start):
        scanned.setdefault(n, []).extend(keys)
        return scan_level(keys, r0z, r1z, n, with_start)

    monkeypatch.setattr(coeffs, "_scan_level", scan)
    for proto in PROTOCOLS:
        scanned.clear()
        assert_grid_matches_reference(proto, PhaseRanges(lo=lo, hi=hi))
        assert key not in scanned.get(81, []) and key in scanned[161], proto.name
