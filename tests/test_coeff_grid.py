"""Out-of-sector coefficient bounds against a form-by-form grid reference.

Outside the analytic sectors ``coeff_bounds_*`` maximise the closed forms
on refined grids, evaluating only the grid blocks whose enclosures may hold
a maximum or a pole. Every bound must be, bit for bit, what maximising each
closed form on its own full grid gives: the reference below, with its
closed forms written out as they were before the trig terms were shared. A
grid sample on a pole must raise SingularSystem in both, with the same
message, and the scan must keep its memory below one 81^3 grid.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qkdbound import coeffs
from qkdbound.coeffs import (
    SINGULAR_TOL,
    SingularSystem,
    coeff_bounds_bb84,
    coeff_bounds_three_state,
)
from qkdbound.source import BB84, PROTOCOLS, PhaseRanges, SourceSpec

BOUNDS = {"bb84": coeff_bounds_bb84, "three_state": coeff_bounds_three_state}


# ---------------------------------------------------------------------------
# The reference: each closed form maximised on its own full grid.

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


CLOSED_FORMS = {1: (c1_0z, c1_1z, c1_x), 0: (c0_0z, c0_1z, c0_0x)}


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


def reference_bounds(proto, ranges):
    """{(alpha, setting): bound} of every closed form, row 1 first."""
    r = {j: (ranges.lo[j], ranges.hi[j]) for j in proto.settings}
    out = {}
    for alpha in (1, 0):
        x = proto.x_ref[alpha]
        for j, fn in zip(("0Z", "1Z", x), CLOSED_FORMS[alpha]):
            out[alpha, j] = _grid_max(fn, r["0Z"], r["1Z"], r[x])
    return out


def takes_grid(proto, ranges):
    """Whether ``coeff_bounds_*`` take the grid: only the ranges of the
    settings the rows use, 0Z, 1Z and the X references, decide."""
    used = ("0Z", "1Z") + proto.x_ref
    return not PhaseRanges(lo={j: ranges.lo[j] for j in used},
                           hi={j: ranges.hi[j] for j in used}
                           ).in_analytic_sectors()


def assert_grid_matches_reference(proto, ranges):
    assert takes_grid(proto, ranges)
    expected = reference_bounds(proto, ranges)
    got = BOUNDS[proto.name](ranges)
    for (alpha, j), value in expected.items():
        assert got.c[alpha][j].hex() == value.hex(), (alpha, j)


# ---------------------------------------------------------------------------

@settings(max_examples=6, deadline=None)
@given(proto=st.sampled_from(PROTOCOLS), delta=st.floats(0.35, 0.9),
       cap_delta=st.floats(0.0, 0.08))
def test_out_of_sector_bounds_equal_reference(proto, delta, cap_delta):
    # delta >= 0.35 puts 1X = 3/2 (pi + delta) past its sector, at any Delta;
    # three-state emits no 1X, and takes the grid only once 1Z = pi + delta
    # leaves its sector (delta + Delta > pi/6)
    ranges = PhaseRanges.from_source(SourceSpec(delta=delta, Delta=cap_delta))
    assume(takes_grid(proto, ranges))
    assert_grid_matches_reference(proto, ranges)


def test_refinement_past_81_points_equals_reference():
    # bb84's c_{1,0Z} needs the 161-point grid here; the other forms stop
    # at 81 points
    ranges = PhaseRanges.from_source(SourceSpec(delta=1.0, Delta=0.05))
    assert_grid_matches_reference(BB84, ranges)


@pytest.mark.parametrize("proto", PROTOCOLS, ids=lambda p: p.name)
def test_pole_on_grid_raises_in_both(proto):
    # equal 0Z and 1Z ranges put theta_0Z = theta_1Z on the grid's
    # diagonal, a pole of every c_{alpha,0Z}
    lo = {"0Z": 0.0, "1Z": 0.0, "0X": math.pi / 2, "1X": 3 * math.pi / 2}
    hi = dict(lo, **{"0Z": 0.5, "1Z": 0.5})
    ranges = PhaseRanges(lo=lo, hi=hi)
    with pytest.raises(SingularSystem) as expected:
        reference_bounds(proto, ranges)
    with pytest.raises(SingularSystem) as got:
        BOUNDS[proto.name](ranges)
    assert str(got.value) == str(expected.value)


def test_grid_memory_stays_below_one_full_grid():
    ranges = PhaseRanges.from_source(SourceSpec(delta=0.6, Delta=0.05))
    coeff_bounds_bb84(ranges)  # first-call allocations are not the grid's
    tracemalloc.start()
    try:
        coeff_bounds_bb84(ranges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 81 ** 3 * 8


def _seeded_boxes():
    """30 out-of-sector phase boxes: sources with |delta| past the sectors,
    boxes of random phases and widths, which may hold a pole, and the two
    below. Larger |delta| or Delta refine past 161 points, where the
    reference takes seconds per box."""
    rng = np.random.default_rng(20261018)
    boxes = []
    for _ in range(18):
        spec = SourceSpec(delta=rng.choice([-1, 1]) * rng.uniform(0.35, 0.9),
                          Delta=rng.choice([0.0, rng.uniform(0.0, 0.08)]))
        boxes.append(PhaseRanges.from_source(spec))
    while len(boxes) < 28:
        lo = {j: rng.uniform(-math.pi, 2 * math.pi) for j in BB84.settings}
        hi = {j: v + rng.choice([0.0, 1e-6, rng.uniform(0.0, 0.1)])
              for j, v in lo.items()}
        ranges = PhaseRanges(lo=lo, hi=hi)
        if not ranges.in_analytic_sectors():
            boxes.append(ranges)
    # bb84's c_{1,0Z} refines to 161 points here; the next one is a pole
    boxes.append(PhaseRanges.from_source(SourceSpec(delta=1.0, Delta=0.05)))
    lo = {"0Z": 0.0, "1Z": 0.0, "0X": math.pi / 2, "1X": 3 * math.pi / 2}
    boxes.append(PhaseRanges(lo=lo, hi=dict(lo, **{"0Z": 0.5, "1Z": 0.5})))
    return boxes


def test_seeded_boxes_equal_reference_in_both_protocols():
    # bb84 and three-state share row 0, so the reference grid of each form
    # and range triple is computed once
    memo = {}

    def reference(fn, *triple):
        if (fn, triple) not in memo:
            try:
                memo[fn, triple] = _grid_max(fn, *triple)
            except SingularSystem as exc:
                memo[fn, triple] = exc
        return memo[fn, triple]

    compared = {proto.name: 0 for proto in PROTOCOLS}
    for ranges in _seeded_boxes():
        r = {j: (ranges.lo[j], ranges.hi[j]) for j in BB84.settings}
        assert takes_grid(BB84, ranges)
        for proto in PROTOCOLS:
            if not takes_grid(proto, ranges):
                continue  # the corner rules, which the reference is not
            compared[proto.name] += 1
            expected = {}
            for alpha in (1, 0):
                x = proto.x_ref[alpha]
                for j, fn in zip(("0Z", "1Z", x), CLOSED_FORMS[alpha]):
                    expected[alpha, j] = reference(fn, r["0Z"], r["1Z"], r[x])
            # the reference raises on the first pole in this order
            pole = next((v for v in expected.values()
                         if isinstance(v, SingularSystem)), None)
            if pole is not None:
                with pytest.raises(SingularSystem) as got:
                    BOUNDS[proto.name](ranges)
                assert str(got.value) == str(pole)
                continue
            got = BOUNDS[proto.name](ranges)
            for (alpha, j), value in expected.items():
                assert got.c[alpha][j].hex() == value.hex(), (ranges, alpha, j)
    # six boxes put three-state's 0Z, 1Z and 0X inside their sectors
    assert compared == {"bb84": 30, "three_state": 24}


def test_pole_in_blocks_the_values_rule_out_raises_in_both():
    # theta_0Z just past a zero of the determinant of row 1 (1Z and 1X are
    # single phases): |denominator| of c_{1,0Z} and c_{1,X} runs from about
    # 4e-13 to 1.2e-12 and 8e-13 to 2.4e-12. c_{1,0Z} tends to -inf there,
    # so only the pole rule visits its grid points below SINGULAR_TOL; c_{1,X}
    # tends to +inf and would raise with its own, different gap
    lo = {"0Z": -0.3821853071792574, "1Z": 3.28, "0X": 1.9, "1X": 5.901}
    ranges = PhaseRanges(lo=lo, hi=dict(lo, **{"0Z": -0.382185307178599}))
    with pytest.raises(SingularSystem) as expected:
        reference_bounds(BB84, ranges)
    with pytest.raises(SingularSystem) as got:
        coeff_bounds_bb84(ranges)
    assert str(got.value) == str(expected.value)


def test_poles_on_different_grids_raise_the_first_form_in_row_order():
    # a box from a seeded search: c_{1,1X} meets a pole on the 81-point grid,
    # c_{1,1Z} only on the 161-point one. Both raise the message of c_{1,1Z},
    # the first of them in row order. bb84 only: the three-state reference
    # takes seconds on this box
    lo = {"0Z": -2.0577716977412814, "1Z": -1.9512948832218775,
          "0X": 6.052537338207184, "1X": 4.598992231082854}
    hi = {"0Z": -1.5907194936908278, "1Z": -1.4709710032129204,
          "0X": 6.24928110425715, "1X": 4.976025819201283}
    ranges = PhaseRanges(lo=lo, hi=hi)
    with pytest.raises(SingularSystem) as expected:
        reference_bounds(BB84, ranges)
    with pytest.raises(SingularSystem) as got:
        coeff_bounds_bb84(ranges)
    assert str(got.value) == str(expected.value)


def _outcome(bounds_of, ranges):
    """A box's coefficient bounds as hex strings, or its pole's message."""
    try:
        c = bounds_of(ranges).c
    except SingularSystem as exc:
        return str(exc)
    return {(alpha, j): v.hex() for alpha, row in c.items()
            for j, v in row.items()}


def test_slabs_of_few_blocks_give_the_same_bounds(monkeypatch):
    # at the default slab size every grid up to 161 points is enclosed in
    # one slab; five blocks cut it into slabs of one row of blocks, or of
    # five when only theta_0Z spans a range, the last one then partial.
    # The boxes: sources, random boxes, a 161-point grid and two poles
    boxes = _seeded_boxes()
    lo = {"0Z": -0.3821853071792574, "1Z": 3.28, "0X": 1.9, "1X": 5.901}
    boxes.append(PhaseRanges(lo=lo, hi=dict(lo, **{"0Z": -0.382185307178599})))
    runs = [(BOUNDS[proto.name], ranges)
            for ranges in boxes[:28:6] + boxes[-3:]
            for proto in PROTOCOLS if takes_grid(proto, ranges)]
    want = [_outcome(*run) for run in runs]
    monkeypatch.setattr(coeffs, "_SLAB_BLOCKS", 5)
    assert [_outcome(*run) for run in runs] == want
    assert any(isinstance(w, str) for w in want)
