"""Soundness of the block enclosures behind the pruned out-of-sector grid.

``coeffs._scan_level`` skips a grid block when its enclosure shows that the
block cannot hold a form's maximum or a pole. That is only bit-identical to
the full grid if every computed value in a block lies inside its enclosure:
each term's range, each form's upper bound and each |denominator| lower
bound. These tests sample computed values inside random boxes of the kinds
that stress the enclosures (ranges across sin/cos extrema, ranges wider
than 2 pi, single-phase and one-ulp ranges, ranges next to the
theta_0Z = theta_1Z pole) and check them, and check a sample of term ranges
against mpmath's interval arithmetic.
"""

import contextlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv

from qkdbound import coeffs
from qkdbound.gmath import trig_range

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


@settings(max_examples=150, deadline=None)
@given(box=boxes(), seed=st.integers(0, 2 ** 32 - 1))
def test_term_ranges_hold_every_computed_value(box, seed):
    a, b, c = _points(box, np.random.default_rng(seed))
    for name, term in coeffs._TERMS.items():
        enc = coeffs._enclose_term(name, box, _mags(box))
        values = term(a, b, c)
        assert enc.lo <= values.min() and values.max() <= enc.hi, name


@settings(max_examples=150, deadline=None)
@given(box=boxes(), seed=st.integers(0, 2 ** 32 - 1))
def test_form_bounds_hold_every_computed_value(box, seed):
    a, b, c = _points(box, np.random.default_rng(seed))
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = coeffs._bound_forms(FORMULAS, box, _mags(box))
        for formula, (upper, gap) in zip(FORMULAS, bounds):
            num, den = coeffs._at(formula, a, b, c)
            assert np.abs(den).min() >= gap, formula.__name__
            if gap > 0:
                assert (num / den).max() <= upper, formula.__name__
            else:
                assert upper == np.inf


def test_mean_value_form_is_second_order():
    # on a box of width w away from poles each bound lies within O(w^2) of
    # the largest value: 1e-6 here, where the interval quotient alone is
    # off by 1e-4 to 2e-3 (the c_X forms' numerator and denominator share
    # cos(theta_0Z - theta_1Z))
    box = [(0.0, 0.001), (3.7, 3.701), (2.0, 2.001)]
    a, b, c = _points(box, np.random.default_rng(0))
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = coeffs._bound_forms(FORMULAS, box, _mags(box))
    for formula, (upper, gap) in zip(FORMULAS, bounds):
        num, den = coeffs._at(formula, a, b, c)
        assert gap > coeffs.SINGULAR_TOL
        assert upper - (num / den).max() < 1e-5, formula.__name__


@contextlib.contextmanager
def _iv_bits(bits):
    """mpmath interval arithmetic at ``bits`` of precision."""
    saved, iv.prec = iv.prec, bits
    try:
        yield
    finally:
        iv.prec = saved


@settings(max_examples=60, deadline=None)
@given(box=boxes(), name=st.sampled_from(sorted(coeffs._ARGS)))
def test_term_ranges_against_mpmath_intervals(box, name):
    # the range of the exact term over the box, in 80-bit interval
    # arithmetic, lies inside the enclosure and close to its ends
    fn, weights = coeffs._ARGS[name]
    with _iv_bits(80):
        arg = sum(w * iv.mpf([lo, hi]) for w, (lo, hi) in zip(weights, box))
        exact = (iv.sin if fn is np.sin else iv.cos)(arg)
    lo, hi = (mpmath.mp.make_mpf(end) for end in exact._mpi_)
    enc = coeffs._enclose_term(name, box, _mags(box))
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
