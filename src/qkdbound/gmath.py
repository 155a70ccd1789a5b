"""Closed-form kernel: the G+/G- sandwich functions and binary entropy.

The pair (G-, G+) sandwiches the detection probability of one normalised
state given the observed detection probability y of a nearby state and a
lower bound z on their overlap:

    g+-(y, z) = y + (1 - z^2)(1 - 2y) +- 2z*sqrt((1 - z^2) y (1 - y))
    G+(y, z)  = g+(y, z) if y < z^2    else 1
    G-(y, z)  = g-(y, z) if y > 1-z^2  else 0

All functions accept floats or numpy arrays and return a float for a 0-d
input (``native``), an array otherwise. The kernels are pure formulas
with the precondition that every input lies in [0, 1]; they do not check
it. ``as_unit`` is the boundary check for callers that hold raw values.

``trig_range`` gives the exact range of sin or cos over intervals, which
the virtual-probability and coefficient bounds of the source model share.
"""

from __future__ import annotations

import numpy as np

#: Inputs within this distance outside [0, 1] are clamped; anything further
#: out is treated as a caller bug and rejected.
CLAMP_TOL = 1e-9


def native(x):
    """``x`` as a Python float when it is 0-d, otherwise as an array."""
    return x if getattr(x, "ndim", 0) else float(x)


def within(value, lo: float, hi: float) -> bool:
    """Whether every entry of ``value`` lies in [lo, hi]; NaN does not.

    One min and one max reduction; NaN propagates through both and fails
    the test. Each starts from its own bound, which leaves the test
    unchanged and admits an empty array.
    """
    return bool(np.minimum.reduce(value, axis=None, initial=lo) >= lo
                and np.maximum.reduce(value, axis=None, initial=hi) <= hi)


def _clamp(v):
    """``np.clip(v, 0.0, 1.0)`` bit for bit, without its Python wrapper.

    ``maximum`` returns its second argument on a tie, as ``clip`` keeps
    ``v``, so -0.0 stays -0.0 (``np.maximum(v, 0.0)`` would give 0.0).
    """
    return np.minimum(1.0, np.maximum(0.0, v))


def as_unit(value):
    """Clamp ``value`` into [0, 1], refusing excess beyond ``CLAMP_TOL``.

    One path for floats and arrays of any shape: a range test by
    ``within`` and the clamp of ``np.clip(v, 0.0, 1.0)``, bit for bit.
    """
    v = np.asarray(value, dtype=float)
    if not within(v, -CLAMP_TOL, 1.0 + CLAMP_TOL):
        raise ValueError(f"{value!r} lies outside [0, 1] beyond {CLAMP_TOL}")
    return native(_clamp(v))


def g_pm(y, z, sign: int = +1):
    """Raw g+-(y, z); ``sign`` selects +1 or -1 for the square-root term."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    w = 1.0 - z * z
    root = np.sqrt(np.maximum(w * y * (1.0 - y), 0.0))
    return native(y + w * (1.0 - 2.0 * y) + sign * 2.0 * z * root)


def G_plus(y, z):
    """Upper sandwich: g+(y, z) when y < z^2, otherwise 1."""
    return native(_clamp(np.where(y < z * z, g_pm(y, z, +1), 1.0)))


def G_minus(y, z):
    """Lower sandwich: g-(y, z) when y > 1 - z^2, otherwise 0."""
    return native(_clamp(np.where(y > 1.0 - z * z, g_pm(y, z, -1), 0.0)))


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    xa = np.asarray(x, dtype=float)
    interior = (xa > 0.0) & (xa < 1.0)
    # short-circuit the endpoints to avoid 0*log(0)
    safe = np.where(interior, xa, 0.5)
    return native(np.where(
        interior,
        -safe * np.log2(safe) - (1.0 - safe) * np.log2(1.0 - safe),
        0.0,
    ))


#: where each function takes its minimum and its maximum, modulo 2 pi
_EXTREMA = {np.sin: (-np.pi / 2, np.pi / 2), np.cos: (np.pi, 0.0)}
_EPS = 2.0 ** -52  # np.finfo(float).eps


def _holds(lo, hi, at):
    """Whether [lo, hi] holds a point ``at`` + 2 pi k; rounding errs to True."""
    turn = 2.0 * np.pi
    # the first candidate at or above lo, give or take the rounding of the
    # division: the one below is tested too
    point = at + turn * np.ceil((lo - at) / turn)
    slack = 8.0 * _EPS * (np.abs(lo) + np.abs(hi) + turn)
    return (point <= hi + slack) | (point - turn >= lo - slack)


def trig_range(fn, lo, hi):
    """Exact range (min, max) of ``fn`` (np.sin or np.cos) over [lo, hi].

    Elementwise over arrays. Each end is the larger or smaller endpoint
    value, or +-1 where the interval holds that extremum of ``fn``, so
    the endpoint values are returned bit for bit where they are extreme.
    """
    at_min, at_max = _EXTREMA[fn]
    f_lo, f_hi = fn(lo), fn(hi)
    low = np.where(_holds(lo, hi, at_min), -1.0, np.minimum(f_lo, f_hi))
    high = np.where(_holds(lo, hi, at_max), 1.0, np.maximum(f_lo, f_hi))
    return native(low), native(high)
