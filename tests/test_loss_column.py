"""A loss column through the array path equals the scalar pipeline per loss.

``sweep`` evaluates each source once, with the loss as an array axis:
``simulate_asymptotic`` on a ``ChannelColumn``, then ``phase_error_bound``
and ``key_rate`` elementwise. Every entry must equal, bit for bit,
``simulate_asymptotic`` + ``evaluate_point`` run on that loss alone, also
where G+ saturates (an input y >= z^2 gives 1) and where the rate clamps
to 0.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qkdbound.bounds import (
    EmptySiftedKey,
    bound_inputs_from_source,
    evaluate_point,
    evaluate_with_inputs,
)
from qkdbound.simulator import ChannelColumn, ChannelParams, simulate_asymptotic
from qkdbound.source import PhaseRanges, Protocol, ProtocolProbs, SourceSpec

F = 1.16

#: R clamps to 0 at this loss for every p_d drawn: dark counts dominate
DARK_LOSS = 100.0


def bits(values):
    return [float(v).hex() for v in values]


def check_column(protocol, spec, losses, p_d):
    """Compare the column with each loss alone; return (saturated, clamped)."""
    probs = ProtocolProbs.uniform(Protocol.named(protocol).settings)
    column = ChannelColumn.of_losses(losses, p_d=p_d, f=F)
    inputs = bound_inputs_from_source(spec, protocol)
    stats = simulate_asymptotic(spec, probs, column, protocol=protocol)
    report = evaluate_with_inputs(stats, probs, inputs, F)
    for i, ch in enumerate(column.channels):
        point = simulate_asymptotic(spec, probs, ch, protocol=protocol)
        expected = evaluate_point(point, probs, spec, protocol, F)
        assert bits(stats.q[j][g][i] for j in stats.q for g in (0, 1)) \
            == bits(point.q[j][g] for j in point.q for g in (0, 1))
        assert bits([report.y_z[i], report.e_bit[i], report.e_ph_u[i],
                     report.rate[i]]) \
            == bits([expected.y_z, expected.e_bit, expected.e_ph_u,
                     expected.rate])
    z = math.sqrt(1.0 - inputs[2])  # as phase_error_bound computes it
    saturated = any(np.any(np.asarray(q) >= z * z)
                    for pair in stats.q.values() for q in pair)
    return saturated, bool(np.any(report.rate == 0.0))


sources = st.fixed_dictionaries({
    "protocol": st.sampled_from(["bb84", "three_state"]),
    "epsilon_u": st.one_of(st.just(0.0), st.floats(1e-8, 1e-2),
                           st.floats(0.01, 0.9)),
    "lc": st.integers(0, 3),
    "p_d": st.floats(1e-9, 1e-5),
    "losses": st.lists(st.floats(0.0, 80.0), min_size=1, max_size=3),
})


def run(protocol, delta, cap, epsilon_u, lc, p_d, losses):
    spec = SourceSpec(delta=delta, Delta=cap, epsilon_u=epsilon_u,
                      correlation_length=lc)
    sector = PhaseRanges.from_source(
        spec, Protocol.named(protocol).settings).in_analytic_sectors()
    return sector, check_column(protocol, spec, losses + [DARK_LOSS], p_d)


@settings(max_examples=40, deadline=None)
@given(src=sources, delta=st.floats(-0.3, 0.3), cap=st.floats(0.0, 0.05))
@example(src={"protocol": "bb84", "epsilon_u": 1e-3, "lc": 0, "p_d": 1e-8,
              "losses": [0.0, 30.0]}, delta=0.063, cap=0.03)
def test_in_sector_column_equals_pointwise(src, delta, cap):
    sector, _ = run(delta=delta, cap=cap, **src)
    assert sector


#: out of sector the grid maximisation costs ~0.2 s per call, and the
#: pointwise side repeats it for every loss: few, short examples. Both
#: protocols leave their sectors for |delta| > pi/6 (bb84 already at pi/9).
@settings(max_examples=5, deadline=None)
@given(src=sources, delta=st.floats(0.55, 0.65) | st.floats(-0.65, -0.55),
       cap=st.floats(0.0, 0.02))
@example(src={"protocol": "three_state", "epsilon_u": 0.0, "lc": 2,
              "p_d": 1e-8, "losses": [0.0]}, delta=0.6, cap=0.02)
def test_out_of_sector_column_equals_pointwise(src, delta, cap):
    sector, _ = run(delta=delta, cap=cap, **src)
    assert not sector


@pytest.mark.parametrize("protocol", ["bb84", "three_state"])
def test_column_reaches_saturation_and_zero_rate(protocol):
    # the property tests only pass on such points if the edges are reached
    spec = SourceSpec(delta=0.063, Delta=0.03, epsilon_u=1e-3)
    assert check_column(protocol, spec, [0.0, 10.0, 50.0, DARK_LOSS],
                        1e-8) == (True, True)


def test_scalar_channel_gives_floats():
    probs = ProtocolProbs.uniform()
    stats = simulate_asymptotic(SourceSpec(), probs, ChannelParams(10.0))
    report = evaluate_point(stats, probs, SourceSpec(), "bb84", F)
    assert all(type(v) is float for v in (report.y_z, report.e_bit,
                                          report.e_ph_u, report.rate))


def test_empty_sifted_key_anywhere_in_column_raises():
    probs = ProtocolProbs.uniform()
    column = ChannelColumn.of_losses([0.0, 10.0, 400.0], p_d=0.0)
    stats = simulate_asymptotic(SourceSpec(), probs, column)
    assert stats.y_z[-1] == 0.0 and stats.e_bit[-1] == 0.0
    with pytest.raises(EmptySiftedKey):
        evaluate_with_inputs(stats, probs,
                             bound_inputs_from_source(SourceSpec(), "bb84"), F)


@pytest.mark.parametrize("losses, params", [
    ([0.0, -1.0], {}), ([0.0, float("nan")], {}), ([0.0, 10.0], {"p_d": 2.0}),
])
def test_column_validates_every_loss(losses, params):
    with pytest.raises(ValueError):
        ChannelColumn.of_losses(losses, **params)


def test_column_varies_only_the_loss():
    with pytest.raises(ValueError):
        ChannelColumn((ChannelParams(0.0, p_d=1e-8),
                       ChannelParams(10.0, p_d=1e-7)))
    with pytest.raises(ValueError):
        ChannelColumn(())
