"""Relations between runs that every sound bound satisfies, with no oracle.

Box inclusion in Delta: at fixed delta each phase range theta_hat_j +- Delta
nests as Delta grows, so every worst case over it can only grow. The
virtual-probability bounds pbar_vir^U and e_ph^U must be nondecreasing in
Delta and the key rate R nonincreasing, for both protocols, inside the
analytic sectors (corner rules) and outside them (grid), at every loss. The
channel statistics depend on delta alone, so both widths bound the same
statistics. The c^U entries are not checked: bb84's row 1 falls as Delta
grows where its box holds a pole (ROADMAP item 16).

The side channel: a larger epsilon_u, or a longer correlation length l_c
(epsilon_eff = 1 - (1 - epsilon_u)^(l_c + 1)), widens every G+- sandwich,
so e_ph^U must be nondecreasing and R nonincreasing in both, and e_ph^U
must rise strictly with l_c wherever epsilon_u > 0 and e_ph^U < 1. Neither
changes the channel statistics.
"""

import numpy as np
from hypothesis import example, given, seed, settings, strategies as st

from qkdbound.bounds import evaluate_with_inputs, stacked_bound_inputs
from qkdbound.simulator import ChannelParams, simulate_asymptotic
from qkdbound.source import PROTOCOLS, ProtocolProbs, SourceSpec

NAMES = [proto.name for proto in PROTOCOLS]


def _bounds(spec, stats, f):
    """pbar_vir^U, then e_ph^U and R of each protocol, as ``sweep`` bounds
    them at the source ``spec``."""
    inputs = stacked_bound_inputs(spec, NAMES)
    report = evaluate_with_inputs(stats, ProtocolProbs.uniform(), inputs, f)
    return np.array(inputs[1]), report.e_ph_u, report.rate


def _statistics(delta, loss_db):
    """The channel, and the statistics of a source of phase deviation delta
    through it: they do not depend on Delta, epsilon_u or l_c."""
    ch = ChannelParams(loss_db=loss_db)
    return ch, simulate_asymptotic(SourceSpec(delta=delta),
                                   ProtocolProbs.uniform(), ch)


@seed(20261020)
@settings(max_examples=20, deadline=None)
@given(delta=st.floats(-1.5, 1.5), widths=st.tuples(*[st.floats(0.0, 0.2)] * 2),
       loss_db=st.sampled_from([0.0, 10.0, 20.0]))
@example(delta=0.063, widths=(0.0, 0.03), loss_db=10.0)
@example(delta=-0.6, widths=(0.03, 0.06), loss_db=0.0)
@example(delta=0.3, widths=(0.01, 0.1), loss_db=20.0)  # bb84 leaves its sector
def test_bounds_nest_as_the_phase_box_grows(delta, widths, loss_db):
    small, large = sorted(widths)
    ch, stats = _statistics(delta, loss_db)
    pvir, e_ph, rate = _bounds(SourceSpec(delta=delta, Delta=small), stats, ch.f)
    pvir_large, e_ph_large, rate_large = _bounds(
        SourceSpec(delta=delta, Delta=large), stats, ch.f)
    assert (pvir_large >= pvir).all()
    assert (e_ph_large >= e_ph).all()
    assert (rate_large <= rate).all()


#: a source inside the analytic sectors (the README's) and one outside
SOURCES = [(0.063, 0.03), (0.6, 0.05)]


@seed(20261021)
@settings(max_examples=20, deadline=None)
@given(delta=st.floats(-1.5, 1.5), cap_delta=st.floats(0.0, 0.1),
       weights=st.tuples(*[st.just(0.0) | st.floats(-9.0, -0.5).map(
           lambda x: 10.0 ** x)] * 2),
       l_c=st.integers(0, 9), loss_db=st.sampled_from([0.0, 10.0, 20.0]))
@example(delta=SOURCES[0][0], cap_delta=SOURCES[0][1], weights=(0.0, 1e-6),
         l_c=0, loss_db=0.0)
@example(delta=SOURCES[1][0], cap_delta=SOURCES[1][1], weights=(1e-7, 1e-3),
         l_c=3, loss_db=20.0)
def test_bounds_grow_with_the_side_channel_weight(delta, cap_delta, weights,
                                                  l_c, loss_db):
    # a larger epsilon_u widens every G+- sandwich: e_ph^U can only grow and
    # R only fall, at any l_c
    small, large = sorted(weights)
    ch, stats = _statistics(delta, loss_db)
    _, e_ph, rate = _bounds(SourceSpec(delta=delta, Delta=cap_delta,
                                       epsilon_u=small, correlation_length=l_c),
                            stats, ch.f)
    _, e_ph_large, rate_large = _bounds(
        SourceSpec(delta=delta, Delta=cap_delta, epsilon_u=large,
                   correlation_length=l_c), stats, ch.f)
    assert (e_ph_large >= e_ph).all()
    assert (rate_large <= rate).all()


@seed(20261021)
@settings(max_examples=20, deadline=None)
@given(delta=st.floats(-1.5, 1.5), cap_delta=st.floats(0.0, 0.1),
       weight=st.floats(-9.0, -0.5).map(lambda x: 10.0 ** x),
       l_c=st.integers(0, 8),
       longer=st.integers(1, 3), loss_db=st.sampled_from([0.0, 10.0, 20.0]))
@example(delta=SOURCES[0][0], cap_delta=SOURCES[0][1], weight=1e-6, l_c=0,
         longer=1, loss_db=0.0)
@example(delta=SOURCES[1][0], cap_delta=SOURCES[1][1], weight=1e-4, l_c=2,
         longer=1, loss_db=10.0)
def test_phase_error_bound_rises_strictly_with_the_correlation_length(
        delta, cap_delta, weight, l_c, longer, loss_db):
    # a longer correlation length raises epsilon_eff = 1 - (1 - epsilon_u)
    # ^ (l_c + 1), so wherever epsilon_u > 0 and the bound is not already
    # vacuous (e_ph^U = 1), e_ph^U rises strictly, and R cannot rise
    ch, stats = _statistics(delta, loss_db)
    e_ph, rate = [], []
    for length in (l_c, l_c + longer):
        _, e, r = _bounds(SourceSpec(delta=delta, Delta=cap_delta,
                                     epsilon_u=weight,
                                     correlation_length=length), stats, ch.f)
        e_ph.append(e)
        rate.append(r)
    open_ = e_ph[0] < 1.0
    assert (e_ph[1][open_] > e_ph[0][open_]).all()
    assert (e_ph[1] >= e_ph[0]).all() and (rate[1] <= rate[0]).all()
