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

The X references: the protocols differ only in the X state each row
decomposes over, so bb84's settings with both rows on 0X bound bb84's
statistics exactly as three-state does, bit for bit.

Ideal conditions (delta = Delta = epsilon_u = 0), where PAPER.md calls the
bound redundant: bb84's e_ph^U is the true virtual phase-error rate bit for
bit, and three-state's lies within the float rounding of its sums.
"""

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from qkdbound import coeffs
from qkdbound.bounds import (evaluate_with_inputs, phase_error_bound,
                             stacked_bound_inputs)
from qkdbound.simulator import (ChannelParams, simulate_asymptotic,
                                true_virtual_error_rate)
from qkdbound.source import (BB84, PROTOCOLS, THREE_STATE, PhaseRanges,
                             Protocol, ProtocolProbs, SourceSpec,
                             virtual_prob_bounds)

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


#: bb84's settings with three-state's X references: row 1 decomposes over 0X
BB84_ON_0X = Protocol(BB84.name, BB84.settings, x_ref=THREE_STATE.x_ref)


def _e_ph(proto, spec, stats):
    """e_ph^U of ``proto`` on the statistics, by ``float.hex``, from a
    coefficient pass of its own, or the pole message that pass raises."""
    ranges = PhaseRanges.from_source(spec)
    try:
        c_upper, = coeffs._coeff_bounds([proto], ranges)
    except coeffs.SingularSystem as exc:
        return str(exc)
    return float(phase_error_bound(stats, ProtocolProbs.uniform(), c_upper,
                                   virtual_prob_bounds(ranges),
                                   spec.effective_epsilon())).hex()


@seed(20261022)
@settings(max_examples=20, deadline=None)
@given(delta=st.floats(-1.2, 1.2), cap_delta=st.floats(0.0, 0.1),
       loss_db=st.sampled_from([0.0, 10.0, 30.0]))
@example(delta=SOURCES[0][0], cap_delta=SOURCES[0][1], loss_db=10.0)
@example(delta=SOURCES[1][0], cap_delta=SOURCES[1][1], loss_db=0.0)
# only 1X leaves its sector, and c_{0,0X}'s grid maximum is an ulp above its
# corner rule's: a row's rule must not depend on settings it does not use
@example(delta=0.45, cap_delta=1e-10, loss_db=10.0)
def test_bb84_on_three_states_x_references_bounds_as_three_state(delta, cap_delta,
                                                                 loss_db):
    # the rule of a row is chosen by the ranges of 0Z, 1Z and its own X
    # reference, and 1X's column then adds exactly +0.0 to the inner sum
    spec = SourceSpec(delta=delta, Delta=cap_delta, epsilon_u=1e-6)
    _, stats = _statistics(delta, loss_db)
    assert _e_ph(BB84_ON_0X, spec, stats) == _e_ph(THREE_STATE, spec, stats)


@pytest.mark.parametrize("loss_db", [0.0, 5.0, 20.0, 40.0, 60.0])
def test_bound_is_the_truth_in_ideal_conditions(loss_db):
    # bb84 bit for bit. Three-state's rows cancel: each sum of c q is far
    # below its terms, so it may be off by the rounding of those terms,
    # 8 eps sum |c q| pbar / Y_Z on either side (below the truth at 5 and
    # 20 dB; rounding it upward is ROADMAP item 2's)
    spec = SourceSpec()
    ch, stats = _statistics(0.0, loss_db)
    truth = true_virtual_error_rate(spec, ch)
    _, e_ph, _ = _bounds(spec, stats, ch.f)
    assert float(e_ph[0]).hex() == truth.hex()
    c_upper, pvir, _ = stacked_bound_inputs(spec, NAMES)
    # q[alpha, k] = q[setting k][1 - alpha], as phase_error_bound pairs them
    q = np.array([stats.q[j][::-1] for j in c_upper.settings]).T
    terms = (np.abs(c_upper.table) * q).sum(-1)
    allowance = 8 * np.finfo(float).eps * (
        pvir[0] * terms[:, 1] + pvir[1] * terms[:, 0]) / stats.y_z
    assert abs(e_ph[1] - truth) <= allowance[1]
