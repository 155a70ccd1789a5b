"""Relations between runs that every sound bound satisfies, with no oracle.

Box inclusion in Delta: at fixed delta each phase range theta_hat_j +- Delta
nests as Delta grows, so every worst case over it can only grow. The
virtual-probability bounds pbar_vir^U and e_ph^U must be nondecreasing in
Delta and the key rate R nonincreasing, for both protocols, inside the
analytic sectors (corner rules) and outside them (grid), at every loss. The
channel statistics depend on delta alone, so both widths bound the same
statistics. The c^U entries are not checked: bb84's row 1 falls as Delta
grows where its box holds a pole (ROADMAP item 16).
"""

import numpy as np
from hypothesis import example, given, seed, settings, strategies as st

from qkdbound.bounds import evaluate_with_inputs, stacked_bound_inputs
from qkdbound.simulator import ChannelParams, simulate_asymptotic
from qkdbound.source import PROTOCOLS, ProtocolProbs, SourceSpec

NAMES = [proto.name for proto in PROTOCOLS]


def _bounds(delta, cap_delta, stats, f):
    """pbar_vir^U, then e_ph^U and R of each protocol, as ``sweep`` bounds
    them at epsilon_u = 0."""
    inputs = stacked_bound_inputs(SourceSpec(delta=delta, Delta=cap_delta), NAMES)
    report = evaluate_with_inputs(stats, ProtocolProbs.uniform(), inputs, f)
    return np.array(inputs[1]), report.e_ph_u, report.rate


@seed(20261020)
@settings(max_examples=20, deadline=None)
@given(delta=st.floats(-1.5, 1.5), widths=st.tuples(*[st.floats(0.0, 0.2)] * 2),
       loss_db=st.sampled_from([0.0, 10.0, 20.0]))
@example(delta=0.063, widths=(0.0, 0.03), loss_db=10.0)
@example(delta=-0.6, widths=(0.03, 0.06), loss_db=0.0)
@example(delta=0.3, widths=(0.01, 0.1), loss_db=20.0)  # bb84 leaves its sector
def test_bounds_nest_as_the_phase_box_grows(delta, widths, loss_db):
    small, large = sorted(widths)
    ch = ChannelParams(loss_db=loss_db)
    stats = simulate_asymptotic(SourceSpec(delta=delta), ProtocolProbs.uniform(), ch)
    pvir, e_ph, rate = _bounds(delta, small, stats, ch.f)
    pvir_large, e_ph_large, rate_large = _bounds(delta, large, stats, ch.f)
    assert (pvir_large >= pvir).all()
    assert (e_ph_large >= e_ph).all()
    assert (rate_large <= rate).all()
