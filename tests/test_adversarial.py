"""e_ph^U against the exact phase-error rate of an adversarial channel.

The security claim covers any channel Eve applies and any actual phases
inside theta_hat_j +- Delta, fluctuating from round to round. Here, at
epsilon_u = 0 and inside the analytic sectors:

- each round emits one of K <= 3 phase tuples, tuple k with weight w_k, each
  phase drawn inside its range, so setting j sends a mixture of pure states;
- Eve applies a CPTP qubit channel whose Kraus operators are cut from a
  random isometry, the QR factor of a complex Gaussian 2r x 2 matrix;
- Bob's clicks follow the simulator's detector model (loss, dark counts,
  double clicks split evenly) applied to the Born probability of the
  channel output.

The truth is sum_k w_k sum_alpha pbar_alpha P(gamma = 1 - alpha | E(rho_vir,
alpha)) / Y_Z, with the virtual states of each tuple's own Z emissions, and
``phase_error_bound`` of the mixed statistics must not fall below it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkdbound.bounds import (
    ObservedStatistics,
    bound_inputs_from_source,
    phase_error_bound,
)
from qkdbound.simulator import (
    ChannelParams,
    detection_probs,
    true_virtual_error_rate,
)
from qkdbound.source import PROTOCOLS, ProtocolProbs, SourceSpec

#: How far e_ph^U may fall below the truth: float rounding where the bound
#: is exact (Delta = 0). Directed rounding (ROADMAP item 2) would remove it.
ALLOWANCE = 1e-15

#: Bob's outcome-0 vector in each basis
OUTCOME_0 = {"Z": np.array([1.0, 0.0]),
             "X": np.array([1.0, 1.0]) / math.sqrt(2.0)}

IDENTITY = np.eye(2)[None]

deltas = st.floats(-0.126, 0.126)
cap_deltas = st.one_of(st.just(0.0), st.floats(0.0, 0.03))
channels = st.builds(ChannelParams, loss_db=st.floats(0.0, 60.0),
                     p_d=st.sampled_from([0.0, 1e-8, 1e-4]))


def ket(theta):
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)])


def outcome_probs(rho, basis, ch):
    """(p_gamma0, p_gamma1, p_fail) of Bob's detectors measuring ``basis``
    on the qubit ``rho``: ``detection_probs``'s model, from the Born
    probability of outcome 0."""
    v = OUTCOME_0[basis]
    q0 = float(np.real(v @ rho @ v))
    q1 = 1.0 - q0
    eta, pd = ch.eta, ch.p_d
    only0 = eta * q0 * (1.0 - pd) + (1.0 - eta) * pd * (1.0 - pd)
    only1 = eta * q1 * (1.0 - pd) + (1.0 - eta) * pd * (1.0 - pd)
    both = eta * pd + (1.0 - eta) * pd * pd
    p_fail = (1.0 - eta) * (1.0 - pd) ** 2
    return (only0 + 0.5 * both, only1 + 0.5 * both, p_fail)


def random_kraus(r, seed):
    """r Kraus operators cut from the QR isometry of a complex Gaussian
    2r x 2 matrix: sum_i K_i^dagger K_i = 1."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2 * r, 2)) + 1j * rng.standard_normal((2 * r, 2))
    return np.linalg.qr(g)[0].reshape(r, 2, 2)


def run(proto, tuples, weights, kraus, ch):
    """(statistics, truth) of rounds that emit phase tuple k with weight
    ``weights[k]`` through the channel with Kraus operators ``kraus``."""

    def detect(state, basis):
        rho = np.outer(state, state)
        return outcome_probs(np.einsum("kab,bc,kdc->ad", kraus, rho,
                                       kraus.conj()), basis, ch)

    q = {j: np.zeros(2) for j in proto.settings}
    y_z = wrong = virtual = 0.0
    for phases, w in zip(tuples, weights):
        for j in proto.settings:
            q[j] += w * np.array(detect(ket(phases[j]), "X")[:2])
        for bit, j in enumerate(("0Z", "1Z")):
            p0, p1, p_fail = detect(ket(phases[j]), "Z")
            y_z += w * 0.5 * (1.0 - p_fail)
            wrong += w * 0.5 * (p1 if bit == 0 else p0)
        for alpha, sign in ((0, 1.0), (1, -1.0)):
            v = ket(phases["0Z"]) + sign * ket(phases["1Z"])
            norm = v @ v
            # pbar_alpha = |v|^2 / 4; a phase error is gamma = 1 - alpha
            p0, p1, _ = detect(v / math.sqrt(norm), "X")
            virtual += w * norm / 4.0 * (p0 if alpha == 1 else p1)
    stats = ObservedStatistics(q={j: tuple(q[j].tolist()) for j in q},
                               y_z=y_z, e_bit=wrong / y_z)
    return stats, virtual / y_z


def bound(proto, spec, stats):
    c_upper, pvir, _ = bound_inputs_from_source(spec, proto.name)
    return phase_error_bound(stats, ProtocolProbs.uniform(proto.settings),
                             c_upper, pvir, 0.0)


@settings(max_examples=150, deadline=None)
@given(proto=st.sampled_from(PROTOCOLS), delta=deltas, cap_delta=cap_deltas,
       ch=channels, data=st.data())
def test_bound_dominates_the_adversarial_truth(proto, delta, cap_delta, ch,
                                               data):
    spec = SourceSpec(delta=delta, Delta=cap_delta)
    nominal = spec.nominal_phases()
    k = data.draw(st.integers(1, 3), label="phase tuples")
    offsets = st.floats(-1.0, 1.0)
    tuples = [{j: nominal[j] + cap_delta * data.draw(offsets, label=j)
               for j in proto.settings} for _ in range(k)]
    weights = np.array([data.draw(st.floats(1e-3, 1.0), label="weight")
                        for _ in range(k)])
    kraus = random_kraus(data.draw(st.integers(1, 4), label="r"),
                         data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    stats, truth = run(proto, tuples, weights / weights.sum(), kraus, ch)
    assert bound(proto, spec, stats) >= truth - ALLOWANCE


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(-math.pi, 2.0 * math.pi),
       basis=st.sampled_from(["Z", "X"]), ch=channels)
def test_detector_model_is_the_simulators(theta, basis, ch):
    rho = np.outer(ket(theta), ket(theta))
    assert outcome_probs(rho, basis, ch) == pytest.approx(
        detection_probs(theta, basis, ch), rel=1e-12, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(proto=st.sampled_from(PROTOCOLS), delta=deltas, ch=channels)
def test_identity_channel_truth_is_the_honest_virtual_rate(proto, delta, ch):
    spec = SourceSpec(delta=delta)
    _, truth = run(proto, [spec.nominal_phases()], [1.0], IDENTITY, ch)
    assert truth == pytest.approx(true_virtual_error_rate(spec, ch),
                                  rel=1e-12, abs=1e-15)
