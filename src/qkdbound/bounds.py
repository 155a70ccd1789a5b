"""Assembly of the phase-error bound, per-tag variants and the secret-key rate.

The estimate of interest is an upper bound on the phase-error rate of the
virtual X-basis protocol, obtained from basis-mismatched detection statistics
through two layers of the G+ / G- sandwich:

  Y_inner(gamma, alpha) = sum_{j: c>0} c[alpha][j] * G+(q[j][gamma], z)
                        + sum_{j: c<0} c[alpha][j] * G-(q[j][gamma], z)
  y_outer = sum_alpha pbar[alpha] * Y_inner(1 - alpha, alpha)   (clamped to [0,1])
  e_ph^U  = G+(y_outer, z) / Y_Z,    z = sqrt(1 - epsilon_u)

and the key rate is R = max(0, Y_Z * [1 - h(e_ph^U) - f * h(e_bit)]).

The same assembly serves exact conditional probabilities (asymptotic mode)
and empirical counts (finite mode); no finite-size deviation terms are added,
finite mode exists to exercise estimator convergence. Asymptotic statistics
may be arrays over a loss axis (``simulator.ChannelColumn``), and epsilon_u
a column of shape (k, 1) that broadcasts against it: the bound and the rate
are then (k x losses) arrays, evaluated elementwise in one pass per
(protocol, delta, Delta) over the epsilon_eff x loss grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .coeffs import (
    CoefficientSet,
    coeff_bounds_bb84,
    coeff_bounds_three_state,
)
from .gmath import G_minus, G_plus, as_unit, binary_entropy, native, within
from .source import (
    InconsistentProtocol,
    PhaseRanges,
    Protocol,
    ProtocolProbs,
    SourceSpec,
    virtual_prob_bounds,
)


class EmptySiftedKey(ValueError):
    """No detected Z-basis rounds; error rates are undefined."""


@dataclass(frozen=True)
class TagCounts:
    """Raw per-tag counts of one finite run (tag w = round index mod l_c+1),
    refused unless some run's tag w could count them."""

    w: int
    n_w: int
    #: n_x[j] = (gamma=0 count, gamma=1 count) with Alice setting j, Bob in X
    n_x: Dict[str, Tuple[int, int]]
    n_det_z: int
    n_err_z: int

    def __post_init__(self):
        w, x = self.w, [v for pair in self.n_x.values() for v in pair]
        if min(x + [self.n_w, self.n_det_z, self.n_err_z]) < 0:
            raise ValueError(f"tag {w}: negative count")
        if self.n_w == 0:
            raise ValueError(f"tag {w}: no rounds (n_w = 0)")
        if self.n_err_z > self.n_det_z:
            raise ValueError(f"tag {w}: n_err_z = {self.n_err_z} exceeds "
                             f"n_det_z = {self.n_det_z}")
        if sum(x) + self.n_det_z > self.n_w:
            raise ValueError(f"tag {w}: X-basis and sifted counts exceed "
                             f"n_w = {self.n_w}")


@dataclass(frozen=True)
class ObservedStatistics:
    """Conditional detection statistics of one run, exact or empirical.

    q[j] = (q_0, q_1) are estimates of P(Bob detects gamma | Alice sent j,
    Bob measured X), clamped into [0,1]. y_z is the Z-basis detection yield
    conditioned on both parties choosing Z, so the sifted-key size is
    N * p_ZA * p_ZB * y_z. ``n`` is None in asymptotic mode, where q, y_z
    and e_bit may also be arrays with one entry per loss. In the count
    column of ``column_bounds`` every field but ``per_tag`` is an array:
    entry 0 is the run total, entry w + 1 tag w. One ``as_unit`` call over
    the stacked (q_0, q_1) pairs checks and clamps all q estimates. Only
    ``from_tags`` sets ``per_tag``: a tagged run's totals are its tags' sums.
    """

    q: Dict[str, Tuple[float, float]]
    y_z: float
    e_bit: float
    n: Optional[int] = None
    n_det_z: Optional[int] = None
    per_tag: Optional[List[TagCounts]] = field(default=None, init=False)

    def __post_init__(self):
        pairs = as_unit(list(self.q.values()))
        object.__setattr__(self, "q", {j: (q0, q1) for j, (q0, q1)
                                       in zip(self.q, pairs)})
        as_unit(self.e_bit)
        if not within(self.y_z, 0.0, 1.0 + 1e-9):
            raise ValueError(f"y_z = {self.y_z} is not a probability")

    @classmethod
    def from_counts(cls, n, n_x: Dict[str, Tuple], n_det_z, n_err_z,
                    probs: ProtocolProbs) -> "ObservedStatistics":
        """Build clamped conditional estimates from raw counts.

        q[j][gamma] = N_{j,gammaX} / (N * p_j * p_XB); finite-sample noise can
        push the ratio above 1, so it is clamped (upward bias is safe: the
        outer bound is nondecreasing in every q). The counts may be float
        arrays, one entry for the run total and one per tag (the count
        column of ``column_bounds``); the estimates are then arrays too.
        """
        q = {
            j: (
                np.minimum(1.0, n_x[j][0] / (n * probs.p_j[j] * probs.p_xb)),
                np.minimum(1.0, n_x[j][1] / (n * probs.p_j[j] * probs.p_xb)),
            )
            for j in n_x
        }
        # Alice's Z-basis probability is carried by the setting distribution
        p_zz = (probs.p_j["0Z"] + probs.p_j["1Z"]) * probs.p_zb
        y_z = native(np.minimum(1.0, n_det_z / (n * p_zz)))
        # an empty sifted key has no error rate: divide its errors by 1, not
        # 0 (which raises for int counts), and report 0
        det = n_det_z + (n_det_z == 0)
        e_bit = native(np.where(n_det_z, n_err_z / det, 0.0))
        return cls(q=q, y_z=y_z, e_bit=e_bit, n=n, n_det_z=n_det_z)

    @classmethod
    def from_tags(cls, n: int, per_tag: List[TagCounts],
                  probs: ProtocolProbs) -> "ObservedStatistics":
        """Statistics of a tagged run, keeping the tags; the totals are their
        exact sums. The one check of a tag list: tag w at position w of a
        nonempty list, n_w that partition n, n_x over the settings of p_j."""
        if not per_tag:
            raise ValueError("a tagged run needs at least one tag block")
        for w, t in enumerate(per_tag):
            if t.w != w:
                raise ValueError(f"tag block {w} has w = {t.w}")
        if sum(t.n_w for t in per_tag) != n:
            raise ValueError(f"tag sizes n_w do not sum to n = {n}")
        for t in per_tag:
            if t.n_x.keys() != probs.p_j.keys():
                raise InconsistentProtocol(f"tag {t.w}: n_x names "
                                           f"{list(t.n_x)}, not probs.p_j's")
        n_x = {j: (sum(t.n_x[j][0] for t in per_tag),
                   sum(t.n_x[j][1] for t in per_tag)) for j in probs.p_j}
        stats = cls.from_counts(n=n, n_x=n_x,
                                n_det_z=sum(t.n_det_z for t in per_tag),
                                n_err_z=sum(t.n_err_z for t in per_tag),
                                probs=probs)
        object.__setattr__(stats, "per_tag", per_tag)
        return stats


@dataclass(frozen=True)
class KeyRateReport:
    """Key-rate summary for one parameter point."""

    y_z: float
    e_bit: float
    e_ph_u: float
    rate: float


def _inner_detection_bound(q: Dict[str, Tuple[float, float]], gamma: int,
                           row: Dict[str, float], z: float) -> float:
    """One virtual detection probability, of Bob's X outcome ``gamma``,
    bounded through the sandwich over the coefficients ``row``."""
    total = 0.0
    for j, c in row.items():
        if c > 0.0:
            total += c * G_plus(q[j][gamma], z)
        elif c < 0.0:
            total += c * G_minus(q[j][gamma], z)
    return total


def phase_error_bound(stats: ObservedStatistics, probs: ProtocolProbs,
                      c_upper: CoefficientSet,
                      pvir_upper: Tuple[float, float],
                      eps_u: float) -> float:
    """Upper bound e_ph^U on the phase-error rate of the sifted key.

    ``pvir_upper`` is (pbar_1X^U, pbar_0X^U), the normalised virtual-state
    probability bounds. Sound for any channel when ``c_upper`` and
    ``pvir_upper`` upper-bound the true decomposition. An ``eps_u`` column
    of shape (k, 1) gives k rows, each bit for bit its scalar call.
    """
    if np.any(stats.y_z <= 0.0) or np.any(stats.n_det_z == 0):
        raise EmptySiftedKey("no detected Z-basis rounds")
    for j in c_upper.c[1]:
        if j not in stats.q:
            raise InconsistentProtocol(
                f"statistics lack setting {j} required by the {c_upper.protocol} "
                f"coefficient set")
    eps_u = as_unit(eps_u)
    z = np.sqrt(1.0 - eps_u)
    pbar_1x, pbar_0x = pvir_upper
    # phase error: virtual bit alpha with Bob's X outcome gamma = 1 - alpha
    y_outer = (pbar_1x * _inner_detection_bound(stats.q, 0, c_upper.c[1], z)
               + pbar_0x * _inner_detection_bound(stats.q, 1, c_upper.c[0], z))
    y_outer = np.minimum(1.0, np.maximum(0.0, y_outer))
    return native(np.minimum(1.0, G_plus(y_outer, z) / stats.y_z))


def column_bounds(stats: ObservedStatistics, probs: ProtocolProbs,
                  c_upper: CoefficientSet, pvir_upper: Tuple[float, float],
                  eps_u: float) -> List[float]:
    """[e_ph^U of the run total] + [e_{ph,w}^U of every tag], in one pass;
    ``EmptySiftedKey`` if any entry has an empty sifted key.

    Entry 0 sums the tags' counts exactly, as Python ints. The counts are
    stacked into float arrays (``np.array(..., dtype=float)`` rounds an int
    as ``int / float`` does), so every entry is the bound its own scalar
    counts give through ``from_counts`` and ``phase_error_bound``.
    """
    tags = stats.per_tag
    if not tags:
        raise ValueError("statistics carry no per-tag counts")
    settings = list(tags[0].n_x)
    rows = [[t.n_w, t.n_det_z, t.n_err_z]
            + [c for j in settings for c in t.n_x[j]] for t in tags]
    # one row per count, one entry for the total and one per tag
    n, n_det_z, n_err_z, *n_x = np.array(
        [[sum(count) for count in zip(*rows)]] + rows, dtype=float).T
    column = ObservedStatistics.from_counts(
        n=n, n_x=dict(zip(settings, zip(n_x[::2], n_x[1::2]))),
        n_det_z=n_det_z, n_err_z=n_err_z, probs=probs)
    return phase_error_bound(column, probs, c_upper, pvir_upper,
                             eps_u).tolist()


def per_tag_bounds(stats: ObservedStatistics, probs: ProtocolProbs,
                   c_upper: CoefficientSet, pvir_upper: Tuple[float, float],
                   eps_u: float) -> List[float]:
    """e_{ph,w}^U for every tag: entries 1.. of ``column_bounds``.

    Each tag's bound is, bit for bit, the one its own scalar counts give.
    """
    return column_bounds(stats, probs, c_upper, pvir_upper, eps_u)[1:]


def secret_fraction_check(e_per_tag: Sequence[float], q_w: Sequence[float],
                          e_ph_u: float) -> Tuple[float, float, float]:
    """The entropy averaging chain (lhs, mid, rhs); callers assert lhs<=mid<=rhs.

    lhs = sum_w q_w h(e_w), mid = h(sum_w q_w e_w), rhs = h(e_ph_u), where
    q_w are the tags' shares of the sifted key (must sum to 1).
    """
    e_per_tag, q_w = as_unit(e_per_tag), as_unit(q_w)
    if abs(sum(q_w) - 1.0) > 1e-9:
        raise ValueError("tag weights must sum to 1")
    lhs = sum(q * binary_entropy(e) for q, e in zip(q_w, e_per_tag))
    mid = binary_entropy(sum(q * e for q, e in zip(q_w, e_per_tag)))
    rhs = binary_entropy(as_unit(e_ph_u))
    return (lhs, mid, rhs)


def key_rate(y_z: float, e_ph_u: float, e_bit: float,
             f: float) -> KeyRateReport:
    """R = max(0, Y_Z * [1 - h(e_ph^U) - f * h(e_bit)])."""
    if not 1.0 <= f < math.inf:
        raise ValueError(f"error-correction efficiency f = {f!r} must be "
                         f"finite and >= 1")
    # h is symmetric about 1/2, so an error bound at or beyond 1/2 means the
    # corresponding cost is maximal, not h(e) evaluated past the peak
    h_ph = binary_entropy(np.minimum(as_unit(e_ph_u), 0.5))
    h_bit = binary_entropy(np.minimum(as_unit(e_bit), 0.5))
    r = y_z * (1.0 - h_ph - f * h_bit)
    return KeyRateReport(y_z=y_z, e_bit=e_bit, e_ph_u=e_ph_u,
                         rate=native(np.maximum(0.0, r)))


#: (c^U, (pbar_1X^U, pbar_0X^U), epsilon_eff), the source side of the bound
BoundInputs = Tuple[CoefficientSet, Tuple[float, float], float]


def bound_inputs_from_source(spec: SourceSpec, protocol: str) -> BoundInputs:
    """Worst-case coefficient bounds, virtual probabilities and effective
    epsilon for a characterised source — the inputs of phase_error_bound.

    None depends on the channel: c^U and pbar_vir are set by (protocol,
    delta, Delta), epsilon_eff by (epsilon_u, l_c)."""
    proto = Protocol.named(protocol)
    ranges = PhaseRanges.from_source(spec, settings=proto.settings)
    bounds_of = {"bb84": coeff_bounds_bb84,
                 "three_state": coeff_bounds_three_state}[proto.name]
    return (bounds_of(ranges), virtual_prob_bounds(ranges),
            spec.effective_epsilon())


def evaluate_with_inputs(stats: ObservedStatistics, probs: ProtocolProbs,
                         inputs: BoundInputs, f: float) -> KeyRateReport:
    """e_ph^U -> key rate of the statistics' totals, from precomputed
    ``bound_inputs_from_source``; ``column_bounds`` bounds a run's tags."""
    e_ph = phase_error_bound(stats, probs, *inputs)
    return key_rate(stats.y_z, e_ph, stats.e_bit, f)


def evaluate_point(stats: ObservedStatistics, probs: ProtocolProbs,
                   spec: SourceSpec, protocol: str, f: float) -> KeyRateReport:
    """Full pipeline: source characterisation -> e_ph^U -> key rate."""
    return evaluate_with_inputs(stats, probs,
                                bound_inputs_from_source(spec, protocol), f)
