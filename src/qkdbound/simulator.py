"""Honest-channel simulator and ground-truth oracle.

The channel model: Alice emits the nominal single-photon qubit for her chosen
setting; the line has transmittance eta = 10^(-loss_db/10) with all detector
inefficiency folded in; Bob uses two threshold detectors with independent
dark-count probability p_d per gate. The photon reaches detector gamma with
probability eta * q_gamma (q_gamma the Born probability of outcome gamma) or
is lost; exclusive clicks yield their bit, double clicks are assigned
1/2 - 1/2, and no click is a failure. Outcome probabilities are affine in the
input state, which keeps the honest channel inside the class of measurements
the decomposition bound is proven against.

Source imperfections (Delta fluctuations, side channels) deliberately do not
perturb the simulated data — they are small and enter the analysis only
through the bound's worst-case parameters, so the simulation plays the role
of the unknown honest channel the bound must dominate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from .bounds import ObservedStatistics, TagCounts
from .gmath import native
from .source import BB84, Protocol, ProtocolProbs, SourceSpec

#: Identifier recorded in output metadata so results declare their channel model.
CHANNEL_MODEL_ID = "single-photon-routing-darkcounts-v1"

#: Largest run the multinomial sampler accepts: its counts are int64.
MAX_ROUNDS = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ChannelParams:
    """Honest-channel parameters (system loss, dark counts, misalignment)."""

    loss_db: float
    p_d: float = 1e-8
    theta_mis: float = 0.0
    f: float = 1.16

    def __post_init__(self):
        if not 0.0 <= self.loss_db < math.inf:
            raise ValueError(f"loss {self.loss_db!r} dB must be finite and "
                             f"nonnegative")
        if not 0.0 <= self.p_d <= 1.0:
            raise ValueError("dark-count probability must be in [0, 1]")
        if not 1.0 <= self.f < math.inf:
            raise ValueError(f"f = {self.f!r} must be finite and >= 1")

    @property
    def eta(self) -> float:
        return 10.0 ** (-self.loss_db / 10.0)


@dataclass(frozen=True)
class ChannelColumn:
    """Channels that differ only in loss: the loss axis of a sweep.

    It stands in for ``ChannelParams`` wherever the channel enters
    (``detection_probs``, ``simulate_asymptotic``), and every probability
    derived from it is an array with one entry per loss. Each loss is a
    validated ``ChannelParams`` whose own ``eta`` the column collects, so
    an entry is bit-for-bit the scalar channel's (``np.power`` over the
    losses differs from ``10.0 ** x`` in the last bit at some of them).
    """

    channels: Tuple[ChannelParams, ...]

    def __post_init__(self):
        if not self.channels:
            raise ValueError("a channel column needs at least one loss")
        if len({(c.p_d, c.theta_mis, c.f) for c in self.channels}) != 1:
            raise ValueError("the channels of a column may differ only in "
                             "loss")

    @classmethod
    def of_losses(cls, losses: Sequence[float], **params) -> "ChannelColumn":
        """One ``ChannelParams(loss_db=loss, **params)`` per loss."""
        return cls(tuple(ChannelParams(loss_db=loss, **params)
                         for loss in losses))

    @cached_property
    def eta(self) -> np.ndarray:
        return np.array([c.eta for c in self.channels])

    @property
    def p_d(self) -> float:
        return self.channels[0].p_d

    @property
    def theta_mis(self) -> float:
        return self.channels[0].theta_mis


@dataclass(frozen=True)
class RunConfig:
    """Finite-run parameters: rounds, seed, tagging period and protocol."""

    n: int
    seed: int
    l_c: int
    protocol: str
    probs: ProtocolProbs

    def __post_init__(self):
        Protocol.named(self.protocol)
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed} must be nonnegative")
        if self.l_c < 0:
            raise ValueError("correlation length must be nonnegative")
        if self.n < self.l_c + 1:
            raise ValueError("need at least l_c + 1 rounds")
        if self.n > MAX_ROUNDS:
            raise ValueError(f"n = {self.n} rounds exceeds the sampler's "
                             f"limit of {MAX_ROUNDS} (int64)")

    def settings(self) -> Tuple[str, ...]:
        return Protocol.named(self.protocol).settings


def detection_probs(theta_j: float, basis: str,
                    ch: ChannelParams | ChannelColumn) -> Tuple:
    """(p_gamma0, p_gamma1, p_fail) for Bob measuring ``basis`` on the qubit.

    Floats for a ``ChannelParams``, arrays over the losses for a
    ``ChannelColumn``.

    Born probabilities of the XZ-plane state cos(theta'/2)|0> + sin(theta'/2)|1>
    are (1 +- cos theta')/2 in Z and (1 +- sin theta')/2 in X, with
    theta' = theta_j + theta_mis.
    """
    theta = theta_j + ch.theta_mis
    if basis == "Z":
        q0 = (1.0 + math.cos(theta)) / 2.0
    elif basis == "X":
        q0 = (1.0 + math.sin(theta)) / 2.0
    else:
        raise ValueError(f"unknown basis {basis!r}")
    q1 = 1.0 - q0
    eta, pd = ch.eta, ch.p_d
    # detector gamma clicks if the photon reaches it or it dark-counts
    only0 = eta * q0 * (1.0 - pd) + (1.0 - eta) * pd * (1.0 - pd)
    only1 = eta * q1 * (1.0 - pd) + (1.0 - eta) * pd * (1.0 - pd)
    both = eta * pd + (1.0 - eta) * pd * pd
    p_fail = (1.0 - eta) * (1.0 - pd) ** 2
    return (only0 + 0.5 * both, only1 + 0.5 * both, p_fail)


def simulate_asymptotic(spec: SourceSpec, probs: ProtocolProbs,
                        ch: ChannelParams | ChannelColumn,
                        protocol: str = BB84.name) -> ObservedStatistics:
    """Exact conditional detection statistics in the efficient-scheme limit.

    q[j] are X-basis outcome probabilities conditioned on setting j; y_z and
    e_bit come from Z emissions measured in Z. Basis-choice probabilities
    drop out of all conditionals, matching p_ZA, p_ZB -> 1. For a
    ``ChannelColumn`` every statistic is an array over its losses.
    """
    nominal = spec.nominal_phases()
    q = {}
    for j in Protocol.named(protocol).settings:
        p0, p1, _ = detection_probs(nominal[j], "X", ch)
        q[j] = (p0, p1)
    y_z = 0.0
    wrong = 0.0
    for bit, j in enumerate(("0Z", "1Z")):
        p0, p1, p_fail = detection_probs(nominal[j], "Z", ch)
        y_z += 0.5 * (1.0 - p_fail)
        wrong += 0.5 * (p1 if bit == 0 else p0)
    with np.errstate(divide="ignore", invalid="ignore"):
        e_bit = native(np.where(y_z > 0, np.divide(wrong, y_z), 0.0))
    return ObservedStatistics(q=q, y_z=y_z, e_bit=e_bit)


def _cell_probs(cfg: RunConfig, spec: SourceSpec,
                ch: ChannelParams) -> np.ndarray:
    """Per-round probabilities of the (setting, Bob's basis, outcome) cells.

    Indexed [setting, basis (Z=0, X=1), outcome (gamma=0, gamma=1, no
    click)]; entry p_j * p_basis * P(outcome | setting, basis).
    """
    nominal = spec.nominal_phases()
    settings = cfg.settings()
    p_j = np.array([cfg.probs.p_j[j] for j in settings])
    p_basis = np.array([cfg.probs.p_zb, cfg.probs.p_xb])
    outcome = np.array([[detection_probs(nominal[j], basis, ch)
                         for basis in ("Z", "X")] for j in settings])
    # ProtocolProbs lets p_j sum to 1 within 1e-9, numpy's multinomial
    # within 1e-12: renormalise
    p_j /= p_j.sum()
    return p_j[:, None, None] * p_basis[None, :, None] * outcome


def simulate_finite(cfg: RunConfig, spec: SourceSpec,
                    ch: ChannelParams) -> ObservedStatistics:
    """Seeded finite protocol run with per-tag bookkeeping.

    Round k gets tag w = k mod (l_c + 1), so the leading n mod (l_c + 1)
    tags hold one extra round. Rounds are i.i.d. (source flaws do not
    perturb the data), hence each tag's counts are exactly
    Multinomial(n_w, p) over the (setting, basis, outcome) cells: one draw
    per tag costs O(cells), independent of N. Deterministic for a fixed
    (seed, config) pair. Returned statistics include per-tag counts.
    """
    settings = cfg.settings()
    n_tags = cfg.l_c + 1
    base, extra = divmod(cfg.n, n_tags)
    n_w = [base + (w < extra) for w in range(n_tags)]
    cells = _cell_probs(cfg, spec, ch)
    rng = np.random.default_rng(cfg.seed)
    counts = rng.multinomial(n_w, cells.ravel()).reshape(
        (n_tags,) + cells.shape)

    n_x = counts[:, :, 1, :2].tolist()  # Bob in X, outcome gamma
    # Alice in Z and Bob in Z, rows (0Z, 1Z) x (gamma=0, gamma=1)
    zz = counts[:, [settings.index("0Z"), settings.index("1Z")], 0, :2]
    n_det_z = zz.sum(axis=(1, 2)).tolist()
    n_err_z = (zz[:, 0, 1] + zz[:, 1, 0]).tolist()
    per_tag = [
        TagCounts(w=w, n_w=n_w[w],
                  n_x={j: tuple(n_x[w][si]) for si, j in enumerate(settings)},
                  n_det_z=n_det_z[w], n_err_z=n_err_z[w])
        for w in range(n_tags)
    ]
    return ObservedStatistics.from_tags(cfg.n, per_tag, cfg.probs)


def true_virtual_error_rate(spec: SourceSpec, ch: ChannelParams) -> float:
    """Exact phase-error rate of the virtual protocol on this honest channel.

    The virtual state for bit alpha is the normalised superposition
    (|0Z> + (-1)^alpha |1Z>)/norm of the nominal Z emissions; a phase error
    is Bob's X outcome disagreeing with alpha. Serves as the ground truth
    the computed upper bound must dominate.
    """
    nominal = spec.nominal_phases()
    th0, th1 = nominal["0Z"], nominal["1Z"]
    num = den = 0.0
    for alpha in (0, 1):
        sign = 1.0 if alpha == 0 else -1.0
        pbar = 0.5 * (1.0 + sign * math.cos((th0 - th1) / 2.0))
        if pbar <= 0.0:
            continue
        v = np.array([math.cos(th0 / 2), math.sin(th0 / 2)])
        v = v + sign * np.array([math.cos(th1 / 2), math.sin(th1 / 2)])
        theta_vir = 2.0 * math.atan2(v[1], v[0])
        p0, p1, p_fail = detection_probs(theta_vir, "X", ch)
        num += pbar * (p0 if alpha == 1 else p1)
        den += pbar * (1.0 - p_fail)
    return num / den if den > 0 else 0.0
