"""Device model: encoding phases, side-channel weights and protocol probabilities.

Alice's qubit emission for setting j is cos(theta_j/2)|0_Z> + sin(theta_j/2)|1_Z>,
an XZ-plane state. Systematic state-preparation flaws shift the nominal phases
by the factor kappa = 1 + delta/pi, and per-round fluctuations keep the exact
phase inside [theta_hat_j - Delta, theta_hat_j + Delta]. Everything the bound
needs about side channels (Trojan-horse light, mode dependence, pulse
correlations) is collapsed into the single weight epsilon_u in [0, 1].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .gmath import as_unit, trig_range


class InconsistentProtocol(ValueError):
    """Protocol name or setting list does not match the protocol table."""


@dataclass(frozen=True)
class Protocol:
    """One protocol variant of the shared virtual-state decomposition.

    ``settings`` lists the emitted states in canonical order. Indexed by the
    virtual bit alpha, ``x_ref`` names the X reference of row alpha: the row
    decomposes its virtual state over 0Z, 1Z and that setting, and gives
    every other setting the coefficient 0. It is the one fact in which the
    variants differ.
    """

    name: str
    settings: Tuple[str, ...]
    x_ref: Tuple[str, str]

    @classmethod
    def named(cls, name: str) -> "Protocol":
        """The table entry called ``name``; InconsistentProtocol otherwise."""
        for proto in PROTOCOLS:
            if proto.name == name:
                return proto
        raise InconsistentProtocol(f"unknown protocol {name!r}; expected one "
                                   f"of {[p.name for p in PROTOCOLS]}")

    def require(self, names, what: str) -> None:
        """InconsistentProtocol unless ``names`` (a settings map's keys) are
        exactly this protocol's settings; ``what`` names the map."""
        if set(names) != set(self.settings):
            raise InconsistentProtocol(
                f"{what} must have one entry per {self.name} setting "
                f"{list(self.settings)}, got {list(names)}")


#: The protocol table. Each bb84 row takes the X state of its own bit as
#: reference; the three-state variant has no 1X emission, so both rows take 0X.
BB84 = Protocol("bb84", ("0Z", "1Z", "0X", "1X"), x_ref=("0X", "1X"))
THREE_STATE = Protocol("three_state", ("0Z", "1Z", "0X"), x_ref=("0X", "0X"))
PROTOCOLS = (BB84, THREE_STATE)
SETTINGS_BB84, SETTINGS_THREE_STATE = BB84.settings, THREE_STATE.settings

#: Sectors within which the analytic corner bounds are valid
#: (a +-pi/6-style neighbourhood of each ideal phase).
ANALYTIC_SECTORS = {
    "0Z": (-math.pi / 6, math.pi / 6),
    "1Z": (5 * math.pi / 6, 7 * math.pi / 6),
    "0X": (math.pi / 3, 2 * math.pi / 3),
    "1X": (4 * math.pi / 3, 5 * math.pi / 3),
}


def epsilon_effective(eps_prime: float, l_c: int) -> float:
    """Effective side-channel weight under length-l_c pulse correlations.

    epsilon_u = 1 - (1 - eps_prime)^(l_c + 1); reduces to eps_prime at l_c = 0.
    """
    if l_c < 0:
        raise ValueError("correlation length must be nonnegative")
    eps_prime = as_unit(eps_prime)
    return 1.0 - (1.0 - eps_prime) ** (l_c + 1)


#: the largest |phase end| whose rounding allowances stay finite: a term's
#: argument weighs at most two phase ends (coeffs._WEIGHTS), and
#: gmath._holds adds the magnitudes of two argument ends and a turn, so no
#: sum exceeds 4 * max / 8 + 2 pi, which is finite; NaN fails the comparison
PHASE_LIMIT = sys.float_info.max / 8


@dataclass(frozen=True)
class PhaseRanges:
    """Per-setting encoding-phase intervals [lo_j, hi_j] in radians."""

    lo: Dict[str, float]
    hi: Dict[str, float]

    def __post_init__(self):
        if self.lo.keys() != self.hi.keys():
            raise ValueError(f"lo and hi name different settings: "
                             f"{sorted(self.lo)} and {sorted(self.hi)}")
        unknown = self.lo.keys() - ANALYTIC_SECTORS.keys()
        if unknown:
            raise InconsistentProtocol(f"unknown settings {sorted(unknown)}; "
                                       f"expected {list(ANALYTIC_SECTORS)}")
        for j in self.lo:
            if not -PHASE_LIMIT <= self.lo[j] <= self.hi[j] <= PHASE_LIMIT:
                raise ValueError(f"phase range of setting {j} must be finite"
                                 f" and nonempty, within +-{PHASE_LIMIT!r}:"
                                 f" [{self.lo[j]}, {self.hi[j]}]")

    def in_analytic_sectors(self) -> bool:
        """True when every interval sits inside its analytic-bound sector."""
        for j in self.lo:
            s_lo, s_hi = ANALYTIC_SECTORS[j]
            if self.lo[j] < s_lo - 1e-12 or self.hi[j] > s_hi + 1e-12:
                return False
        return True

    @classmethod
    def from_source(cls, spec: "SourceSpec",
                    settings: Tuple[str, ...] = SETTINGS_BB84) -> "PhaseRanges":
        """Ranges theta_hat_j +- Delta around the flawed nominal phases."""
        nominal = spec.nominal_phases()
        lo = {j: nominal[j] - spec.Delta for j in settings}
        hi = {j: nominal[j] + spec.Delta for j in settings}
        return cls(lo=lo, hi=hi)


@dataclass(frozen=True)
class SourceSpec:
    """Source imperfection parameters.

    delta: systematic phase deviation (radians), enters via kappa = 1 + delta/pi.
    Delta: half-width of the per-round phase fluctuation (radians).
    epsilon_u: side-channel weight upper bound, already composed from all
        side channels but *before* the correlation-length exponentiation.
    correlation_length: number of previous settings influencing a pulse (l_c).
    """

    delta: float = 0.0
    Delta: float = 0.0
    epsilon_u: float = 0.0
    correlation_length: int = 0

    def __post_init__(self):
        as_unit(self.epsilon_u)
        if self.correlation_length < 0:
            raise ValueError("correlation length must be nonnegative")
        # epsilon_effective raises to the power l_c + 1, which must be a float
        if self.correlation_length > sys.float_info.max:
            raise ValueError(f"correlation_length = {self.correlation_length}"
                             f" exceeds the float range")
        # kappa = 1 + delta/pi in [0, 2] reaches every 1Z phase; beyond it,
        # phases of size ~1e14 lose whole fractions of a radian to rounding
        if not abs(self.delta) <= math.pi:  # NaN too
            raise ValueError(f"delta = {self.delta!r} must lie in [-pi, pi]")
        if not 0.0 <= self.Delta < math.inf:
            raise ValueError(f"Delta = {self.Delta!r} must be finite and "
                             f"nonnegative")

    @property
    def kappa(self) -> float:
        return 1.0 + self.delta / math.pi

    def nominal_phases(self) -> Dict[str, float]:
        """theta_hat = (0, kappa*pi, kappa*pi/2, kappa*3pi/2) for (0Z, 1Z, 0X, 1X)."""
        k = self.kappa
        return {
            "0Z": 0.0,
            "1Z": k * math.pi,
            "0X": k * math.pi / 2.0,
            "1X": k * 3.0 * math.pi / 2.0,
        }

    def effective_epsilon(self) -> float:
        """epsilon_u after the correlation-length penalty."""
        return epsilon_effective(self.epsilon_u, self.correlation_length)


@dataclass(frozen=True)
class ProtocolProbs:
    """Setting and basis probabilities of one protocol run."""

    p_zb: float
    p_j: Dict[str, float]
    p_xb: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "p_xb", 1.0 - self.p_zb)
        # the count estimates divide by p_zb, p_xb and every p_j
        if not (0.0 < self.p_zb < 1.0
                and all(p > 0.0 for p in self.p_j.values())):
            raise ValueError(f"need p_zb in (0, 1) and every p_j > 0; "
                             f"got {self.p_zb!r}, {self.p_j}")
        total = sum(self.p_j.values())
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"setting probabilities sum to {total}, expected 1")
        if not abs(self.p_j.get("0Z", 0.0) - self.p_j.get("1Z", 0.0)) <= 1e-12:
            raise ValueError("the two Z-basis settings must be equiprobable")

    @classmethod
    def uniform(cls,
                settings: Tuple[str, ...] = SETTINGS_BB84) -> "ProtocolProbs":
        n = len(settings)
        return cls(p_zb=0.5, p_j={j: 1.0 / n for j in settings})


def exact_virtual_prob(th0z: float, th1z: float, alpha: int) -> float:
    """Exact normalised virtual-state weight for given Z phases.

    pbar_alphaX = (1 + (-1)^alpha * cos((theta_0Z - theta_1Z)/2)) / 2,
    using <omega|omega'> = cos((theta - theta')/2) for XZ-plane states.
    """
    sign = 1.0 if alpha == 0 else -1.0
    return 0.5 * (1.0 + sign * math.cos((th0z - th1z) / 2.0))


def virtual_prob_bounds(ranges: PhaseRanges) -> Tuple[float, float]:
    """Worst-case normalised virtual probabilities over the Z phase ranges.

    Returns (pbar_1X_upper, pbar_0X_upper): the exact maxima of
    (1 -+ cos u)/2 over the range of u = (theta_0Z - theta_1Z)/2, which is
    1 where that range holds an extremum of cos. The Z-basis prefactor p_ZA
    is divided out; the bound assembly only ever uses the ratio.
    """
    low, high = trig_range(np.cos, (ranges.lo["0Z"] - ranges.hi["1Z"]) / 2.0,
                           (ranges.hi["0Z"] - ranges.lo["1Z"]) / 2.0)
    return (0.5 * (1.0 - low), 0.5 * (1.0 + high))
