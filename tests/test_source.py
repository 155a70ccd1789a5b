"""Tests for the device model: phases, side-channel weights, probabilities."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qkdbound import coeffs
from qkdbound.source import (
    BB84,
    PHASE_LIMIT,
    PROTOCOLS,
    THREE_STATE,
    InconsistentProtocol,
    PhaseRanges,
    Protocol,
    ProtocolProbs,
    SETTINGS_BB84,
    SETTINGS_THREE_STATE,
    SourceSpec,
    epsilon_effective,
    exact_virtual_prob,
    virtual_prob_bounds,
)


class TestProtocolTable:
    def test_lookup(self):
        assert Protocol.named("bb84") is BB84
        assert Protocol.named("three_state") is THREE_STATE
        assert [p.name for p in PROTOCOLS] == ["bb84", "three_state"]
        assert issubclass(InconsistentProtocol, ValueError)

    @pytest.mark.parametrize("name", ["BB84", "bb-84", "three-state", "",
                                      None, ["bb84"]])
    def test_unknown_name_raises(self, name):
        with pytest.raises(InconsistentProtocol):
            Protocol.named(name)

    @pytest.mark.parametrize("proto", PROTOCOLS, ids=lambda p: p.name)
    def test_rows_use_three_settings(self, proto):
        # each row keeps both Z settings and its X reference
        for alpha in (0, 1):
            kept = {"0Z", "1Z", proto.x_ref[alpha]}
            assert kept <= set(proto.settings)

    @pytest.mark.parametrize("proto", PROTOCOLS, ids=lambda p: p.name)
    def test_require_accepts_exactly_the_settings(self, proto):
        proto.require(proto.settings, "p_j")
        proto.require(dict.fromkeys(reversed(proto.settings), 0.5), "p_j")
        other = BB84 if proto is THREE_STATE else THREE_STATE
        for names in (other.settings, proto.settings[:2], (),
                      proto.settings + ("2X",)):
            with pytest.raises(InconsistentProtocol) as err:
                proto.require(names, "p_j")
            # the message names both the protocol's settings and the given ones
            assert (f"p_j must have one entry per {proto.name} setting "
                    f"{list(proto.settings)}, got {list(names)}"
                    == str(err.value))

    def test_setting_constants_alias_the_table(self):
        assert SETTINGS_BB84 == ("0Z", "1Z", "0X", "1X") == BB84.settings
        assert SETTINGS_THREE_STATE == ("0Z", "1Z", "0X") \
            == THREE_STATE.settings


class TestEpsilonCalculus:
    def test_identity_at_zero_length(self):
        assert epsilon_effective(0.37, 0) == pytest.approx(0.37)

    def test_examples(self):
        assert epsilon_effective(0.5, 1) == pytest.approx(0.75)
        assert epsilon_effective(1e-3, 3) == pytest.approx(
            0.003994003998999962, abs=1e-15)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            epsilon_effective(0.1, -1)

    @given(st.floats(min_value=1e-6, max_value=0.5),
           st.integers(min_value=0, max_value=20))
    def test_monotone_in_length(self, eps, lc):
        assert epsilon_effective(eps, lc + 1) > epsilon_effective(eps, lc)

    @given(st.floats(min_value=0, max_value=1),
           st.floats(min_value=0, max_value=1),
           st.integers(min_value=0, max_value=10))
    def test_monotone_in_epsilon(self, e1, e2, lc):
        lo, hi = sorted((e1, e2))
        assert epsilon_effective(hi, lc) >= epsilon_effective(lo, lc) - 1e-15


class TestSourceSpec:
    def test_kappa_and_nominal_phases(self):
        spec = SourceSpec(delta=0.063)
        assert spec.kappa == pytest.approx(1 + 0.063 / math.pi)
        ph = spec.nominal_phases()
        assert ph["0Z"] == 0.0
        assert ph["1Z"] == pytest.approx(spec.kappa * math.pi)
        assert ph["0X"] == pytest.approx(spec.kappa * math.pi / 2)
        assert ph["1X"] == pytest.approx(spec.kappa * 3 * math.pi / 2)

    def test_effective_epsilon_uses_correlation_length(self):
        spec = SourceSpec(epsilon_u=1e-3, correlation_length=3)
        assert spec.effective_epsilon() == pytest.approx(1 - 0.999 ** 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            SourceSpec(epsilon_u=1.5)
        with pytest.raises(ValueError):
            SourceSpec(correlation_length=-1)
        with pytest.raises(ValueError):
            SourceSpec(Delta=-0.1)

    def test_delta_outside_pi_is_refused(self):
        # kappa in [0, 2] reaches every 1Z phase; a delta of ~1e14 used to
        # give an "upper bound" below the true phase-error rate
        for delta in (-math.pi, math.pi):
            SourceSpec(delta=delta)
        for delta in (math.nextafter(math.pi, 4), -math.nextafter(math.pi, 4),
                      4.0, 286606761694824.44, math.inf, math.nan):
            with pytest.raises(ValueError, match="delta"):
                SourceSpec(delta=delta)

    def test_correlation_length_beyond_float_range_is_refused(self):
        # (1 - eps)^(l_c + 1) used to raise "int too large to convert to
        # float" (exit 4 at the CLI)
        spec = SourceSpec(epsilon_u=1e-3, correlation_length=10 ** 308)
        assert spec.effective_epsilon() == 1.0
        with pytest.raises(ValueError, match="correlation_length"):
            SourceSpec(correlation_length=10 ** 400)

    @pytest.mark.parametrize("field", ["delta", "Delta", "epsilon_u"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError):
            SourceSpec(**{field: value})


class TestPhaseRanges:
    def test_from_source(self):
        spec = SourceSpec(delta=0.063, Delta=0.03)
        r = PhaseRanges.from_source(spec)
        ph = spec.nominal_phases()
        for j in SETTINGS_BB84:
            assert r.lo[j] == pytest.approx(ph[j] - 0.03)
            assert r.hi[j] == pytest.approx(ph[j] + 0.03)
        assert r.in_analytic_sectors()

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            PhaseRanges(lo={"0Z": 0.1}, hi={"0Z": 0.0})

    @pytest.mark.parametrize("lo, hi", [
        ({"0Z": math.nan}, {"0Z": 0.0}),
        ({"0Z": 0.0}, {"0Z": math.nan}),
        ({"0Z": -math.inf}, {"0Z": 0.0}),
        ({"0Z": 0.0}, {"0Z": math.inf}),
        ({"0Z": 0.0, "0X": 1.5}, {"0Z": 0.0}),
        ({"0Z": 0.0}, {"0Z": 0.0, "0X": 1.5}),
    ], ids=["nan_lo", "nan_hi", "inf_lo", "inf_hi", "extra_lo", "extra_hi"])
    def test_rejects_nonfinite_ends_and_unpaired_settings(self, lo, hi):
        # a NaN end passes every ordering test: a NaN 0X end would read as
        # in-sector, a NaN 0Z end give virtual probabilities (nan, nan)
        with pytest.raises(ValueError):
            PhaseRanges(lo=lo, hi=hi)

    def test_phase_limit_keeps_every_rounding_allowance_finite(self):
        # a term's argument weighs at most two phase ends, and gmath._holds
        # adds two argument ends and a turn: 4 * PHASE_LIMIT + 2 pi is finite
        heaviest = max(sum(map(abs, w)) for w in coeffs._WEIGHTS.values())
        assert heaviest == 2
        names = list(coeffs._WEIGHTS)
        ends = (np.array([-PHASE_LIMIT]), np.array([PHASE_LIMIT]))
        values, slopes = coeffs._term_ranges(names, [ends] * 3,
                                             [PHASE_LIMIT] * 3)
        assert np.isfinite(values).all() and np.isfinite(slopes).all()
        PhaseRanges(lo={"0Z": -PHASE_LIMIT}, hi={"0Z": PHASE_LIMIT})
        with pytest.raises(ValueError, match="within"):
            PhaseRanges(lo={"0Z": 0.0},
                        hi={"0Z": math.nextafter(PHASE_LIMIT, math.inf)})

    def test_rejects_settings_without_a_sector(self):
        # used to pass, then fail in in_analytic_sectors with KeyError: '2X'
        with pytest.raises(ValueError, match="unknown settings"):
            PhaseRanges(lo={"2X": 0.0}, hi={"2X": 0.0})

    def test_sector_check(self):
        r = PhaseRanges(lo={"0Z": -1.0}, hi={"0Z": 1.0})
        assert not r.in_analytic_sectors()


class TestProtocolProbs:
    def test_uniform(self):
        p = ProtocolProbs.uniform(SETTINGS_BB84)
        assert sum(p.p_j.values()) == pytest.approx(1.0)
        assert p.p_xb == pytest.approx(0.5)

    def test_rejects_unbalanced_z_settings(self):
        with pytest.raises(ValueError):
            ProtocolProbs(p_zb=0.5,
                          p_j={"0Z": 0.4, "1Z": 0.3, "0X": 0.2, "1X": 0.1})

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            ProtocolProbs(p_zb=0.5, p_j={"0Z": 0.3, "1Z": 0.3})

    @pytest.mark.parametrize("p_zb, p_j", [
        (1.0, {"0Z": 0.25, "1Z": 0.25, "0X": 0.25, "1X": 0.25}),
        (0.0, {"0Z": 0.25, "1Z": 0.25, "0X": 0.25, "1X": 0.25}),
        (0.5, {"0Z": 0.25, "1Z": 0.25, "0X": 0.5, "1X": 0.0}),
        (0.5, {"0Z": 0.3, "1Z": 0.3, "0X": 0.5, "1X": -0.1}),
    ], ids=["p_zb_one", "p_zb_zero", "p_j_zero", "p_j_negative"])
    def test_rejects_probabilities_the_estimates_divide_by(self, p_zb, p_j):
        # from_counts divides by p_j * p_xb and by p_zb
        with pytest.raises(ValueError):
            ProtocolProbs(p_zb=p_zb, p_j=p_j)

    def test_rejects_nan_setting_probability(self):
        with pytest.raises(ValueError):
            ProtocolProbs(p_zb=0.5,
                          p_j={"0Z": 0.25, "1Z": 0.25, "0X": math.nan})


class TestVirtualProbs:
    @given(st.floats(min_value=-3, max_value=3),
           st.floats(min_value=-3, max_value=3))
    def test_overlap_is_half_angle_cosine(self, a, b):
        # |<w|w'>| for cos(t/2)|0> + sin(t/2)|1> states
        va = np.array([math.cos(a / 2), math.sin(a / 2)])
        vb = np.array([math.cos(b / 2), math.sin(b / 2)])
        assert float(va @ vb) == pytest.approx(math.cos((a - b) / 2), abs=1e-12)

    def test_ideal_point_ranges(self):
        r = PhaseRanges(lo={"0Z": 0.0, "1Z": math.pi},
                        hi={"0Z": 0.0, "1Z": math.pi})
        assert virtual_prob_bounds(r) == pytest.approx((0.5, 0.5))

    def test_degenerate_ranges(self):
        r = PhaseRanges(lo={"0Z": 0.0, "1Z": 0.0}, hi={"0Z": 0.0, "1Z": 0.0})
        assert virtual_prob_bounds(r) == pytest.approx((0.0, 1.0))

    def test_fluctuation_ranges_oracle(self):
        # maxima of (1 -+ cos((t0 - t1)/2))/2 over t0 in [-.03,.03],
        # t1 in [pi-.03, pi+.03], frozen from grid maximization
        r = PhaseRanges(lo={"0Z": -0.03, "1Z": math.pi - 0.03},
                        hi={"0Z": 0.03, "1Z": math.pi + 0.03})
        p1, p0 = virtual_prob_bounds(r)
        # both extremes sit at (t0 - t1)/2 = -pi/2 +- 0.03, giving
        # (1 + sin 0.03)/2 for each bound
        assert p1 == pytest.approx(0.5149977501012478, abs=1e-12)
        assert p0 == pytest.approx(0.5149977501012478, abs=1e-12)

    def test_bounds_dominate_exact_values(self):
        rng = np.random.default_rng(42)
        r = PhaseRanges(lo={"0Z": -0.05, "1Z": math.pi - 0.02},
                        hi={"0Z": 0.07, "1Z": math.pi + 0.09})
        p1u, p0u = virtual_prob_bounds(r)
        t0 = rng.uniform(r.lo["0Z"], r.hi["0Z"], 10_000)
        t1 = rng.uniform(r.lo["1Z"], r.hi["1Z"], 10_000)
        for a, b in zip(t0, t1):
            assert exact_virtual_prob(a, b, 1) <= p1u + 1e-12
            assert exact_virtual_prob(a, b, 0) <= p0u + 1e-12

    @pytest.mark.parametrize("cap_delta", [0.0, 0.03, 0.3, 1.0])
    def test_bounds_are_the_maxima_over_the_ranges(self, cap_delta):
        # dense samples of (theta_0Z, theta_1Z) for sources across
        # delta in [-pi, pi]: each bound holds every sampled pbar and lies
        # within the sampling step of their maximum, also where the range
        # of (theta_0Z - theta_1Z)/2 crosses an extremum of cos
        for delta in np.linspace(-math.pi, math.pi, 61):
            r = PhaseRanges.from_source(SourceSpec(delta=delta, Delta=cap_delta))
            t0 = np.linspace(r.lo["0Z"], r.hi["0Z"], 101)[:, None]
            t1 = np.linspace(r.lo["1Z"], r.hi["1Z"], 101)
            cos_u = np.cos((t0 - t1) / 2.0)
            for bound, sampled in zip(virtual_prob_bounds(r),
                                      (0.5 * (1.0 - cos_u), 0.5 * (1.0 + cos_u))):
                assert sampled.max() <= bound + 1e-12, delta
                assert bound - sampled.max() <= 1e-4, delta
