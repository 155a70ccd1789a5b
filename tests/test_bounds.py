"""Tests for the phase-error bound assembly and key-rate formula."""

import dataclasses
import math

import pytest

from qkdbound.bounds import (
    EmptySiftedKey,
    InconsistentProtocol,
    ObservedStatistics,
    TagCounts,
    bound_inputs_from_source,
    evaluate_point,
    key_rate,
    per_tag_bounds,
    phase_error_bound,
    secret_fraction_check,
)
from qkdbound.coeffs import CoefficientSet
from qkdbound.source import ProtocolProbs, SETTINGS_BB84, SourceSpec

IDEAL_C = CoefficientSet(protocol="bb84", c={
    1: {"0Z": 0.0, "1Z": 0.0, "0X": 0.0, "1X": 1.0},
    0: {"0Z": 0.0, "1Z": 0.0, "0X": 1.0, "1X": 0.0},
})
PROBS = ProtocolProbs.uniform(SETTINGS_BB84)


def make_stats(q1x0=0.0, q0x1=0.0, y_z=0.5, e_bit=0.0):
    q = {"0Z": (0.2, 0.2), "1Z": (0.2, 0.2),
         "0X": (0.4, q0x1), "1X": (q1x0, 0.4)}
    return ObservedStatistics(q=q, y_z=y_z, e_bit=e_bit)


class TestPhaseErrorBound:
    def test_z_one_collapse_reduces_to_mismatch_statistic(self):
        # eps = 0 makes both G layers the identity, so e_ph is exactly the
        # coefficient-weighted X-basis mismatch over the sifted yield
        stats = make_stats(q1x0=0.02, q0x1=0.04)
        e = phase_error_bound(stats, PROBS, IDEAL_C, (0.5, 0.5), 0.0)
        assert e == pytest.approx((0.5 * 0.02 + 0.5 * 0.04) / 0.5, abs=1e-12)

    def test_no_clicks_no_phase_errors(self):
        q = {j: (0.0, 0.0) for j in SETTINGS_BB84}
        stats = ObservedStatistics(q=q, y_z=0.5, e_bit=0.0)
        e = phase_error_bound(stats, PROBS, IDEAL_C, (0.5, 0.5), 0.0)
        assert e == 0.0

    def test_empty_sifted_key(self):
        stats = make_stats(y_z=0.0)
        with pytest.raises(EmptySiftedKey):
            phase_error_bound(stats, PROBS, IDEAL_C, (0.5, 0.5), 0.0)

    def test_missing_setting_raises(self):
        q = {"0Z": (0.1, 0.1), "1Z": (0.1, 0.1), "0X": (0.1, 0.1)}
        stats = ObservedStatistics(q=q, y_z=0.5, e_bit=0.0)
        with pytest.raises(InconsistentProtocol):
            phase_error_bound(stats, PROBS, IDEAL_C, (0.5, 0.5), 0.0)

    def test_result_clamped_to_unit(self):
        stats = make_stats(q1x0=0.9, q0x1=0.9, y_z=0.01)
        e = phase_error_bound(stats, PROBS, IDEAL_C, (0.5, 0.5), 0.1)
        assert e == 1.0

    def test_monotone_in_epsilon(self):
        stats = make_stats(q1x0=0.01, q0x1=0.01, y_z=0.5)
        values = [phase_error_bound(stats, PROBS, IDEAL_C, (0.5, 0.5), eps)
                  for eps in (0.0, 1e-6, 1e-4, 1e-3, 1e-2)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("eps", [math.nan, -0.1])
    def test_rejects_epsilon_outside_unit_interval(self, eps):
        # the G kernels do not check z = sqrt(1 - eps); this is the boundary
        with pytest.raises(ValueError):
            phase_error_bound(make_stats(), PROBS, IDEAL_C, (0.5, 0.5), eps)


class TestObservedStatistics:
    def test_from_counts_clamps_noisy_estimates(self):
        n_x = {j: (200_000, 0) for j in SETTINGS_BB84}  # exceeds n*p_j*p_xb
        stats = ObservedStatistics.from_counts(
            n=1_000_000, n_x=n_x, n_det_z=100, n_err_z=1, probs=PROBS)
        assert all(stats.q[j][0] == 1.0 for j in SETTINGS_BB84)
        assert stats.e_bit == pytest.approx(0.01)

    @pytest.mark.parametrize("q", [-0.5, 1.5, math.nan])
    def test_rejects_q_outside_unit_interval(self, q):
        # from_counts clamps its estimates, so only float noise is tolerated
        with pytest.raises(ValueError):
            ObservedStatistics(q={"0Z": (q, 0.0)}, y_z=0.5, e_bit=0.0)

    def test_from_tags_sums_the_tags(self):
        tags = [TagCounts(w=w, n_w=500, n_x={"0Z": (w, 2 * w), "1Z": (w, 1)},
                          n_det_z=10 + w, n_err_z=w) for w in range(3)]
        probs = ProtocolProbs(p_zb=0.5, p_j={"0Z": 0.5, "1Z": 0.5})
        stats = ObservedStatistics.from_tags(1500, tags, probs)
        assert stats.per_tag == tags
        # replace() rebuilds from the constructor fields, without the tags
        assert dataclasses.replace(stats) == ObservedStatistics.from_counts(
            n=1500, n_x={"0Z": (3, 6), "1Z": (3, 3)}, n_det_z=33, n_err_z=3,
            probs=probs)

    @pytest.mark.parametrize("settings, odd", [
        ([SETTINGS_BB84, ("0Z",)], 1), ([("0Z",), SETTINGS_BB84], 0)],
        ids=["later_tag_short", "first_tag_short"])
    def test_from_tags_refuses_settings_other_than_the_runs(self, settings,
                                                            odd):
        # the totals used to be summed over tag 0's settings: a KeyError when
        # a later tag lacked one, and settings dropped when tag 0 did
        tags = [TagCounts(w=w, n_w=500, n_x={j: (1, 2) for j in names},
                          n_det_z=10, n_err_z=1)
                for w, names in enumerate(settings)]
        with pytest.raises(InconsistentProtocol) as exc:
            ObservedStatistics.from_tags(1000, tags, PROBS)
        assert str(exc.value) == \
            f"tag {odd}: n_x names {list(settings[odd])}, not probs.p_j's"

    def test_partition_validated(self):
        tags = [TagCounts(w=0, n_w=10, n_x={"0Z": (0, 0)}, n_det_z=1,
                          n_err_z=0)]
        probs = ProtocolProbs(p_zb=0.5, p_j={"0Z": 0.5, "1Z": 0.5})
        with pytest.raises(ValueError):
            ObservedStatistics.from_tags(99, tags, probs)

    @pytest.mark.parametrize("build", [
        lambda tags: ObservedStatistics(q={"0Z": (0.0, 0.0)}, y_z=0.5,
                                        e_bit=0.0, n=10, per_tag=tags),
        lambda tags: ObservedStatistics.from_counts(
            n=10, n_x={"0Z": (0, 0)}, n_det_z=1, n_err_z=0, probs=PROBS,
            per_tag=tags),
    ], ids=["constructor", "from_counts"])
    def test_tags_enter_only_through_from_tags(self, build):
        tags = [TagCounts(w=0, n_w=10, n_x={"0Z": (0, 0)}, n_det_z=1,
                          n_err_z=0)]
        with pytest.raises(TypeError):
            build(tags)

    @pytest.mark.parametrize("off", [-1, 1])
    def test_from_tags_refuses_other_n_as_bound_reports_it(self, off):
        tags = [TagCounts(w=w, n_w=500, n_x={"0Z": (1, 2)}, n_det_z=10,
                          n_err_z=1) for w in range(2)]
        with pytest.raises(ValueError) as exc:
            ObservedStatistics.from_tags(1000 + off, tags, PROBS)
        assert str(exc.value) == f"tag sizes n_w do not sum to n = {1000 + off}"

    # one impossible tag per rule; each used to be built, and bounded
    @pytest.mark.parametrize("fields, message", [
        (dict(n_x={"0Z": (-1, 2)}), "tag 3: negative count"),
        (dict(n_err_z=-1), "tag 3: negative count"),
        (dict(n_w=0, n_x={"0Z": (0, 0)}, n_det_z=0, n_err_z=0),
         "tag 3: no rounds (n_w = 0)"),
        (dict(n_err_z=11), "tag 3: n_err_z = 11 exceeds n_det_z = 10"),
        (dict(n_x={"0Z": (400, 91)}),
         "tag 3: X-basis and sifted counts exceed n_w = 500"),
    ], ids=["negative_x", "negative_err", "no_rounds", "errors_above_sifted",
            "x_plus_sifted_above_n_w"])
    def test_tag_counts_refuse_an_impossible_tag(self, fields, message):
        good = dict(w=3, n_w=500, n_x={"0Z": (400, 90)}, n_det_z=10,
                    n_err_z=1)
        TagCounts(**good)
        with pytest.raises(ValueError) as exc:
            TagCounts(**dict(good, **fields))
        assert str(exc.value) == message

    def test_from_tags_refuses_an_empty_list(self):
        with pytest.raises(ValueError) as exc:
            ObservedStatistics.from_tags(0, [], PROBS)
        assert str(exc.value) == "a tagged run needs at least one tag block"

    @pytest.mark.parametrize("order", [[1, 0], [0, 0], [0, 2]])
    def test_from_tags_refuses_tags_out_of_order(self, order):
        tags = [TagCounts(w=w, n_w=500, n_x={"0Z": (1, 2)}, n_det_z=10,
                          n_err_z=1) for w in order]
        position = next(i for i, w in enumerate(order) if i != w)
        with pytest.raises(ValueError) as exc:
            ObservedStatistics.from_tags(1000, tags, PROBS)
        assert str(exc.value) == \
            f"tag block {position} has w = {order[position]}"

    def test_y_z_above_one_is_refused(self):
        # from_counts clamps y_z, so only a direct build can pass one
        ObservedStatistics(q={"0Z": (0.0, 0.0)}, y_z=1.0 + 1e-9, e_bit=0.0)
        with pytest.raises(ValueError, match="is not a probability"):
            ObservedStatistics(q={"0Z": (0.0, 0.0)}, y_z=1.0 + 2e-9,
                               e_bit=0.0)


class TestPerTag:
    def _tag(self, w, n_w, k0, n_det, n_err):
        n_x = {j: (k0, k0) for j in SETTINGS_BB84}
        return TagCounts(w=w, n_w=n_w, n_x=n_x, n_det_z=n_det, n_err_z=n_err)

    def test_single_tag_equals_aggregate(self):
        tags = [self._tag(0, 1_000_000, 500, 125_000, 100)]
        stats = ObservedStatistics.from_tags(1_000_000, tags, PROBS)
        agg = phase_error_bound(stats, PROBS, IDEAL_C, (0.5, 0.5), 1e-4)
        per = per_tag_bounds(stats, PROBS, IDEAL_C, (0.5, 0.5), 1e-4)
        assert per == [pytest.approx(agg, abs=1e-15)]

    def test_identical_tags_give_equal_bounds(self):
        tags = [self._tag(w, 500_000, 250, 62_500, 50) for w in range(2)]
        stats = ObservedStatistics.from_tags(1_000_000, tags, PROBS)
        per = per_tag_bounds(stats, PROBS, IDEAL_C, (0.5, 0.5), 1e-4)
        assert per[0] == pytest.approx(per[1], abs=1e-15)

    def test_untagged_statistics_are_refused(self):
        stats = ObservedStatistics.from_counts(
            n=1_000_000, n_x={j: (500, 500) for j in SETTINGS_BB84},
            n_det_z=125_000, n_err_z=100, probs=PROBS)
        with pytest.raises(ValueError,
                           match="statistics carry no per-tag counts"):
            per_tag_bounds(stats, PROBS, IDEAL_C, (0.5, 0.5), 1e-4)


class TestSecretFractionCheck:
    def test_single_tag_degenerate(self):
        lhs, mid, rhs = secret_fraction_check([0.02], [1.0], 0.02)
        assert lhs == mid == rhs

    def test_two_tag_oracle(self):
        lhs, mid, rhs = secret_fraction_check([0.01, 0.03], [0.5, 0.5], 0.02)
        assert lhs == pytest.approx(0.1375924968637437, abs=1e-12)
        assert mid == pytest.approx(0.14144054254182067, abs=1e-12)
        assert lhs <= mid <= rhs + 1e-15

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            secret_fraction_check([0.1], [0.5], 0.1)

    @pytest.mark.parametrize("e_per_tag, q_w, e_ph_u", [
        ([0.01, 1.1], [0.5, 0.5], 0.02),
        ([0.01, math.nan], [0.5, 0.5], 0.02),
        ([0.01, 0.03], [1.5, -0.5], 0.02),
        ([0.01, 0.03], [0.5, 0.5], -0.1),
    ], ids=["tag_error_above_one", "nan_tag_error", "negative_weight",
            "negative_aggregate"])
    def test_rejects_out_of_range_entry(self, e_per_tag, q_w, e_ph_u):
        with pytest.raises(ValueError):
            secret_fraction_check(e_per_tag, q_w, e_ph_u)


class TestKeyRate:
    def test_no_errors(self):
        assert key_rate(0.1, 0.0, 0.0, 1.16).rate == pytest.approx(0.1)

    def test_half_phase_error_extinguishes_key(self):
        assert key_rate(0.1, 0.5, 0.0, 1.16).rate == 0.0

    def test_vacuous_bound_gives_zero_not_full_rate(self):
        # e_ph past 1/2 must cost maximal privacy amplification
        assert key_rate(0.1, 1.0, 0.0, 1.16).rate == 0.0

    def test_oracle_point(self):
        rep = key_rate(1e-3, 0.02, 0.01, 1.16)
        assert rep.rate == pytest.approx(0.0007648394198189224, abs=1e-15)

    def test_floor_at_zero(self):
        assert key_rate(0.1, 0.4, 0.3, 1.16).rate == 0.0

    def test_rejects_sub_unit_efficiency(self):
        with pytest.raises(ValueError):
            key_rate(0.1, 0.0, 0.0, 0.9)

    @pytest.mark.parametrize("f", [math.nan, math.inf])
    def test_rejects_non_finite_efficiency(self, f):
        with pytest.raises(ValueError):
            key_rate(0.1, 0.0, 0.0, f)

    @pytest.mark.parametrize("field", ["e_ph_u", "e_bit"])
    @pytest.mark.parametrize("value", [math.nan, -0.1, 1.1])
    def test_rejects_error_rate_outside_unit_interval(self, field, value):
        # binary_entropy does not check: unrefused, a NaN e_ph_u would
        # give h = 0 and the full rate
        rates = {"e_ph_u": 0.0, "e_bit": 0.0, field: value}
        with pytest.raises(ValueError):
            key_rate(0.1, rates["e_ph_u"], rates["e_bit"], 1.16)


class TestSourcePipeline:
    def test_bound_inputs_protocol_validation(self):
        with pytest.raises(InconsistentProtocol):
            bound_inputs_from_source(SourceSpec(), "six-state")

    def test_evaluate_point_ideal(self):
        q = {j: (0.0, 0.0) for j in SETTINGS_BB84}
        stats = ObservedStatistics(q=q, y_z=0.25, e_bit=0.0)
        rep = evaluate_point(stats, PROBS, SourceSpec(), "bb84", 1.16)
        assert rep.rate == pytest.approx(0.25)
        assert rep.e_ph_u == 0.0
