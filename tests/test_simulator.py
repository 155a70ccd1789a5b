"""Tests for the honest-channel simulator and ground-truth oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qkdbound.bounds import TagCounts, bound_inputs_from_source, phase_error_bound
from qkdbound.simulator import (
    MAX_ROUNDS,
    MAX_TAGS,
    ChannelParams,
    RunConfig,
    _cell_probs,
    detection_probs,
    simulate_asymptotic,
    simulate_finite,
    true_virtual_error_rate,
)
from qkdbound.source import (
    InconsistentProtocol,
    ProtocolProbs,
    SETTINGS_BB84,
    SETTINGS_THREE_STATE,
    SourceSpec,
)

PROBS = ProtocolProbs.uniform(SETTINGS_BB84)


def per_round_tag_counts(cfg, spec, ch):
    """Reference sampler: draws all N rounds one by one, then counts per tag.

    Round k gets tag w = k mod (l_c + 1), a setting drawn from p_j, Bob's
    basis and an outcome by inverting the cumulative detection
    probabilities. O(N) time and memory; the multinomial sampler in
    ``simulate_finite`` must reproduce its distribution exactly.
    """
    settings = cfg.settings()
    n, n_tags = cfg.n, cfg.l_c + 1
    rng = np.random.default_rng(cfg.seed)
    p_j = np.array([cfg.probs.p_j[j] for j in settings])
    j_idx = rng.choice(len(settings), size=n, p=p_j)
    bob_x = rng.random(n) < cfg.probs.p_xb
    u = rng.random(n)

    nominal = spec.nominal_phases()
    table = np.array([[np.cumsum(detection_probs(nominal[j], basis, ch)[:2])
                       for basis in ("Z", "X")] for j in settings])
    edges = table[j_idx, bob_x.astype(int)]
    # outcome: 0, 1, or 2 (no detection)
    outcome = (u >= edges[:, 0]).astype(np.int64) + (u >= edges[:, 1])
    tags = np.arange(n) % n_tags

    i0z, i1z = settings.index("0Z"), settings.index("1Z")
    alice_z = (j_idx == i0z) | (j_idx == i1z)
    sent_bit = np.where(j_idx == i1z, 1, 0)
    sift = alice_z & ~bob_x & (outcome < 2)
    err = sift & (outcome != sent_bit)

    per_tag = []
    for w in range(n_tags):
        in_tag = tags == w
        n_x = {}
        for si, j in enumerate(settings):
            sel = in_tag & bob_x & (j_idx == si)
            n_x[j] = (int(np.count_nonzero(sel & (outcome == 0))),
                      int(np.count_nonzero(sel & (outcome == 1))))
        per_tag.append(TagCounts(
            w=w,
            n_w=int(np.count_nonzero(in_tag)),
            n_x=n_x,
            n_det_z=int(np.count_nonzero(sift & in_tag)),
            n_err_z=int(np.count_nonzero(err & in_tag)),
        ))
    return per_tag


def tag_cells(t):
    """A tag's counts as a partition of n_w into disjoint categories.

    (X-basis gamma counts per setting, sifted correct, sifted error, rest).
    """
    x = [v for j in sorted(t.n_x) for v in t.n_x[j]]
    rest = t.n_w - sum(x) - t.n_det_z
    return x + [t.n_det_z - t.n_err_z, t.n_err_z, rest]


def expected_tag_cells(cfg, spec, ch):
    """Exact per-round probabilities of the ``tag_cells`` categories."""
    nominal = spec.nominal_phases()
    x = []
    for j in sorted(cfg.settings()):
        p0, p1, _ = detection_probs(nominal[j], "X", ch)
        x += [cfg.probs.p_j[j] * cfg.probs.p_xb * p for p in (p0, p1)]
    right = wrong = 0.0
    for bit, j in enumerate(("0Z", "1Z")):
        p = detection_probs(nominal[j], "Z", ch)
        right += cfg.probs.p_j[j] * cfg.probs.p_zb * p[bit]
        wrong += cfg.probs.p_j[j] * cfg.probs.p_zb * p[1 - bit]
    return np.array(x + [right, wrong, 1.0 - sum(x) - right - wrong])


def chi2_quantile(df, z):
    """Wilson-Hilferty approximation of the chi-square quantile at normal z."""
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * math.sqrt(a)) ** 3


class TestDetectionProbs:
    def test_z_eigenstate_lossless(self):
        assert detection_probs(0.0, "Z", ChannelParams(0.0, p_d=0.0)) == \
            pytest.approx((1.0, 0.0, 0.0))

    def test_unbiased_x_statistics(self):
        assert detection_probs(0.0, "X", ChannelParams(0.0, p_d=0.0)) == \
            pytest.approx((0.5, 0.5, 0.0))

    def test_ten_db_loss(self):
        assert detection_probs(0.0, "Z", ChannelParams(10.0, p_d=0.0)) == \
            pytest.approx((0.1, 0.0, 0.9))

    @given(st.floats(min_value=-7, max_value=7),
           st.floats(min_value=0, max_value=60),
           st.floats(min_value=0, max_value=0.1))
    def test_probability_closure(self, theta, loss, pd):
        for basis in ("Z", "X"):
            p0, p1, pf = detection_probs(theta, basis,
                                         ChannelParams(loss, p_d=pd))
            assert p0 >= 0 and p1 >= 0 and pf >= 0
            assert p0 + p1 + pf == pytest.approx(1.0, abs=1e-15)

    def test_failure_is_basis_and_state_independent(self):
        ch = ChannelParams(13.0, p_d=1e-4)
        fails = {detection_probs(t, b, ch)[2]
                 for t in (0.0, 0.7, math.pi) for b in ("Z", "X")}
        assert max(fails) - min(fails) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(-1.0)
        with pytest.raises(ValueError):
            ChannelParams(0.0, p_d=1.5)
        with pytest.raises(ValueError):
            detection_probs(0.0, "Y", ChannelParams(0.0))
        with pytest.raises(ValueError):
            ChannelParams(math.nan)
        with pytest.raises(ValueError):
            ChannelParams(0.0, f=math.nan)
        # an infinite loss used to pass, to be written as Infinity
        with pytest.raises(ValueError, match="must be finite"):
            ChannelParams(math.inf)


class TestSimulateAsymptotic:
    def test_ideal_lossless(self):
        st_ = simulate_asymptotic(SourceSpec(), PROBS,
                                  ChannelParams(0.0, p_d=0.0))
        assert st_.y_z == pytest.approx(1.0)
        assert st_.e_bit == 0.0
        assert st_.q["0Z"] == pytest.approx((0.5, 0.5))

    def test_ideal_ten_db(self):
        st_ = simulate_asymptotic(SourceSpec(), PROBS,
                                  ChannelParams(10.0, p_d=0.0))
        assert st_.y_z == pytest.approx(0.1)
        assert st_.e_bit == 0.0

    def test_spf_induces_bit_errors(self):
        spec = SourceSpec(delta=0.063)
        st_ = simulate_asymptotic(spec, PROBS, ChannelParams(0.0, p_d=0.0))
        # only the 1Z emission is offset: wrong-bit weight (1-cos(delta))/2 / 2
        expected = 0.25 * (1 - math.cos(0.063))
        assert st_.e_bit == pytest.approx(expected, rel=1e-9)


class TestSimulateFinite:
    def test_all_rounds_fail_under_total_loss(self):
        cfg = RunConfig(n=3, seed=0, l_c=2, protocol="bb84", probs=PROBS)
        st_ = simulate_finite(cfg, SourceSpec(),
                              ChannelParams(300.0, p_d=0.0))
        assert st_.n_det_z == 0
        assert all(v == (0, 0) for t in st_.per_tag for v in t.n_x.values())

    def test_deterministic_for_fixed_seed(self):
        cfg = RunConfig(n=20_000, seed=99, l_c=1, protocol="bb84", probs=PROBS)
        a = simulate_finite(cfg, SourceSpec(delta=0.063), ChannelParams(10.0))
        b = simulate_finite(cfg, SourceSpec(delta=0.063), ChannelParams(10.0))
        assert a == b

    def test_tag_partition(self):
        cfg = RunConfig(n=100_001, seed=4, l_c=2, protocol="bb84", probs=PROBS)
        st_ = simulate_finite(cfg, SourceSpec(), ChannelParams(10.0))
        sizes = [t.n_w for t in st_.per_tag]
        assert sum(sizes) == 100_001
        assert sizes == [33_334, 33_334, 33_333]  # leading tags get the excess

    def test_requires_enough_rounds(self):
        with pytest.raises(ValueError):
            RunConfig(n=2, seed=0, l_c=2, protocol="bb84", probs=PROBS)
        with pytest.raises(ValueError):
            RunConfig(n=2, seed=0, l_c=-1, protocol="bb84", probs=PROBS)

    def test_converges_to_asymptotic(self):
        spec = SourceSpec(delta=0.063)
        ch = ChannelParams(10.0)
        cfg = RunConfig(n=500_000, seed=21, l_c=0, protocol="bb84",
                        probs=PROBS)
        fin = simulate_finite(cfg, spec, ch)
        asy = simulate_asymptotic(spec, PROBS, ch)
        for j in fin.q:
            for g in (0, 1):
                p = asy.q[j][g]
                n_eff = cfg.n * PROBS.p_j[j] * PROBS.p_xb
                sd = max(math.sqrt(p * (1 - p) / n_eff), 1e-12)
                assert abs(fin.q[j][g] - p) < 5 * sd


class TestMultinomialExactness:
    """The O(cells) sampler against the per-round reference sampler."""

    SEEDS = 200
    SPEC = SourceSpec(delta=0.063)
    # p_d keeps every expected cell above the chi-square precondition's 1e-3
    CH = ChannelParams(3.0, p_d=0.03)
    # unequal basis and setting weights, so a swapped axis changes the cells
    PROBS = ProtocolProbs(p_zb=0.6, p_j={"0Z": 0.3, "1Z": 0.3,
                                         "0X": 0.25, "1X": 0.15})

    def _runs(self, sampler, seed0):
        """Per-seed tag_cells arrays, shape (seeds, tags, categories)."""
        runs = []
        for seed in range(seed0, seed0 + self.SEEDS):
            cfg = RunConfig(n=2000, seed=seed, l_c=2, protocol="bb84",
                            probs=self.PROBS)
            runs.append([tag_cells(t) for t in sampler(cfg)])
        return np.array(runs, dtype=float)

    def test_chi_square_per_tag(self):
        fast = self._runs(
            lambda cfg: simulate_finite(cfg, self.SPEC, self.CH).per_tag, 0)
        ref = self._runs(
            lambda cfg: per_round_tag_counts(cfg, self.SPEC, self.CH), 10_000)
        # identical deterministic tag sizes
        assert (fast.sum(axis=2) == ref.sum(axis=2)).all()
        cfg = RunConfig(n=2000, seed=0, l_c=2, protocol="bb84",
                        probs=self.PROBS)
        p = expected_tag_cells(cfg, self.SPEC, self.CH)
        assert (p > 1e-3).all()
        for w in range(3):
            # homogeneity of the pooled cell counts of the two samplers
            table = np.stack([fast[:, w].sum(axis=0), ref[:, w].sum(axis=0)])
            expect = (table.sum(axis=1, keepdims=True) * table.sum(axis=0)
                      / table.sum())
            stat = ((table - expect) ** 2 / expect).sum()
            assert stat < chi2_quantile(table.shape[1] - 1, 3.72), (w, stat)
            # per-seed dispersion about the exact probabilities: summed
            # Pearson statistics lie inside the two-sided 1e-4 band
            df = self.SEEDS * (len(p) - 1)
            for runs in (fast, ref):
                e = runs[:, w].sum(axis=1, keepdims=True) * p
                stat = ((runs[:, w] - e) ** 2 / e).sum()
                assert chi2_quantile(df, -3.72) < stat \
                    < chi2_quantile(df, 3.72), (w, stat)

    def test_huge_run_is_constant_memory(self):
        cfg = RunConfig(n=10 ** 12, seed=7, l_c=9, protocol="bb84",
                        probs=PROBS)
        simulate_finite(RunConfig(n=10, seed=7, l_c=9, protocol="bb84",
                                  probs=PROBS),
                        self.SPEC, self.CH)  # lazy imports off the books
        tracemalloc.start()
        try:
            st_ = simulate_finite(cfg, self.SPEC, self.CH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [t.n_w for t in st_.per_tag] == [10 ** 11] * 10
        assert peak < 2 ** 20

    @pytest.mark.parametrize("settings", [SETTINGS_BB84, SETTINGS_THREE_STATE])
    def test_lossless_edge_cells(self, settings):
        ch = ChannelParams(0.0, p_d=0.0)
        cfg = RunConfig(n=10 ** 6, seed=3, l_c=1, protocol="bb84" if
                        settings == SETTINGS_BB84 else "three_state",
                        probs=ProtocolProbs.uniform(settings))
        cells = _cell_probs(cfg, SourceSpec(), ch)
        assert cells.shape == (len(settings), 2, 3)
        assert (cells >= 0).all()
        assert (cells[..., 2] == 0).all()  # no loss, no dark counts
        assert math.fsum(cells.ravel()[:-1]) <= 1.0 + 1e-12
        st_ = simulate_finite(cfg, SourceSpec(), ch)
        assert all(min(tag_cells(t)) >= 0 for t in st_.per_tag)
        assert st_.e_bit == 0.0 and st_.y_z == 1.0

    def test_rejects_runs_beyond_int64(self):
        RunConfig(n=MAX_ROUNDS, seed=0, l_c=0, protocol="bb84", probs=PROBS)
        with pytest.raises(ValueError):
            RunConfig(n=MAX_ROUNDS + 1, seed=0, l_c=0, protocol="bb84",
                      probs=PROBS)

    def test_tag_count_is_capped(self):
        # one record per tag: l_c = 199,999 used to take 724 MB
        assert MAX_TAGS == 10 ** 4
        RunConfig(n=10 ** 6, seed=0, l_c=MAX_TAGS - 1, protocol="bb84",
                  probs=PROBS)
        for l_c in (MAX_TAGS, 10 ** 9):
            with pytest.raises(ValueError, match=f"l_c = {l_c}.*{MAX_TAGS}"):
                RunConfig(n=10 ** 12, seed=0, l_c=l_c, protocol="bb84",
                          probs=PROBS)

    @pytest.mark.parametrize("protocol, settings", [
        ("bb84", SETTINGS_BB84), ("three_state", SETTINGS_THREE_STATE)])
    def test_probs_must_name_the_protocol_settings(self, protocol, settings):
        RunConfig(n=10, seed=0, l_c=0, protocol=protocol,
                  probs=ProtocolProbs.uniform(settings))
        # bb84 probs gave a three-state run R = 0.265 at 5 dB, not 0.198
        foreign = (SETTINGS_THREE_STATE if settings == SETTINGS_BB84
                   else SETTINGS_BB84)
        with pytest.raises(InconsistentProtocol) as err:
            RunConfig(n=10, seed=0, l_c=0, protocol=protocol,
                      probs=ProtocolProbs.uniform(foreign))
        assert str(list(settings)) in str(err.value)
        assert str(list(foreign)) in str(err.value)


class TestTrueVirtualErrorRate:
    def test_ideal_source_is_error_free(self):
        for loss in (0.0, 17.0):
            assert true_virtual_error_rate(
                SourceSpec(), ChannelParams(loss, p_d=0.0)) == \
                pytest.approx(0.0, abs=1e-15)

    def test_dark_count_dominated_limit_is_half(self):
        rate = true_virtual_error_rate(SourceSpec(),
                                       ChannelParams(250.0, p_d=1e-6))
        assert rate == pytest.approx(0.5, abs=1e-6)

    def test_bounded_by_module_estimate(self):
        spec = SourceSpec(delta=0.063, Delta=0.03, epsilon_u=1e-3)
        ch = ChannelParams(20.0)
        stats = simulate_asymptotic(spec, PROBS, ch)
        c_u, pvir, eps = bound_inputs_from_source(spec, "bb84")
        e_ph = phase_error_bound(stats, PROBS, c_u, pvir, eps)
        truth = true_virtual_error_rate(spec, ch)
        assert 0.0 < truth < 0.5
        assert truth <= e_ph
