"""Tests for the virtual-state decomposition coefficients and their bounds."""

import itertools
import math

import numpy as np
import pytest

from qkdbound import coeffs
from qkdbound.cli import EXIT_COMPUTE, main
from qkdbound.coeffs import (
    SINGULAR_TOL,
    CoefficientSet,
    SectorViolation,
    SingularSystem,
    c0_0x,
    c1_x,
    coeff_bounds_bb84,
    coeff_bounds_three_state,
    coeffs_bb84,
    coeffs_three_state,
    solve_generic,
    state_triple,
    virtual_triple,
)
from qkdbound.source import (
    ANALYTIC_SECTORS,
    BB84,
    PROTOCOLS,
    PhaseRanges,
    SETTINGS_BB84,
    SETTINGS_THREE_STATE,
    SourceSpec,
)

IDEAL = {"0Z": 0.0, "1Z": math.pi, "0X": math.pi / 2, "1X": 3 * math.pi / 2}


def random_sector_phases(rng):
    return {j: rng.uniform(*ANALYTIC_SECTORS[j]) for j in SETTINGS_BB84}


class TestSolveGeneric:
    def test_ideal_alpha1(self):
        sol = solve_generic(virtual_triple(0.0, math.pi, 1), IDEAL, zeroed="0X")
        assert sol["0Z"] == pytest.approx(0.0, abs=1e-12)
        assert sol["1Z"] == pytest.approx(0.0, abs=1e-12)
        assert sol["0X"] == 0.0
        assert sol["1X"] == pytest.approx(1.0, abs=1e-12)

    def test_ideal_three_state_alpha1(self):
        refs = {j: IDEAL[j] for j in SETTINGS_THREE_STATE}
        sol = solve_generic(virtual_triple(0.0, math.pi, 1), refs)
        assert sol["0Z"] == pytest.approx(1.0, abs=1e-12)
        assert sol["1Z"] == pytest.approx(1.0, abs=1e-12)
        assert sol["0X"] == pytest.approx(-1.0, abs=1e-12)

    def test_identical_z_phases_singular(self):
        refs = {"0Z": 0.2, "1Z": 0.2, "0X": math.pi / 2}
        with pytest.raises(SingularSystem):
            solve_generic(virtual_triple(0.3, math.pi, 1), refs)

    def test_degenerate_virtual_state_singular(self):
        with pytest.raises(SingularSystem):
            virtual_triple(0.1, 0.1, 1)

    def test_residual_definition(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ph = random_sector_phases(rng)
            target = virtual_triple(ph["0Z"], ph["1Z"], 1)
            sol = solve_generic(target, ph, zeroed="0X")
            recon = sum(sol[j] * state_triple(ph[j]) for j in ph)
            assert np.max(np.abs(recon - target)) < 1e-10


class TestClosedForms:
    def test_ideal_bb84(self):
        cs = coeffs_bb84(0.0, math.pi, math.pi / 2, 3 * math.pi / 2)
        assert cs.c[1]["1X"] == pytest.approx(1.0, abs=1e-12)
        assert cs.c[1]["0Z"] == pytest.approx(0.0, abs=1e-12)
        assert cs.c[1]["1Z"] == pytest.approx(0.0, abs=1e-12)
        assert cs.c[0]["0X"] == pytest.approx(1.0, abs=1e-12)
        assert cs.c[0]["0Z"] == pytest.approx(0.0, abs=1e-12)
        assert cs.c[1]["0X"] == 0.0 and cs.c[0]["1X"] == 0.0

    def test_ideal_three_state(self):
        cs = coeffs_three_state(0.0, math.pi, math.pi / 2)
        assert cs.c[1]["0Z"] == pytest.approx(1.0, abs=1e-12)
        assert cs.c[1]["1Z"] == pytest.approx(1.0, abs=1e-12)
        assert cs.c[1]["0X"] == pytest.approx(-1.0, abs=1e-12)
        assert cs.c[0]["0X"] == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_phases_raise(self):
        with pytest.raises(SingularSystem):
            coeffs_three_state(0.2, 0.2, math.pi / 2)
        # one singular sample in a grid: no silent NaN from the array path
        with pytest.raises(SingularSystem):
            coeffs_three_state(np.array([0.2, 0.0]),
                               np.array([0.2, math.pi]), math.pi / 2)
        # a NaN denominator fails the pole test instead of passing it
        with pytest.raises(SingularSystem):
            coeffs_three_state(0.0, math.pi, math.nan)
        with pytest.raises(SingularSystem):
            coeffs_three_state(np.array([0.0, math.nan]), math.pi,
                               math.pi / 2)

    def test_matches_generic_solver(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            ph = random_sector_phases(rng)
            cs = coeffs_bb84(ph["0Z"], ph["1Z"], ph["0X"], ph["1X"])
            for alpha, zeroed in ((1, "0X"), (0, "1X")):
                sol = solve_generic(virtual_triple(ph["0Z"], ph["1Z"], alpha),
                                    ph, zeroed=zeroed)
                for j in SETTINGS_BB84:
                    assert abs(sol[j] - cs.c[alpha][j]) < 1e-9
            refs3 = {j: ph[j] for j in SETTINGS_THREE_STATE}
            ts = coeffs_three_state(ph["0Z"], ph["1Z"], ph["0X"])
            for alpha in (0, 1):
                sol = solve_generic(virtual_triple(ph["0Z"], ph["1Z"], alpha),
                                    refs3)
                for j in SETTINGS_THREE_STATE:
                    assert abs(sol[j] - ts.c[alpha][j]) < 1e-9

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            ph = random_sector_phases(rng)
            cs = coeffs_bb84(ph["0Z"], ph["1Z"], ph["0X"], ph["1X"])
            for alpha in (0, 1):
                target = virtual_triple(ph["0Z"], ph["1Z"], alpha)
                recon = sum(cs.c[alpha][j] * state_triple(ph[j])
                            for j in SETTINGS_BB84)
                assert np.max(np.abs(recon - target)) < 1e-10


class TestCoefficientBounds:
    def test_point_ranges_reduce_to_exact(self):
        r = PhaseRanges(lo=dict(IDEAL), hi=dict(IDEAL))
        b = coeff_bounds_bb84(r)
        exact = coeffs_bb84(IDEAL["0Z"], IDEAL["1Z"], IDEAL["0X"], IDEAL["1X"])
        for alpha in (0, 1):
            for j in SETTINGS_BB84:
                assert b.c[alpha][j] == pytest.approx(exact.c[alpha][j],
                                                      abs=1e-12)
        refs3 = {j: IDEAL[j] for j in SETTINGS_THREE_STATE}
        b3 = coeff_bounds_three_state(PhaseRanges(lo=dict(refs3),
                                                  hi=dict(refs3)))
        exact3 = coeffs_three_state(IDEAL["0Z"], IDEAL["1Z"], IDEAL["0X"])
        for alpha in (0, 1):
            for j in SETTINGS_THREE_STATE:
                assert b3.c[alpha][j] == pytest.approx(exact3.c[alpha][j],
                                                       abs=1e-12)

    def test_domination_over_grid(self):
        spec = SourceSpec(delta=0.063, Delta=0.03)
        r = PhaseRanges.from_source(spec)
        b = coeff_bounds_bb84(r)
        grids = {j: np.linspace(r.lo[j], r.hi[j], 11) for j in SETTINGS_BB84}
        for t0, t1, x0, x1 in itertools.product(grids["0Z"], grids["1Z"],
                                                grids["0X"], grids["1X"]):
            cs = coeffs_bb84(t0, t1, x0, x1)
            for alpha in (0, 1):
                for j in SETTINGS_BB84:
                    assert cs.c[alpha][j] <= b.c[alpha][j] + 1e-12

    def test_three_state_middle_branch_selected(self):
        # default benchmark ranges put (lo_0Z + hi_1Z)/2 inside the 0X range
        spec = SourceSpec(delta=0.063, Delta=0.03)
        r = PhaseRanges.from_source(spec, settings=SETTINGS_THREE_STATE)
        mid = (r.lo["0Z"] + r.hi["1Z"]) / 2.0
        assert r.lo["0X"] <= mid <= r.hi["0X"]
        from qkdbound.coeffs import c1_x
        b = coeff_bounds_three_state(r, method="analytic")
        assert b.c[1]["0X"] == pytest.approx(
            c1_x(r.lo["0Z"], r.hi["1Z"], mid), abs=1e-15)

    def test_sector_violation_strict_mode(self):
        r = PhaseRanges(lo={"0Z": -1.0, "1Z": math.pi, "0X": math.pi / 2,
                            "1X": 3 * math.pi / 2},
                        hi={"0Z": 1.0, "1Z": math.pi, "0X": math.pi / 2,
                            "1X": 3 * math.pi / 2})
        with pytest.raises(SectorViolation):
            coeff_bounds_bb84(r, method="analytic")

    def test_grid_fallback_out_of_sector(self):
        wide = 0.6  # exceeds the pi/6 sector half-width around 0Z
        spec = SourceSpec(delta=0.0, Delta=wide)
        r = PhaseRanges.from_source(spec)
        assert not r.in_analytic_sectors()
        b = coeff_bounds_bb84(r)  # auto mode falls back to grid maximization
        grids = {j: np.linspace(r.lo[j], r.hi[j], 7) for j in SETTINGS_BB84}
        for t0, t1, x1 in itertools.product(grids["0Z"], grids["1Z"],
                                            grids["1X"]):
            cs_c1 = coeffs_bb84(t0, t1, IDEAL["0X"], x1).c[1]
            for j in SETTINGS_BB84:
                assert cs_c1[j] <= b.c[1][j] + 1e-9

    def test_zeroing_convention_gives_tightest_bound(self):
        """Regression: among all zeroing choices at the benchmark nominal
        phases, the adopted convention attains the minimal phase-error bound."""
        from qkdbound.bounds import phase_error_bound
        from qkdbound.simulator import ChannelParams, simulate_asymptotic
        from qkdbound.source import ProtocolProbs, virtual_prob_bounds

        spec = SourceSpec(delta=0.063, Delta=0.0, epsilon_u=1e-3)
        ph = spec.nominal_phases()
        probs = ProtocolProbs.uniform(SETTINGS_BB84)
        pvir = virtual_prob_bounds(PhaseRanges.from_source(spec))
        stats = simulate_asymptotic(spec, probs, ChannelParams(loss_db=10.0))
        results = {}
        for z1 in SETTINGS_BB84:
            for z0 in SETTINGS_BB84:
                c1 = solve_generic(virtual_triple(ph["0Z"], ph["1Z"], 1), ph,
                                   zeroed=z1)
                c0 = solve_generic(virtual_triple(ph["0Z"], ph["1Z"], 0), ph,
                                   zeroed=z0)
                cs = CoefficientSet(protocol="bb84", c={1: c1, 0: c0})
                results[(z1, z0)] = phase_error_bound(
                    stats, probs, cs, pvir, spec.effective_epsilon())
        assert results[("0X", "1X")] <= min(results.values()) + 1e-9


def generator_corner_max(fn, r0z, r1z, rx):
    """The scalar generator ``max`` over the 8 corners, as the reference."""
    return max(fn(a, b, c) for a, b, c in itertools.product(r0z, r1z, rx))


#: the 8-corner entries of each protocol's coefficient bounds in the sectors,
#: as (alpha, the scalar closed form of its X-reference coefficient)
CORNER_ENTRIES = {"bb84": ((1, c1_x), (0, c0_0x)),
                  "three_state": ((0, c0_0x),)}

#: a box with a c_{0,0X} pole at one corner (theta_0X = theta_0Z = 0.1) and
#: none at the corners the single-corner rules read
POLE_BOX = PhaseRanges(
    lo={"0Z": -0.1, "1Z": math.pi - 0.1, "0X": 0.1 + 1e-15,
        "1X": 1.5 * math.pi - 0.1},
    hi={"0Z": 0.1, "1Z": math.pi + 0.1, "0X": 0.3, "1X": 1.5 * math.pi + 0.1})


class TestCornerMaxima:
    def test_equal_generator_max_in_sectors(self):
        rng = np.random.default_rng(20261018)
        for proto in PROTOCOLS:
            bounds_of = (coeff_bounds_bb84 if proto is BB84
                         else coeff_bounds_three_state)
            checked = 0
            while checked < 200:
                spec = SourceSpec(delta=rng.uniform(-0.35, 0.35),
                                  Delta=rng.uniform(0.0, 0.1))
                r = PhaseRanges.from_source(spec, settings=proto.settings)
                if not r.in_analytic_sectors():
                    continue
                got = bounds_of(r, method="analytic")
                box = {j: (r.lo[j], r.hi[j]) for j in proto.settings}
                for alpha, fn in CORNER_ENTRIES[proto.name]:
                    x = proto.x_ref[alpha]
                    want = generator_corner_max(fn, box["0Z"], box["1Z"],
                                                box[x])
                    assert got.c[alpha][x].hex() == float(want).hex()
                checked += 1

    def test_pole_corner_raises_with_smallest_denominator(self):
        box = [(POLE_BOX.lo[j], POLE_BOX.hi[j]) for j in ("0Z", "1Z", "0X")]
        with pytest.raises(SingularSystem):
            generator_corner_max(c0_0x, *box)
        gaps = [abs(coeffs._at(coeffs._c0_0x, *corner)[1])
                for corner in itertools.product(*box)]
        assert min(gaps) < SINGULAR_TOL
        with pytest.raises(SingularSystem,
                           match=f"denominator {min(gaps):.3e} below"):
            coeffs._corner_max(coeffs._c0_0x, *box)

    def test_pole_corner_is_a_compute_error(self, monkeypatch, tmp_path,
                                            capsys):
        # route a sweep source onto the pole box through the corner rules
        monkeypatch.setattr(PhaseRanges, "in_analytic_sectors",
                            lambda self: True)
        monkeypatch.setattr(PhaseRanges, "from_source", classmethod(
            lambda cls, spec, settings=SETTINGS_BB84: PhaseRanges(
                lo={j: POLE_BOX.lo[j] for j in settings},
                hi={j: POLE_BOX.hi[j] for j in settings})))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--protocol", "bb84", "--loss-end", "10",
                     "--out", str(out)]) == EXIT_COMPUTE
        assert not out.exists()
        assert "below tolerance" in capsys.readouterr().err
