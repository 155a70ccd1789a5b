"""Tests for the G+/G- sandwich kernel and binary entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qkdbound.gmath import G_minus, G_plus, as_unit, binary_entropy, g_pm

unit = st.floats(min_value=0.0, max_value=1.0)


class TestGpm:
    def test_z_one_zeroes_corrections(self):
        assert g_pm(0.5, 1.0, +1) == pytest.approx(0.5, abs=1e-15)

    def test_y_zero_gives_one_minus_z_squared(self):
        assert g_pm(0.0, 0.8, +1) == pytest.approx(0.36, abs=1e-15)

    def test_minus_sign_oracle(self):
        # 0.314 - 2*0.9*sqrt(0.19*0.2*0.8), frozen from independent evaluation
        assert g_pm(0.2, 0.9, -1) == pytest.approx(0.00015927606507143421,
                                                   abs=1e-15)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            g_pm(0.5, 0.5, 2)


class TestGPlusMinus:
    def test_plus_saturates_above_z_squared(self):
        assert G_plus(0.9, 0.9) == 1.0

    def test_plus_oracle(self):
        assert G_plus(0.2, 0.9) == pytest.approx(0.6278407239349284, abs=1e-15)

    def test_minus_zero_branch(self):
        assert G_minus(0.1, 0.5) == 0.0

    def test_minus_oracle(self):
        assert G_minus(0.2, 0.9) == pytest.approx(0.00015927606507143421,
                                                  abs=1e-15)

    @given(unit)
    def test_z_one_identities(self, y):
        assert G_plus(y, 1.0) == pytest.approx(y, abs=1e-12)
        assert G_minus(y, 1.0) == pytest.approx(y, abs=1e-12)

    @given(unit, unit)
    def test_ordering_and_range(self, y, z):
        lo, hi = G_minus(y, z), G_plus(y, z)
        assert 0.0 <= lo <= hi <= 1.0

    def test_branch_boundaries_continuous(self):
        for z in np.linspace(0.05, 0.995, 41):
            assert g_pm(z * z, z, +1) == pytest.approx(1.0, abs=1e-12)
            assert g_pm(1 - z * z, z, -1) == pytest.approx(0.0, abs=1e-12)

    def test_monotonicity_grid(self):
        ys = np.linspace(0.0, 1.0, 101)
        zs = np.linspace(0.0, 1.0, 101)
        for z in zs:
            gp = G_plus(ys, z)
            gm = G_minus(ys, z)
            assert np.all(np.diff(gp) >= -1e-12)
            assert np.all(np.diff(gm) >= -1e-12)
        for y in ys:
            gp = G_plus(y, zs)
            gm = G_minus(y, zs)
            assert np.all(np.diff(gp) <= 1e-12)   # G+ nonincreasing in z
            assert np.all(np.diff(gm) >= -1e-12)  # -G- nonincreasing in z

    def test_concavity_in_y(self):
        ys = np.linspace(0.0, 1.0, 201)
        for z in np.linspace(0.05, 0.99, 20):
            for vals, sign in ((G_plus(ys, z), 1.0), (G_minus(ys, z), -1.0)):
                second = sign * np.diff(vals, 2)
                assert np.all(second <= 1e-9)


class TestBinaryEntropy:
    def test_examples(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.02) == pytest.approx(0.14144054254182067,
                                                     abs=1e-15)

    @given(unit)
    def test_symmetry_and_range(self, x):
        h = binary_entropy(x)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    def test_vectorized(self):
        xs = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(binary_entropy(xs), [0.0, 1.0, 0.0])


class TestAsUnit:
    def test_clamps_float_noise(self):
        assert as_unit(-1e-12) == 0.0
        assert as_unit(1.0 + 1e-12) == 1.0

    def test_rejects_real_violations(self):
        with pytest.raises(ValueError):
            as_unit(-0.01)
        with pytest.raises(ValueError):
            as_unit(1.01)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_unit(math.nan)
        with pytest.raises(ValueError):
            as_unit(np.array([0.5, math.nan]))
