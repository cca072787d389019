"""Periodic grids, unitary transform contract, the L^2 norm, test fields."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszmax.errors import DomainError, ResourceError
from rieszmax.fields import (GridSpec, SpatialField, SpectralField,
                             forward_transform, inverse_transform, l2_norm,
                             random_band_limited)

PAIRS = [(2, 64), (4, 16), (6, 8), (8, 6), (10, 4)]


def _random_field(spec, seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(spec.shape) \
        + 1j * rng.standard_normal(spec.shape)
    return SpatialField(spec, samples)


class TestGridSpec:
    def test_basic_properties(self):
        spec = GridSpec(2, 8, period=2.0)
        assert spec.shape == (8, 8)
        assert spec.n_samples == 64
        assert spec.cell_volume == pytest.approx((2.0 / 8) ** 2)

    @pytest.mark.parametrize("kwargs", [
        {"dimension": 0, "points_per_axis": 8},
        {"dimension": 2, "points_per_axis": 7},   # odd
        {"dimension": 2, "points_per_axis": 2},   # too small
        {"dimension": 2, "points_per_axis": 8, "period": 0.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            GridSpec(**kwargs)

    def test_budget_enforced(self):
        with pytest.raises(ResourceError):
            GridSpec(8, 16)  # 16^8 = 2^32 samples

    def test_freq_axis_layout(self):
        spec = GridSpec(1, 4, period=2.0)
        assert np.allclose(spec.freq_axis(), [0.0, 0.5, -1.0, -0.5])

    def test_freq_component_axis_indexing(self):
        spec = GridSpec(2, 4)
        xi1 = spec.freq_component(1)
        xi2 = spec.freq_component(2)
        assert np.allclose(xi1, xi2.T)
        with pytest.raises(DomainError):
            spec.freq_component(3)

    def test_freq_radius(self):
        spec = GridSpec(2, 4)
        rad = spec.freq_radius()
        assert rad[0, 0] == 0.0
        assert rad[1, 1] == pytest.approx(math.sqrt(2.0))


class TestFieldValidation:
    def test_shape_mismatch_rejected(self):
        spec = GridSpec(2, 4)
        with pytest.raises(DomainError):
            SpatialField(spec, np.zeros((4, 5), dtype=complex))

    def test_nonfinite_rejected(self):
        spec = GridSpec(2, 4)
        bad = np.zeros(spec.shape, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(DomainError):
            SpatialField(spec, bad)


class TestTransforms:
    def test_constant_field_concentrates_at_zero(self):
        spec = GridSpec(2, 8)
        F = forward_transform(SpatialField(spec, np.ones(spec.shape,
                                                         dtype=complex)))
        coeff = F.coefficients.copy()
        assert abs(coeff[0, 0]) > 0
        coeff[0, 0] = 0.0
        assert np.max(np.abs(coeff)) < 1e-12

    def test_single_mode_is_delta(self):
        spec = GridSpec(2, 8)
        x = np.arange(8) / 8.0
        xx, yy = np.meshgrid(x, x, indexing="ij")
        mode = np.exp(2j * math.pi * (2 * xx + 1 * yy))
        F = forward_transform(SpatialField(spec, mode))
        idx = np.unravel_index(np.argmax(np.abs(F.coefficients)), F.coefficients.shape)
        assert idx == (2, 1)

    @pytest.mark.parametrize("d, n", PAIRS)
    def test_parseval(self, d, n):
        spec = GridSpec(d, n)
        f = _random_field(spec, seed=d * 10 + n)
        F = forward_transform(f)
        spatial = np.sum(np.abs(f.samples) ** 2) * spec.cell_volume
        spectral = np.sum(np.abs(F.coefficients) ** 2)
        assert spatial == pytest.approx(spectral, rel=1e-12)

    @pytest.mark.parametrize("d, n", PAIRS)
    def test_round_trip(self, d, n):
        spec = GridSpec(d, n)
        f = _random_field(spec, seed=d)
        back = inverse_transform(forward_transform(f))
        assert np.max(np.abs(back.samples - f.samples)) \
            <= 1e-12 * np.max(np.abs(f.samples))


class TestNorms:
    def test_constant_one_unit_box(self):
        spec = GridSpec(2, 8)
        f = SpatialField(spec, np.ones(spec.shape, dtype=complex))
        assert l2_norm(f) == pytest.approx(1.0)

    def test_single_mode_l2(self):
        spec = GridSpec(2, 8)
        x = np.arange(8) / 8.0
        xx, yy = np.meshgrid(x, x, indexing="ij")
        f = SpatialField(spec, np.exp(2j * math.pi * (xx + yy)))
        assert l2_norm(f) == pytest.approx(1.0)

    def test_homogeneity(self):
        spec = GridSpec(2, 8)
        f = _random_field(spec)
        g = SpatialField(spec, 2.0 * f.samples)
        assert l2_norm(g) == pytest.approx(2.0 * l2_norm(f))

    def test_triangle_inequality(self):
        spec = GridSpec(2, 8)
        f, g = _random_field(spec, 1), _random_field(spec, 2)
        s = SpatialField(spec, f.samples + g.samples)
        assert l2_norm(s) <= l2_norm(f) + l2_norm(g) + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), scale=st.floats(0.01, 100.0))
    def test_norm_scaling_property(self, seed, scale):
        spec = GridSpec(2, 8)
        f = _random_field(spec, seed)
        g = SpatialField(spec, scale * f.samples)
        assert l2_norm(g) == pytest.approx(scale * l2_norm(f), rel=1e-10)

    def test_matches_the_modulus_squared_sum(self):
        # real samples are squared directly, complex ones through |x|^2
        spec = GridSpec(3, 8)
        for f in (_random_field(spec, 4),
                  SpatialField(spec, _random_field(spec, 5).samples.real)):
            want = float(np.sqrt(np.sum(np.abs(f.samples) ** 2)
                                 * spec.cell_volume))
            assert l2_norm(f) == want


def _full_lattice_band_limited(spec, band_radius, seed):
    """The field built on the whole lattice: masked draws, their average
    with the conjugate reflection, and one inverse transform."""
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    radius = spec.freq_radius()
    coeff = np.where((radius > 0) & (radius <= band_radius), coeff, 0.0)
    reflected = coeff
    for axis in range(spec.dimension):
        reflected = np.roll(np.flip(reflected, axis=axis), 1, axis=axis)
    coeff = 0.5 * (coeff + np.conj(reflected))
    return inverse_transform(SpectralField(spec, coeff)).samples.real


class TestRandomBandLimited:
    @pytest.mark.parametrize("d, n", [(1, 16), (2, 32), (2, 64), (3, 6),
                                      (3, 16), (3, 32), (4, 8), (4, 16),
                                      (5, 8), (6, 10), (8, 4)])
    @pytest.mark.parametrize("period", [1.0, 2.5])
    def test_bit_identical_to_the_full_lattice_construction(self, d, n,
                                                            period):
        # from a band with few bins (none at all for (8, 4) at period 1) to
        # ones that nearly reach the Nyquist planes
        spec = GridSpec(d, n, period)
        nyquist = n / (2.0 * period)
        for band in (0.3 * nyquist, 0.9 * nyquist, 0.98 * nyquist):
            for seed in (0, 1, 12345):
                got = random_band_limited(spec, band, seed).samples
                want = _full_lattice_band_limited(spec, band, seed)
                assert got.dtype == np.float64
                assert np.array_equal(got, want)

    def test_seed_repeatability(self):
        spec = GridSpec(4, 8)
        a = random_band_limited(spec, 2.0, seed=7)
        b = random_band_limited(spec, 2.0, seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        spec = GridSpec(4, 8)
        a = random_band_limited(spec, 2.0, seed=7)
        b = random_band_limited(spec, 2.0, seed=8)
        assert not np.array_equal(a.samples, b.samples)

    def test_mean_zero(self):
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 2.0, seed=1)
        F = forward_transform(f)
        assert abs(F.coefficients[(0,) * 4]) < 1e-12

    def test_band_support(self):
        spec = GridSpec(2, 16)
        f = random_band_limited(spec, 3.0, seed=1)
        coeff = forward_transform(f).coefficients
        outside = spec.freq_radius() > 3.0
        assert np.max(np.abs(coeff[outside])) < 1e-12

    def test_real_valued(self):
        spec = GridSpec(3, 8)
        f = random_band_limited(spec, 2.0, seed=3)
        assert f.samples.dtype == np.float64

    def test_band_too_large_rejected(self):
        spec = GridSpec(2, 8)  # nyquist = 4
        with pytest.raises(DomainError):
            random_band_limited(spec, 4.0, seed=0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_real_and_supported_property(self, seed):
        spec = GridSpec(2, 16)
        f = random_band_limited(spec, 5.0, seed=seed)
        assert np.max(np.abs(f.samples.imag)) < 1e-10
        coeff = forward_transform(f).coefficients
        assert abs(coeff[0, 0]) < 1e-10

