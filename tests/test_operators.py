"""Spectral/spatial operators: symbols, kernels, maximal and square operators,
Poisson projections, method of rotations."""

import functools
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import fft as sfft
from scipy.special import sici

from rieszmax import operators
from rieszmax.errors import (DomainError, ResourceError,
                             UnsupportedDimensionError)
from rieszmax.experiments import _kernel_transforms, default_truncation_grid
from rieszmax.fields import (GridSpec, SpatialField, forward_transform,
                             inverse_transform, l2_norm, random_band_limited)
from rieszmax.multiplier import m_eval, m_values
from rieszmax.operators import (MAXIMAL_FAMILIES, Kernel, MultiplierSymbol,
                                TruncationGrid, apply_symbol, half_spectrum,
                                maximal_over, poisson_projection_sum,
                                radial_bundle, riesz_radial_profile,
                                rotation_reconstruct, sphere_moment,
                                square_function, vector_maximal)


def _single_mode(spec, k):
    """e^{2 pi i k . x / L} sampled on the grid."""
    axes = [np.arange(spec.points_per_axis) / spec.points_per_axis
            for _ in range(spec.dimension)]
    grids = np.meshgrid(*axes, indexing="ij")
    phase = sum(ki * g for ki, g in zip(k, grids))
    return SpatialField(spec, np.exp(2j * math.pi * phase))


# Per-t references, one apply_symbol per truncation value and axis, sharing
# no code with the radius-class reductions.

_FAMILY_SYMBOL = {
    "truncated_riesz": lambda j, t: MultiplierSymbol.truncated_riesz(j, t),
    "factor_m": lambda j, t: MultiplierSymbol.factor_m(t),
    "poisson": lambda j, t: MultiplierSymbol.poisson(t),
    "conjugate_poisson": lambda j, t: MultiplierSymbol.conjugate_poisson(j, t),
}


def _maximal_reference(f, family, ts, j=1):
    sup = np.zeros(f.spec.shape)
    for t in ts:
        vals = np.abs(apply_symbol(f, _FAMILY_SYMBOL[family](j, float(t))).samples)
        np.maximum(sup, vals, out=sup)
    return sup


def _vector_truncation(f, t):
    """(sum_j |R_j^t f|^2)^(1/2)."""
    acc = np.zeros(f.spec.shape)
    for j in range(1, f.spec.dimension + 1):
        comp = apply_symbol(f, MultiplierSymbol.truncated_riesz(j, t))
        acc += np.abs(comp.samples) ** 2
    return np.sqrt(acc)


def _vector_reference(f, ts):
    sup = np.zeros(f.spec.shape)
    for t in ts:
        np.maximum(sup, _vector_truncation(f, float(t)), out=sup)
    return sup


def _projection(f, n):
    """S_n f = (P_{2^(n-1)} - P_{2^n}) f."""
    return (apply_symbol(f, MultiplierSymbol.poisson(2.0 ** (n - 1))).samples
            - apply_symbol(f, MultiplierSymbol.poisson(2.0 ** n)).samples)


class _RadialSymbol:
    """A symbol profile(|xi|) for apply_symbol, from any radial function."""

    def __init__(self, profile):
        self.profile = profile

    def values(self, spec):
        return self.profile(spec.freq_radius()).astype(complex)


def _square_reference(f, ts):
    """(sum over the nodes of w t |d/dt P_t f|^2)^(1/2), with w the
    trapezoid weights of int ... dt: one apply_symbol per node."""
    d = f.spec.dimension
    w = np.zeros_like(ts)
    w[:-1] += 0.5 * np.diff(ts)
    w[1:] += 0.5 * np.diff(ts)
    acc = np.zeros(f.spec.shape)
    for t, wt in zip(ts, w * ts):
        sym = _RadialSymbol(lambda r, t=t: -(r / math.sqrt(d))
                            * np.exp(-t * r / math.sqrt(d)))
        acc += wt * np.abs(apply_symbol(f, sym).samples) ** 2
    return np.sqrt(acc)


class TestTruncationGrid:
    def test_values_sorted_dedup(self):
        grid = TruncationGrid(-1, 1, depth=2)
        vals = grid.values()
        assert np.all(np.diff(vals) > 0)
        assert vals[0] == 0.5 and vals[-1] == 2.0 * 1.75

    def test_depth_zero_is_dyadic(self):
        grid = TruncationGrid(-2, 3, depth=0)
        assert np.allclose(grid.values(), grid.dyadic_values())

    def test_octave_values_endpoints(self):
        grid = TruncationGrid(0, 2, depth=3)
        octave = grid.octave_values(1)
        assert octave[0] == 2.0 and octave[-1] == 4.0 and len(octave) == 9

    def test_invalid_rejected(self):
        with pytest.raises(DomainError):
            TruncationGrid(2, 1)
        with pytest.raises(DomainError):
            TruncationGrid(0, 1, depth=-1)

    @pytest.mark.parametrize("n_min, n_max", [(1020, 1030), (1023, 1024),
                                              (-1100, -1070), (-1075, 0)])
    def test_exponents_outside_the_doubles_rejected(self, n_min, n_max):
        # 2^n is a positive finite double for -1074 <= n <= 1023 only
        with pytest.raises(DomainError):
            TruncationGrid(n_min, n_max)

    def test_exponents_at_the_doubles_ends(self):
        values = TruncationGrid(-1074, 1023).values()
        assert values[0] == 2.0 ** -1074 > 0.0
        assert values[-1] == 2.0 ** 1023 < math.inf


class TestRadialProfile:
    def test_d4_matches_multiplier(self):
        xs = np.array([0.0, 0.5, 2.0])
        prof = riesz_radial_profile(4, xs)
        for x, v in zip(xs, prof):
            assert v == pytest.approx(m_eval(4, float(x)).value, abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_low_dim_value_at_zero(self, d):
        assert riesz_radial_profile(d, np.array([0.0]))[0] \
            == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_low_dim_quadrature_oracle(self, d):
        # independent oracle: direct adaptive quadrature of the defining
        # tail integral pref * int_{2 pi x}^R r^(-d/2) J_{d/2}(r) dr
        from scipy.integrate import quad
        from scipy.special import gammaln, jv
        x = 0.7
        pref = math.exp(0.5 * d * math.log(2.0) + float(gammaln((d + 1) / 2))
                        - 0.5 * math.log(math.pi))
        val, _ = quad(lambda r: r ** (-d / 2.0) * jv(d / 2.0, r),
                      2.0 * math.pi * x, 4000.0, limit=4000)
        assert riesz_radial_profile(d, np.array([x]))[0] \
            == pytest.approx(pref * val, abs=2e-3)

    def test_d1_rejected(self):
        with pytest.raises(UnsupportedDimensionError):
            riesz_radial_profile(1, np.array([1.0]))


class TestSymbols:
    def test_riesz_on_single_mode(self):
        spec = GridSpec(4, 8)
        sym = MultiplierSymbol.riesz(1).values(spec)
        assert sym[1, 0, 0, 0] == pytest.approx(-1j)
        assert sym[(0,) * 4] == 0.0

    def test_poisson_at_zero_t_is_identity(self):
        spec = GridSpec(2, 8)
        sym = MultiplierSymbol.poisson(0.0).values(spec)
        assert np.allclose(sym, 1.0)

    def test_factor_m_single_mode_scaling(self):
        spec = GridSpec(4, 8)
        f = _single_mode(spec, (1, 0, 0, 0))
        t = 0.3
        out = apply_symbol(f, MultiplierSymbol.factor_m(t))
        expected = m_eval(4, t * 1.0).value
        ratio = out.samples[0, 0, 0, 0] / f.samples[0, 0, 0, 0]
        assert ratio == pytest.approx(expected, abs=1e-8)

    def test_factor_m_small_t_near_identity(self):
        spec = GridSpec(4, 8)
        f = _single_mode(spec, (1, 0, 0, 0))
        out = apply_symbol(f, MultiplierSymbol.factor_m(1e-6))
        assert np.max(np.abs(out.samples - f.samples)) < 1e-4

    def test_factorization_coefficient_identity(self):
        spec = GridSpec(4, 8)
        t = 0.25
        combined = MultiplierSymbol.truncated_riesz(1, t).values(spec)
        product = MultiplierSymbol.factor_m(t).values(spec) \
            * MultiplierSymbol.riesz(1).values(spec)
        assert np.max(np.abs(combined - product)) < 1e-12

    def test_factor_m_symbol_at_exact_arguments(self):
        spec = GridSpec(4, 8)
        t = 0.123456789012345
        sym = MultiplierSymbol.factor_m(t).values(spec)
        want = m_values(4, t * spec.freq_radius())
        assert np.max(np.abs(sym - want)) <= 1e-14

    def test_riesz_squared_laplacian_identity(self):
        # (R_j)^2 (Delta f) = -d_j^2 f: on symbols,
        # (-i xi_j / |xi|)^2 (-4 pi^2 |xi|^2) = 4 pi^2 xi_j^2
        spec = GridSpec(3, 8)
        riesz = MultiplierSymbol.riesz(2).values(spec)
        lap = -4.0 * math.pi ** 2 * spec.freq_radius() ** 2
        xi2 = spec.freq_component(2)
        lhs = riesz * riesz * lap
        rhs = 4.0 * math.pi ** 2 * xi2 ** 2
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_vector_riesz_isometry(self):
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=5)
        total = sum(l2_norm(apply_symbol(f, MultiplierSymbol.riesz(j))) ** 2
                    for j in range(1, 5))
        assert total == pytest.approx(l2_norm(f) ** 2, rel=1e-12)

    def test_contraction_ceilings(self):
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=6)
        norm_f = l2_norm(f)
        # sup |m| on a dense grid of [0, 4]; |m(x)| <= 1/2 beyond (the
        # large-argument lemma's sqrt(d)/x), below m(0) = 1
        m_ceiling = float(np.max(np.abs(m_values(4, np.arange(0.0, 4.02, 0.02)))))
        for sym, ceiling in [
            (MultiplierSymbol.riesz(1), 1.0),
            (MultiplierSymbol.poisson(0.5), 1.0),
            (MultiplierSymbol.conjugate_poisson(1, 0.5), 1.0),
            (MultiplierSymbol.factor_m(0.3), m_ceiling),
        ]:
            assert l2_norm(apply_symbol(f, sym)) <= ceiling * norm_f + 1e-10

    @pytest.mark.parametrize("ctor, args", [
        (MultiplierSymbol.truncated_riesz, (1, 0.0)),
        (MultiplierSymbol.factor_m, (-1.0,)),
        (MultiplierSymbol.poisson, (-0.5,)),
    ])
    def test_invalid_parameters_rejected(self, ctor, args):
        with pytest.raises(DomainError):
            ctor(*args)


class TestSpatialKernel:
    def test_normalization_constant(self):
        # c_d = Gamma((d+1)/2) / pi^((d+1)/2)
        k = Kernel(dimension=2, axis=1, truncation=0.1)
        assert k.normalization() == pytest.approx(
            math.gamma(1.5) / math.pi ** 1.5, rel=1e-12)

    def test_kernel_odd_and_truncated(self):
        spec = GridSpec(2, 16)
        k = Kernel(dimension=2, axis=1, truncation=0.2, image_radius=0)
        vals = k.sample(spec)
        assert vals[0, 0] == 0.0
        assert vals[1, 0] == 0.0  # |x| = 1/16 < 0.2 inside the truncation
        assert vals[5, 0] == pytest.approx(-vals[-5, 0])  # oddness

    @pytest.mark.parametrize("d, n, period, axis, t, image_radius, points", [
        (2, 8, 1.0, 1, 0.1, 2, [(0, 0), (1, 0), (3, 6), (4, 1), (4, 4)]),
        (3, 8, 1.0, 2, 0.2, 1, [(0, 0, 0), (0, 1, 0), (0, 3, 1), (4, 2, 7),
                                (5, 4, 6)]),
        (4, 6, 2.0, 4, 0.45, 1, [(0, 0, 0, 1), (1, 2, 3, 4), (3, 3, 0, 5)]),
    ])
    def test_sample_matches_brute_force_image_sum(self, d, n, period, axis, t,
                                                   image_radius, points):
        # c_d x_axis / |x|^(d+1) summed over the image cells with |x| > t,
        # then its odd part over the lattice, one point at a time
        c_d = math.gamma((d + 1) / 2) / math.pi ** ((d + 1) / 2)
        h = period / n

        def image_sum(index):
            total = 0.0
            for cell in itertools.product(range(-image_radius,
                                                image_radius + 1), repeat=d):
                x = [((i if i < n // 2 else i - n) * h) + c * period
                     for i, c in zip(index, cell)]
                r = math.sqrt(sum(v * v for v in x))
                if r > t:
                    total += x[axis - 1] / r ** (d + 1)
            return total

        vals = Kernel(d, axis, t, image_radius).sample(GridSpec(d, n, period))
        scale = np.max(np.abs(vals))
        for index in points:
            mirror = tuple(-i % n for i in index)
            want = c_d * 0.5 * (image_sum(index) - image_sum(mirror))
            assert abs(vals[index] - want) <= 1e-13 * scale

    @pytest.mark.parametrize("d, n, image_radius, axis", [
        (2, 64, 2, 1), (3, 16, 1, 3), (2, 16, 0, 2), (4, 8, 1, 2)])
    def test_one_walk_gives_each_truncation_walk_bit_for_bit(
            self, d, n, image_radius, axis):
        # every t's sample from one walk, unsorted and with a repeat, is
        # byte for byte that of its own walk, which adds x_axis / r^(d+1)
        # or 0.0 for each image; tobytes tells signed zeros apart
        spec = GridSpec(d, n)
        ts = [0.3, 0.05, 0.15, 0.05]

        def own_walk(t):
            base = np.fft.fftfreq(n) * spec.period
            total = np.zeros(spec.shape)
            shifts = np.arange(-image_radius, image_radius + 1) * spec.period
            for image in itertools.product(shifts, repeat=d):
                coords = np.meshgrid(*(base + s for s in image),
                                     indexing="ij", sparse=True)
                r = np.sqrt(sum(c ** 2 for c in coords))
                vals = np.zeros(spec.shape)
                np.divide(coords[axis - 1], r ** (d + 1), out=vals,
                          where=r > t)
                total += vals
            reflected = total
            for a in range(d):
                reflected = np.roll(np.flip(reflected, axis=a), 1, axis=a)
            return Kernel(d, axis, t).normalization() * 0.5 \
                * (total - reflected)

        got = operators._kernel_samples(spec, axis, ts, image_radius)
        assert len(got) == len(ts)
        for t, sample in zip(ts, got):
            assert sample.tobytes() == own_walk(t).tobytes(), t
            assert sample.tobytes() == Kernel(
                d, axis, t, image_radius).sample(spec).tobytes(), t

    def test_constant_field_annihilated(self):
        # a constant field's image is its mean times cv K^(0), and K^(0) is
        # the sum of the odd kernel's samples
        spec = GridSpec(2, 16)
        k_hat = sfft.rfftn(Kernel(2, 1, 0.2).sample(spec))
        assert abs(k_hat[0, 0]) * spec.cell_volume < 1e-12

    def test_reflection_antisymmetry(self):
        # the kernel is real and odd, so it anticommutes with x -> -x: its
        # transform is purely imaginary, which the factorization keeps as
        # one real half lattice
        spec = GridSpec(2, 16)
        k_hat = sfft.rfftn(Kernel(2, 1, 0.2).sample(spec))
        assert np.max(np.abs(k_hat.real)) <= 1e-13 * np.max(np.abs(k_hat.imag))
        [kept] = _kernel_transforms(spec, [0.2], 1)
        assert np.array_equal(kept, k_hat.imag)

    def test_truncation_exceeding_half_period_rejected(self):
        with pytest.raises(DomainError):
            _kernel_transforms(GridSpec(2, 16), [0.5], 1)

    def test_agreement_with_spectral_route(self):
        # ||(cv K^ - sigma) f^|| / ||f^|| by Parseval over the half lattice,
        # where a bin off the planes k_d = 0, N/2 stands for k and -k
        spec = GridSpec(4, 16)
        half = spec.points_per_axis // 2 + 1
        f_hat = np.fft.rfftn(random_band_limited(spec, 3.0, seed=0).samples)
        k_hat = np.fft.rfftn(Kernel(4, 1, 0.15).sample(spec))
        sigma = MultiplierSymbol.truncated_riesz(1, 0.15).values(spec)
        weight = np.full(half, 2.0)
        weight[[0, -1]] = 1.0

        def norm(x):
            return math.sqrt(np.sum(weight * np.square(np.abs(x))))

        rel = norm((spec.cell_volume * k_hat - sigma[..., :half]) * f_hat) \
            / norm(f_hat)
        assert rel <= 0.1


class TestMaximalOperators:
    def test_single_t_grid_reduces_to_operator(self):
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=4)
        grid = TruncationGrid(-1, -1, depth=0)
        out = maximal_over(f, "factor_m", grid)
        direct = apply_symbol(f, MultiplierSymbol.factor_m(0.5))
        assert np.max(np.abs(out.samples - np.abs(direct.samples))) < 1e-8

    def test_refinement_monotone(self):
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=4)
        coarse = maximal_over(f, "factor_m", TruncationGrid(-4, 2, depth=0))
        fine = maximal_over(f, "factor_m", TruncationGrid(-4, 2, depth=2))
        assert np.all(fine.samples.real >= coarse.samples.real - 1e-12)

    def test_dominated_by_sum(self):
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=4)
        grid = TruncationGrid(-2, 0, depth=0)
        out = maximal_over(f, "factor_m", grid)
        total = np.zeros(spec.shape)
        for t in grid.values():
            total += np.abs(apply_symbol(f, MultiplierSymbol.factor_m(float(t))).samples)
        assert np.all(out.samples.real <= total + 1e-10)

    def test_single_mode_factor_m_oracle(self):
        spec = GridSpec(4, 8)
        f = _single_mode(spec, (1, 0, 0, 0))
        grid = TruncationGrid(-8, 4, depth=4)
        out = maximal_over(f, "factor_m", grid)
        expected = max(abs(m_eval(4, float(t)).value) for t in grid.values())
        assert np.max(np.abs(out.samples)) == pytest.approx(expected, abs=1e-8)

    def test_single_mode_poisson_sup_at_smallest_t(self):
        spec = GridSpec(4, 8)
        f = _single_mode(spec, (1, 0, 0, 0))
        grid = TruncationGrid(-3, 3, depth=1)
        out = maximal_over(f, "poisson", grid)
        t_min = grid.values()[0]
        expected = math.exp(-t_min * 1.0 / 2.0)  # |xi| = 1, sqrt(d) = 2
        assert np.max(np.abs(out.samples)) == pytest.approx(expected, abs=1e-10)

    def test_unknown_family_rejected(self):
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 2.0, seed=1)
        with pytest.raises(DomainError):
            maximal_over(f, "heat", TruncationGrid(0, 1))

    def test_truncated_riesz_family_matches_direct(self):
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=2)
        grid = TruncationGrid(-2, 1, depth=1)
        out = maximal_over(f, "truncated_riesz", grid, j=2)
        direct = _maximal_reference(f, "truncated_riesz", grid.values(), 2)
        assert np.max(np.abs(out.samples - direct)) < 1e-8


class TestVectorOperators:
    def test_zero_field(self):
        spec = GridSpec(3, 8)
        f = SpatialField(spec, np.zeros(spec.shape, dtype=complex))
        out = vector_maximal(f, TruncationGrid(-3, 1, depth=1)).samples
        assert out.dtype == np.float64 and np.all(out == 0.0)

    def test_single_mode_vector_equals_scalar_profile(self):
        spec = GridSpec(4, 8)
        f = _single_mode(spec, (1, 0, 0, 0))
        out = vector_maximal(f, TruncationGrid(-1, -1, depth=0))
        expected = abs(m_eval(4, 0.5).value)
        assert np.max(np.abs(out.samples)) == pytest.approx(expected, abs=1e-8)
        assert np.min(np.abs(out.samples)) == pytest.approx(expected, abs=1e-8)

    def test_single_t_vector_maximal_reduces(self):
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=3)
        grid = TruncationGrid(-1, -1, depth=0)
        vm = vector_maximal(f, grid)
        vt = _vector_truncation(f, 0.5)
        assert np.max(np.abs(vm.samples - vt)) < 1e-5

    def test_vector_maximal_refinement_monotone(self):
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=3)
        coarse = vector_maximal(f, TruncationGrid(-3, 1, depth=0))
        fine = vector_maximal(f, TruncationGrid(-3, 1, depth=2))
        assert np.all(fine.samples.real >= coarse.samples.real - 1e-5)


class TestRadialBundle:
    def test_reconstructs_field(self):
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=8)
        bundle = radial_bundle(f)
        recon = bundle.components.sum(axis=1).reshape(spec.shape)
        assert np.max(np.abs(recon - f.samples)) < 1e-10

    def test_band_limited_has_few_radii(self):
        spec = GridSpec(4, 16)
        f = random_band_limited(spec, 3.0, seed=8)
        bundle = radial_bundle(f)
        # radii^2 are integers in 1..9
        assert len(bundle.radii) <= 9

    def test_reconstructs_complex_single_mode(self):
        spec = GridSpec(4, 8)
        f = _single_mode(spec, (1, -2, 0, 4))     # k_4 = 4 on the Nyquist plane
        bundle = radial_bundle(f)
        assert not bundle.is_real
        assert bundle.radii.tolist() == [pytest.approx(math.sqrt(21.0))]
        recon = bundle.components.sum(axis=1).reshape(spec.shape)
        assert np.max(np.abs(recon - f.samples)) < 1e-10

    def test_reconstructs_real_white_noise(self):
        # every lattice frequency carries energy, the Nyquist planes included
        spec = GridSpec(3, 8)
        rng = np.random.default_rng(5)
        f = SpatialField(spec, rng.standard_normal(spec.shape).astype(complex))
        bundle = radial_bundle(f)
        assert bundle.is_real and bundle.components.dtype == np.float64
        recon = bundle.components.sum(axis=1).reshape(spec.shape)
        assert np.max(np.abs(recon - f.samples)) < 1e-10
        # the Riesz symbol is odd except on the axis-1 Nyquist plane, where
        # it is anti-Hermitian, so the filtered components turn complex
        filtered = radial_bundle(f, axis=1)
        assert not filtered.is_real
        recon = filtered.components.sum(axis=1).reshape(spec.shape)
        direct = apply_symbol(f, MultiplierSymbol.riesz(1)).samples
        assert np.max(np.abs(recon - direct)) < 1e-10

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_riesz_bundle_matches_symbol_on_every_axis(self, axis):
        # a complex white-noise field carries energy on every Nyquist plane,
        # the last (half-spectrum) axis included
        spec = GridSpec(3, 8)
        rng = np.random.default_rng(6)
        f = SpatialField(spec, rng.standard_normal(spec.shape)
                         + 1j * rng.standard_normal(spec.shape))
        bundle = radial_bundle(f, axis=axis)
        recon = bundle.components.sum(axis=1).reshape(spec.shape)
        direct = apply_symbol(f, MultiplierSymbol.riesz(axis)).samples
        assert np.max(np.abs(recon - direct)) < 1e-10

    def test_band_limited_riesz_components_are_real(self):
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=8)
        bundle = radial_bundle(f, axis=2)
        assert bundle.is_real and bundle.components.dtype == np.float64


def _class_components_at(f, axis, points):
    """The radius classes of f under the axis-th Riesz symbol (the identity
    when axis is None) at grid points given by their multi-indices, summed
    directly: u_c(x) = sum over |k|^2 = c of g(k) fhat(k) e^{2 pi i k.x/L}.
    fhat comes from numpy's full complex FFT and the phases from a table of
    e^{2 pi i m/N}, indexed by k.n mod N.  Returns {c: u_c at the points}."""
    spec = f.spec
    n = spec.points_per_axis
    coeff = np.fft.fftn(f.samples) / spec.n_samples
    bins = np.argwhere(np.abs(coeff) > 1e-10 * np.max(np.abs(coeff)))
    k = np.where(bins >= n // 2, bins - n, bins)    # index N/2 is -N/2
    k2 = np.sum(k ** 2, axis=1)
    weight = coeff[tuple(bins.T)]
    if axis is not None:
        norm = np.sqrt(np.maximum(k2, 1))
        weight = weight * np.where(k2 > 0, -1j * k[:, axis - 1] / norm, 0.0)
    phase = np.exp(2j * math.pi * np.arange(n) / n)[(points @ k.T) % n]
    return {c: phase[:, k2 == c] @ weight[k2 == c] for c in np.unique(k2)}


class TestBundleAtPoints:
    """radial_bundle against direct trigonometric sums at grid points, which
    take no inverse FFT, for the identity and every Riesz axis."""

    @pytest.mark.parametrize("d, n, band", [(4, 8, 2.5), (6, 6, 2.0),
                                            (8, 4, 1.5)])
    def test_classes_match_direct_sums(self, d, n, band):
        spec = GridSpec(d, n)
        real = random_band_limited(spec, band, seed=31)
        imag = random_band_limited(spec, band, seed=32)
        # cosines on the Nyquist planes of axis 1 and of the last axis, where
        # the Riesz symbol is anti-Hermitian
        nyquist = real.samples.copy()
        for k in [(n // 2, 1) + (0,) * (d - 2), (0,) * (d - 2) + (1, n // 2)]:
            nyquist += _single_mode(spec, k).samples.real
        fields = [real, SpatialField(spec, real.samples + 1j * imag.samples),
                  SpatialField(spec, nyquist)]
        points = np.random.default_rng(33).integers(0, n, size=(300, d))
        flat = np.ravel_multi_index(tuple(points.T), spec.shape)
        for f in fields:
            for axis in [None, *range(1, d + 1)]:
                bundle = radial_bundle(f, axis)
                classes = np.rint((bundle.radii * spec.period) ** 2).astype(int)
                got = bundle.components[flat]
                want = np.zeros(got.shape, dtype=complex)
                for c, values in _class_components_at(f, axis, points).items():
                    want[:, np.flatnonzero(classes == c)[0]] = values
                assert np.max(np.abs(got - want)) \
                    <= 1e-13 * np.max(np.abs(want))


def _class_energies(f, axis):
    """||u_c||_2^2 of each class c = |k|^2 of f under the axis-th Riesz
    symbol (the identity when axis is None), from numpy's full complex FFT:
    the coefficients times -i k_axis / |k|, their squared moduli summed per
    integer |k|^2 and scaled by L^d.  Returns {c: energy}."""
    spec = f.spec
    n, d = spec.points_per_axis, spec.dimension
    coeff = np.fft.fftn(f.samples) / spec.n_samples
    k = np.stack(np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n)] * d,
                             indexing="ij"))        # index N/2 is -N/2
    k2 = np.rint(np.sum(k ** 2, axis=0)).astype(int)
    if axis is not None:
        norm = np.sqrt(np.maximum(k2, 1))
        coeff = coeff * np.where(k2 > 0, -1j * k[axis - 1] / norm, 0.0)
    energy = np.abs(coeff) ** 2 * spec.period ** d
    return {c: energy[k2 == c].sum() for c in np.unique(k2)}


class TestHalfSpectrumEnergies:
    """HalfSpectrum.energies against the class energies of the full-lattice
    FFT, for the identity and every Riesz axis."""

    GRIDS = [(1, 16, 1.0), (2, 8, 2.5), (3, 8, 1.0), (4, 6, 0.7)]

    @staticmethod
    def _fields(spec):
        """Real and complex white noise, which carry energy on every Nyquist
        plane, and single modes on and off the Nyquist planes of the first
        and last axes, complex and as a real cosine."""
        d, n = spec.dimension, spec.points_per_axis
        rng = np.random.default_rng(80 + d)
        noise = rng.standard_normal(spec.shape)
        nyquist = _single_mode(spec, (n // 2,) + (1,) * (d - 2)
                               + (n // 2,) * (d > 1))
        return {"real_noise": SpatialField(spec, noise),
                "complex_noise": SpatialField(
                    spec, noise + 1j * rng.standard_normal(spec.shape)),
                "mode": _single_mode(spec, (1, -2, 0, 2)[:d]),
                "nyquist_mode": nyquist,
                "nyquist_cosine": SpatialField(spec, nyquist.samples.real)}

    @pytest.mark.parametrize("d, n, period", GRIDS)
    def test_matches_the_full_lattice_energies(self, d, n, period):
        spec = GridSpec(d, n, period)
        for kind, f in self._fields(spec).items():
            spectrum = half_spectrum(f)
            classes = spectrum.classes.tolist()
            floor = operators._REL_TOL ** 2 * l2_norm(f) ** 2
            for axis in [None, *range(1, d + 1)]:
                got = spectrum.energies(axis)
                assert got.shape == spectrum.radii.shape
                for c, want in _class_energies(f, axis).items():
                    value = got[classes.index(c)] if c in classes else 0.0
                    assert abs(value - want) <= 1e-13 * want + floor, \
                        (kind, axis, c)

    @pytest.mark.parametrize("d, n, period", GRIDS)
    def test_energies_add_to_the_squared_norms(self, d, n, period):
        # sum_j |k_j|^2 / |k|^2 = 1 off k = 0, where the Riesz symbols vanish
        spec = GridSpec(d, n, period)
        for kind, f in self._fields(spec).items():
            spectrum = half_spectrum(f)
            norm_sq = l2_norm(f) ** 2
            mean_sq = abs(np.mean(f.samples)) ** 2 * period ** d
            riesz = sum(np.sum(spectrum.energies(j)) for j in range(1, d + 1))
            assert np.sum(spectrum.energies(None)) \
                == pytest.approx(norm_sq, rel=1e-13, abs=0.0), kind
            assert riesz == pytest.approx(norm_sq - mean_sq, rel=1e-13,
                                          abs=0.0), kind


class TestBandSpectrum:
    """The sweep's half spectrum, drawn at the band's bins, against the
    forward transform of random_band_limited's field."""

    @pytest.mark.parametrize("d, n, period", [(1, 16, 1.0), (2, 64, 2.5),
                                              (3, 32, 1.0), (4, 16, 0.7),
                                              (6, 10, 1.0), (8, 4, 1.0)])
    def test_matches_the_transformed_field(self, d, n, period):
        spec = GridSpec(d, n, period)
        nyquist = n / (2.0 * period)
        for band, seed in [(min(3.0 / period, 0.98 * nyquist), 42),
                           (0.9 * nyquist, 7)]:
            drawn = operators._band_spectrum(spec, band, seed)
            want = half_spectrum(random_band_limited(spec, band, seed))
            assert drawn.imag is None and want.imag is None
            assert np.array_equal(drawn.active, want.active)
            assert np.array_equal(drawn.classes, want.classes)
            assert np.array_equal(drawn.class_of_bin, want.class_of_bin)
            assert np.max(np.abs(drawn.real - want.real)) \
                <= 1e-14 * np.max(np.abs(want.real))

    def test_an_empty_band_has_no_bins(self):
        # at (8, 4) and period 1 the band 0.6 holds no lattice frequency
        spectrum = operators._band_spectrum(GridSpec(8, 4), 0.6, 0)
        assert spectrum.active.size == 0 and spectrum.radii.size == 0


class TestMaximalNorms:
    """The sweep's norms from one streamed pass against l2_norm of the
    maximal_over and vector_maximal fields."""

    @pytest.mark.parametrize("case", ["gram", "columns", "nyquist"])
    def test_match_the_fields_norms(self, case):
        # the Nyquist field has energy where the symbols of axes 1 and 6
        # are anti-Hermitian, so those axes have two rows each
        from test_experiments import _sweep_reductions
        spec = GridSpec(6, 10)
        grid = (TruncationGrid(-4, 2, depth=1) if case == "columns"
                else default_truncation_grid())
        spectrum = (half_spectrum(SpatialField(
            spec, _split_fields(spec, 43)["nyquist"])) if case == "nyquist"
                    else operators._band_spectrum(spec, 3.0, 42))
        reductions = _sweep_reductions(spectrum, grid)
        plan = operators._plan(spectrum, reductions, norms=True)
        assert (plan.spans[0] is not None) == (case != "columns")
        rows = sum(len(spectrum.filtered(axis)) for axis in [None, 1, 6])
        assert rows == (5 if case == "nyquist" else 3)
        got = operators._norms(spectrum, reductions)
        want = [l2_norm(vector_maximal(spectrum, grid))]
        want += [l2_norm(maximal_over(spectrum, family, grid, j=1))
                 for family in ("factor_m", "truncated_riesz",
                                "conjugate_poisson")]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-14 * w, case


class TestBundleMemory:
    def test_build_temporaries_stay_below_two_class_buffers(self):
        # one class in flight: its complex half-spectrum buffer and the
        # float64 samples of its inverse transform
        spec = GridSpec(4, 16)
        n = spec.points_per_axis
        class_bytes = (16 * spec.n_samples // n * (n // 2 + 1)
                       + 8 * spec.n_samples)
        spectrum = half_spectrum(random_band_limited(spec, 3.0, seed=8))
        radial_bundle(spectrum)              # warm up caches and plans
        tracemalloc.start()
        try:
            bundle = radial_bundle(spectrum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(bundle.radii) == 9
        assert peak - bundle.components.nbytes < 2 * class_bytes

    def test_bundle_over_budget_is_resource_error(self, monkeypatch):
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=8)
        need = (radial_bundle(f).components.nbytes
                + operators._class_buffer_bytes(spec))
        monkeypatch.setattr(operators, "_physical_memory", lambda: need - 1)
        with pytest.raises(ResourceError):
            radial_bundle(f)
        monkeypatch.setattr(operators, "_physical_memory", lambda: need)
        radial_bundle(f)

    def test_vector_maximal_over_budget_is_resource_error(self, monkeypatch):
        # one axis bundle fits, the slab route's heads and slab buffer over
        # all d axes do not: the column route runs instead, and raises only
        # below its own estimate
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=8)
        grid = TruncationGrid(-3, 1, depth=1)
        want = vector_maximal(f, grid).samples
        need = (radial_bundle(f, axis=1).components.nbytes
                + operators._class_buffer_bytes(spec))
        column = _column_bytes(half_spectrum(f), [1, 2, 3, 4], monkeypatch)
        assert column < need
        monkeypatch.setattr(operators, "_physical_memory", lambda: need)
        got = vector_maximal(f, grid).samples
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
        monkeypatch.setattr(operators, "_physical_memory", lambda: column - 1)
        with pytest.raises(ResourceError):
            vector_maximal(f, grid)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_half_spectrum_keeps_no_reference_to_the_samples(self, kind):
        # a trial drops its field once transformed: the spectrum must not
        # keep the samples alive
        spec = GridSpec(4, 8)
        samples = random_band_limited(spec, 3.0, seed=42).samples
        if kind == "complex":
            samples = samples + 1j * samples[::-1]
        f = SpatialField(spec, samples)
        held = weakref.ref(f.samples)
        del samples
        spectrum = half_spectrum(f)
        del f
        assert held() is None
        assert spectrum.spec == spec
        assert (spectrum.imag is None) == (kind == "real")

    def test_half_spectrum_holds_only_the_active_bins(self):
        # the half spectrum's transforms are dropped once the active bins
        # are found: what stays is far below one half-lattice array
        spec = GridSpec(6, 10)
        f = random_band_limited(spec, 3.0, seed=42)
        half_bytes = 16 * spec.n_samples // 10 * 6
        half_spectrum(f)                     # warm up caches and plans
        tracemalloc.start()
        try:
            spectrum = half_spectrum(f)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        arrays = [a for a in vars(spectrum).values()
                  if isinstance(a, np.ndarray)]
        assert spectrum.real.shape == spectrum.active.shape
        assert max(a.nbytes for a in arrays) < half_bytes // 100
        assert held < half_bytes // 10

    def test_build_holds_one_head_and_one_group_tail(self):
        # at (5, 10) a group is 6 of the 10 axis-0 indices: beside the
        # components and the filtered values at the active bins, the build
        # holds one class's head and one group's tail, less than the whole
        # class buffer it took as one transform
        spec = GridSpec(5, 10)
        spectrum = half_spectrum(random_band_limited(spec, 3.0, seed=8))
        radial_bundle(spectrum)              # warm up caches and plans
        group = operators._BLOCK_VALUES // 10 ** 4
        head = max(t.head_bytes for _, t in spectrum.class_transforms)
        tail = operators._class_buffer_bytes(spec) // 10 * group
        values = spectrum.filtered(None)[0].nbytes
        tracemalloc.start()
        try:
            bundle = radial_bundle(spectrum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert group == 6
        assert head + tail < operators._class_buffer_bytes(spec)
        assert peak - bundle.components.nbytes < (head + tail + values
                                                  + _HEADERS)

    def test_d1_classes_are_whole_transforms(self):
        # at d = 1 a row of the head is a frequency, not an axis-0 index of
        # the samples: N = 2^17 exceeds _BLOCK_VALUES, and the classes must
        # still match one irfftn each
        spec = GridSpec(1, 1 << 17)
        spectrum = half_spectrum(random_band_limited(spec, 3.0, seed=5))
        bundle = radial_bundle(spectrum)
        values = spectrum.filtered(None)[0]
        assert spec.points_per_axis > operators._BLOCK_VALUES
        for i, (chosen, _) in enumerate(spectrum.class_transforms):
            want = _irfftn_reference(spec, spectrum.active[chosen],
                                     values[chosen])
            assert np.array_equal(bundle.components[:, i], want)


def _irfftn_reference(spec, bins, values):
    """One multi-axis irfftn of the half spectrum that holds values at the
    flat bins and 0 elsewhere."""
    n = spec.points_per_axis
    buffer = np.zeros((n,) * (spec.dimension - 1) + (n // 2 + 1,),
                      dtype=complex)
    buffer.reshape(-1)[bins] = values
    return sfft.irfftn(buffer, s=spec.shape, workers=1).reshape(-1)


class _StreamError(Exception):
    """Raised by a reduction in one stream of a two-stream pass."""


# Headroom over an estimate for what is not a lattice array: the array
# headers and scipy's bookkeeping of a call, about a kilobyte.
_HEADERS = 4096


def _traced_peak(run):
    """The traced peak of run(), after a run that warms caches, plans and
    m."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _column_bytes(spectrum, axes, monkeypatch):
    """The estimate of the column route for one reduction over axes: that
    of the plan _plan makes where no streamed pass fits in memory."""
    with monkeypatch.context() as patch:
        patch.setattr(operators, "_physical_memory", lambda: 0)
        plan = operators._plan(
            spectrum, [(axes, np.zeros((spectrum.radii.size, 1)), None)])
    assert plan.route == "column"
    return plan.bytes


def _streamed(spectrum, reductions, norms=False):
    """The sums of reductions (or with norms their totals) from their
    streamed plan, whichever route _route would take."""
    parts = {}
    plan = operators._stream_plan(spectrum, reductions, norms, parts)
    return operators._stream_route(spectrum, reductions, plan, parts)


def _streams_of(spectrum, reductions):
    """The reductions of each stream of the plan of a norms pass."""
    return [list(stream.reductions) for stream in
            operators._plan(spectrum, reductions, norms=True).streams]


def _plan_of(spectrum, axes, profiles=None):
    """The streamed plan of one reduction over axes, of one column when no
    profiles are given."""
    if profiles is None:
        profiles = np.zeros((spectrum.radii.size, 1))
    return operators._stream_plan(spectrum, [(axes, profiles, None)], False,
                                  {})


class TestPrunedTransform:
    @staticmethod
    def _fields(spec):
        """Band-limited real and complex fields, and real and complex white
        noise, whose energy reaches every Nyquist plane."""
        band = min(3.0, spec.points_per_axis / 2 - 0.5)
        real = random_band_limited(spec, band, seed=1).samples
        imag = random_band_limited(spec, band, seed=2).samples
        noise = np.random.default_rng(3).standard_normal((2,) + spec.shape)
        return [real, real + 1j * imag, noise[0], noise[0] + 1j * noise[1]]

    @pytest.mark.parametrize("d, n", [(2, 32), (2, 64), (3, 16), (4, 8),
                                      (4, 16), (5, 8), (6, 10), (8, 4)])
    def test_bit_identical_to_irfftn(self, d, n):
        # per-class groups (the bundle route), all active bins (the column
        # route) and a sparse random group, under the identity and the
        # first and last axis symbols
        spec = GridSpec(d, n)
        rng = np.random.default_rng(d * n)
        for samples in self._fields(spec):
            spectrum = half_spectrum(SpatialField(spec, samples))
            n_r = spectrum.radii.size
            classes = range(n_r) if n_r <= 12 else (0, n_r - 1)
            groups = [np.flatnonzero(spectrum.class_of_bin == i)
                      for i in classes]
            groups.append(np.arange(spectrum.active.size))
            groups.append(np.sort(rng.choice(spectrum.active.size, 5,
                                             replace=False)))
            for axis in (None, 1, d):
                parts = spectrum.filtered(axis)
                for chosen in groups:
                    bins = spectrum.active[chosen]
                    transform = operators._inverse_transformer(spec, bins)
                    for part in parts:
                        want = _irfftn_reference(spec, bins, part[chosen])
                        assert np.array_equal(transform(part[chosen]), want)

    def test_small_class_transforms_under_half_the_lines(self, monkeypatch):
        # |k|^2 = 1 occupies 3 of 10 indices on axes 0..4 and 2 of 6 on the
        # last: the complex passes take 81*2, 10*27*2, 100*9*2, 1000*3*2 and
        # 10^4*2 lines and the last pass 10^5, against 5 * 10^4 * 6 + 10^5
        spec = GridSpec(6, 10)
        spectrum = half_spectrum(random_band_limited(spec, 3.0, seed=42))
        lines = []
        for name in ("ifftn", "irfftn"):
            def recorded(x, *args, _fft=getattr(operators.sfft, name),
                         **kwargs):
                lines.append(x.size // x.shape[kwargs["axes"][0]])
                return _fft(x, *args, **kwargs)
            monkeypatch.setattr(operators.sfft, name, recorded)
        chosen = spectrum.class_of_bin == np.flatnonzero(
            spectrum.classes == 1)[0]
        transform = operators._inverse_transformer(
            spec, spectrum.active[chosen])
        transform(spectrum.filtered(None)[0][chosen])
        full_lines = 5 * 10 ** 4 * 6 + 10 ** 5
        assert lines == [162, 540, 1800, 6000, 20000, 100000]
        assert sum(lines) < full_lines / 2

    def test_one_class_stays_within_its_estimate(self):
        spec = GridSpec(6, 10)
        spectrum = half_spectrum(random_band_limited(spec, 3.0, seed=42))
        chosen = spectrum.class_of_bin == spectrum.radii.size - 1
        values = spectrum.filtered(None)[0][chosen]
        transform = operators._inverse_transformer(spec,
                                                   spectrum.active[chosen])
        transform(values)                   # warm up scipy's plans
        tracemalloc.start()
        try:
            transform(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= operators._class_buffer_bytes(spec) + _HEADERS


def _lattice_arrays(count):
    """The estimate of count complex lattice arrays."""
    return lambda spec: 16 * count * spec.n_samples


def _band_field(spec):
    """random_band_limited's estimate at band 3.0, from the band's bins."""
    n_bins = np.count_nonzero(spec.freq_radius() <= 3.0) - 1
    return 8 * (3 * spec.n_samples + (2 * spec.dimension + 6) * n_bins)


def _rotation_2d_bytes(spec):
    """Five complex lattice arrays, and 64 bytes per value of a block of
    _BLOCK_VALUES angle-mode pairs of the 2-d rotation symbol."""
    return _lattice_arrays(5)(spec) + 64 * operators._BLOCK_VALUES


class TestLatticeBudgets:
    """Every full-lattice operator refuses an estimate over the budget
    before it allocates, runs at the estimate, and stays within it."""

    SPEC = GridSpec(3, 16)
    CASES = {
        "apply_symbol": (SPEC, _lattice_arrays(6), lambda f: apply_symbol(
            f, MultiplierSymbol.truncated_riesz(1, 0.1))),
        "poisson_projection_sum": (SPEC, _lattice_arrays(2), lambda f:
                                   poisson_projection_sum(f, -3, 3)),
        "rotation_reconstruct_3d": (SPEC, _lattice_arrays(6), lambda f:
                                    rotation_reconstruct(f, 1, 0.1, 16)),
        "rotation_reconstruct_2d": (GridSpec(2, 64), _rotation_2d_bytes,
                                    lambda f:
                                    rotation_reconstruct(f, 1, 0.1, 16)),
        "random_band_limited": (SPEC, _band_field, lambda f:
                                random_band_limited(f.spec, 3.0, seed=6)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_estimate(self, case, monkeypatch):
        spec, estimate, run = self.CASES[case]
        f = random_band_limited(spec, 3.0, seed=6)
        need = estimate(spec)
        monkeypatch.setattr(operators, "_physical_memory", lambda: need - 1)
        with pytest.raises(ResourceError):
            run(f)
        monkeypatch.setattr(operators, "_physical_memory", lambda: need)
        run(f)                              # warm up, then trace
        tracemalloc.start()
        try:
            run(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need + _HEADERS


def _reference_classes(spectrum, axis):
    """The radius classes of the spectrum under the axis-th Riesz symbol
    (the identity when axis is None) as (parts, classes, samples), one
    irfftn of the whole half spectrum per class and part
    (_irfftn_reference): a bundle that shares no code with the pruned
    transforms or _class_chunks."""
    parts = spectrum.filtered(axis)
    out = np.empty((len(parts), spectrum.radii.size, spectrum.spec.n_samples))
    for q, part in enumerate(parts):
        for i in range(spectrum.radii.size):
            chosen = np.flatnonzero(spectrum.class_of_bin == i)
            out[q, i] = _irfftn_reference(spectrum.spec,
                                          spectrum.active[chosen],
                                          part[chosen])
    return out


def _bundle_sums(spectrum, axes, profiles, weights):
    """RadialBundle.sums's arithmetic over the reference classes of the
    one axis: max_c s_c, or sum_c weights[c] s_c, block by block of
    _sample_blocks, each part's squares added in order."""
    (axis,) = axes
    parts = _reference_classes(spectrum, axis)
    by_t = np.ascontiguousarray(profiles.T)
    out = np.empty(spectrum.spec.n_samples)
    for cols in operators._sample_blocks(out.size, by_t.shape[0]):
        s = by_t @ parts[0][:, cols]
        np.square(s, out=s)
        for part in parts[1:]:
            s += np.square(by_t @ part[:, cols])
        out[cols] = s.max(axis=0) if weights is None else weights @ s
    return out


class TestColumnRoute:
    """A real white-noise field on GridSpec(3, 16) has 116 radius classes,
    more than max(64, 2 n_t) for a 4-value grid, so every reduction takes
    one inverse transform per column and axis and runs no streamed pass."""

    GRID = TruncationGrid(-3, 0, depth=0)
    T_NODES = np.array([0.05, 0.1, 0.2, 0.4])

    @pytest.fixture
    def field(self):
        spec = GridSpec(3, 16)
        rng = np.random.default_rng(21)
        f = SpatialField(spec, rng.standard_normal(spec.shape))
        assert len(half_spectrum(f).radii) == 116
        return f

    @pytest.fixture
    def passes(self, monkeypatch):
        from test_experiments import _count_calls
        return _count_calls(monkeypatch, operators, "_class_chunks")

    @pytest.mark.parametrize("family", MAXIMAL_FAMILIES)
    def test_maximal_over_matches_per_t(self, field, passes, family):
        out = maximal_over(field, family, self.GRID, j=2).samples
        direct = _maximal_reference(field, family, self.GRID.values(), 2)
        assert len(passes) == 0
        assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(direct)

    def test_vector_maximal_matches_per_t(self, field, passes):
        out = vector_maximal(field, self.GRID).samples
        direct = _vector_reference(field, self.GRID.values())
        assert len(passes) == 0
        assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(direct)

    def test_square_functions_match_per_t(self, field, passes):
        direct = _square_reference(field, self.T_NODES)
        out = square_function(field, self.T_NODES).samples
        assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(direct)
        assert len(passes) == 0

    def test_bundle_route_agrees_with_column_route(self, field):
        # the streamed pass, and for one axis the reference classes' bundle
        # sums, forced past the class count that sends them to the columns
        spectrum = half_spectrum(field)
        ts = self.GRID.values()
        riesz = operators.profile_matrix(3, spectrum.radii, ts, "truncated_riesz")
        decay = operators.profile_matrix(3, spectrum.radii, ts, "poisson")
        for axes, profiles, weights in [([None], riesz, None),
                                        ([2], decay, None),
                                        ([1, 2, 3], riesz, None),
                                        ([None], decay, np.arange(1.0, 5.0))]:
            by_column = operators._column_route(spectrum, axes, profiles,
                                                weights)
            routes = [_streamed(spectrum, [(axes, profiles, weights)])[0]]
            if len(axes) == 1:
                routes.append(_bundle_sums(spectrum, axes, profiles, weights))
            for sums in routes:
                assert np.max(np.abs(sums - by_column)) \
                    <= 1e-12 * np.max(by_column)

    def test_over_its_estimate_is_resource_error(self, field, monkeypatch):
        need = _column_bytes(half_spectrum(field), [None], monkeypatch)
        monkeypatch.setattr(operators, "_physical_memory", lambda: need)
        maximal_over(field, "poisson", self.GRID)
        monkeypatch.setattr(operators, "_physical_memory", lambda: need - 1)
        with pytest.raises(ResourceError):
            maximal_over(field, "poisson", self.GRID)


def _bundle_reduction(spectrum, axes, profiles, weights=None):
    """_reduce of several axes as computed before the slab route: the
    reference classes of each axis (_reference_classes), a Gram (or
    per-column) accumulator over every sample, then the reduction over the
    blocks of _sample_blocks, or, for the Gram form, one product per span
    of the streamed route's chunks."""
    n_r, n_cols = profiles.shape
    n_samples = spectrum.spec.n_samples
    by_t = np.ascontiguousarray(profiles.T)
    pairs = np.concatenate([[0], np.cumsum(np.arange(n_r, 0, -1))])
    gram = pairs[-1] <= n_cols
    acc = np.zeros((pairs[-1] if gram else n_cols, n_samples))
    for axis in axes:
        classes = _reference_classes(spectrum, axis)
        for cols in operators._sample_blocks(n_samples,
                                             n_r if gram else n_cols):
            parts = [part[:, cols] for part in classes]
            if gram:
                for u in parts:
                    for a in range(n_r):
                        acc[pairs[a]:pairs[a + 1], cols] += u[a] * u[a:]
                continue
            s = by_t @ parts[0]
            np.square(s, out=s)
            for u in parts[1:]:
                s += np.square(by_t @ u)
            acc[:, cols] += s
        del classes
    if gram:
        rows_i, cols_i = np.triu_indices(n_r)
        pair_weights = by_t[:, rows_i] * by_t[:, cols_i]
        pair_weights[:, rows_i != cols_i] *= 2.0
        (span,) = _plan_of(spectrum, axes, profiles).spans
        spans = [slice(lo, lo + span) for lo in range(0, n_samples, span)]
    out = np.empty(n_samples)
    for cols in (spans if gram
                 else operators._sample_blocks(n_samples, n_cols)):
        s = pair_weights @ acc[:, cols] if gram else acc[:, cols]
        out[cols] = s.max(axis=0) if weights is None else weights @ s
    return np.sqrt(np.maximum(out, 0.0, out=out), out=out)


class TestSlabRoute:
    """Several axes reduce one axis-0 index at a time, bit for bit as the
    per-axis bundles did, and build no bundle."""

    # (2, 32) and (3, 16) have slabs shorter than one 315-sample reduction
    # block of the 208-value grid, the others longer, so a slab's tail is
    # carried into the next
    @pytest.mark.parametrize("d, n", [(2, 32), (3, 16), (4, 8), (4, 16),
                                      (8, 4)])
    def test_bit_identical_to_the_bundle_reduction(self, d, n, monkeypatch):
        # band-limited real and complex fields take the Gram form on the
        # default grid and the per-column sums on a 10-value grid; white
        # noise, whose energy on the Nyquist planes gives the Riesz symbols
        # two parts, has too many classes for the Gram form on either
        from test_experiments import _count_calls
        spec = GridSpec(d, n)
        band = min(3.0, n / 2 - 0.5)
        real = random_band_limited(spec, band, seed=1).samples
        imag = random_band_limited(spec, band, seed=2).samples
        noise = np.random.default_rng(3).standard_normal(spec.shape)
        axes = list(range(1, d + 1))
        branches = set()
        for samples in (real, real + 1j * imag, noise):
            for grid in (default_truncation_grid(),
                         TruncationGrid(-3, 1, depth=1)):
                spectrum = half_spectrum(SpatialField(spec, samples))
                n_r, ts = spectrum.radii.size, grid.values()
                if n_r > 2 * ts.size:
                    continue                    # the column route
                branches.add(n_r * (n_r + 1) // 2 <= ts.size)
                profiles = operators.profile_matrix(d, spectrum.radii, ts,
                                                    "truncated_riesz")
                want = _bundle_reduction(spectrum, axes, profiles)
                built = _count_calls(monkeypatch, operators, "radial_bundle")
                assert np.array_equal(vector_maximal(spectrum, grid).samples,
                                      want.reshape(spec.shape))
                assert len(built) == 0
                monkeypatch.undo()
                if samples is noise:
                    continue
                # a weighted sum is one matrix-vector product per block,
                # which BLAS may round by where the block's rows start
                weights = np.linspace(0.5, 2.0, ts.size)
                want = _bundle_reduction(spectrum, axes, profiles, weights)
                got = operators._reduce(spectrum, axes, profiles, weights)
                assert np.allclose(got.samples, want.reshape(spec.shape),
                                   rtol=1e-14, atol=0.0)
        assert branches == {True, False}

    def test_runs_at_its_estimate_and_refuses_below(self, monkeypatch):
        from test_experiments import _count_calls
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=8)
        grid = TruncationGrid(-3, 1, depth=1)
        want = vector_maximal(f, grid).samples
        spectrum = half_spectrum(f)
        axes = [1, 2, 3, 4]
        profiles = operators.profile_matrix(4, spectrum.radii, grid.values(),
                                            "truncated_riesz")
        slab = operators._plan(spectrum, [(axes, profiles, None)]).bytes
        column = _column_bytes(spectrum, axes, monkeypatch)
        built = _count_calls(monkeypatch, operators, "radial_bundle")
        monkeypatch.setattr(operators, "_physical_memory", lambda: slab)
        assert np.array_equal(vector_maximal(spectrum, grid).samples, want)
        assert len(built) == 0
        monkeypatch.setattr(operators, "_physical_memory",
                            lambda: min(slab, column) - 1)
        with pytest.raises(ResourceError):
            vector_maximal(spectrum, grid)


def _split_fields(spec, seed):
    """A real and a complex band-limited field, and the real one with
    cosines on the Nyquist planes of axis 1 and of the last axis, where a
    Riesz symbol is anti-Hermitian and its classes have two parts."""
    d, n = spec.dimension, spec.points_per_axis
    band = min(3.0, 0.49 * n)
    real = random_band_limited(spec, band, seed=seed).samples
    imag = random_band_limited(spec, band, seed=seed + 1).samples
    nyquist = real.copy()
    for k in [(n // 2, 1) + (0,) * (d - 2), (0,) * (d - 2) + (1, n // 2)]:
        nyquist += _single_mode(spec, k).samples.real
    return {"real": real, "complex": real + 1j * imag, "nyquist": nyquist}


class TestStreamedRoute:
    """With _BLOCK_VALUES at half an axis-0 slab, a bundle would be built
    one axis-0 index per group and, for d >= 3, the vector maximal's tails
    split into axis-1 sub-slabs.  One symbol streams, bit for bit as the
    bundle sums of its reference classes; several stream as per-axis
    bundles of them would; and one pass over the identity's and every
    axis's rows serves the sweep's four maxima, each as its own reduction
    would, bit for bit."""

    GRIDS = [(2, 32), (3, 16), (4, 8), (5, 6)]

    @staticmethod
    def _split(spec, monkeypatch):
        n, slab = spec.points_per_axis, spec.n_samples // spec.points_per_axis
        monkeypatch.setattr(operators, "_BLOCK_VALUES", slab // 2)
        assert operators._streams(spec)
        spectrum = operators._band_spectrum(spec, 2.0, 0)
        assert _plan_of(spectrum, [1]).streams[0].chunks.piece == slab
        assert _plan_of(spectrum, [1, 2]).streams[0].chunks.piece == (
            slab if spec.dimension == 2 else slab // n)

    @pytest.mark.parametrize("d, n", GRIDS)
    def test_one_axis_is_bit_identical_to_the_bundle_route(self, d, n,
                                                           monkeypatch):
        from test_experiments import _count_calls
        spec = GridSpec(d, n)
        self._split(spec, monkeypatch)
        grid = TruncationGrid(-3, 1, depth=1)
        ts = grid.values()
        weights = np.linspace(0.5, 2.0, ts.size)
        two_parts = False
        for kind, samples in _split_fields(spec, 51).items():
            spectrum = half_spectrum(SpatialField(spec, samples))
            for axis, family in [(None, "factor_m"), (1, "truncated_riesz"),
                                 (d, "conjugate_poisson")]:
                two_parts |= len(spectrum.filtered(axis)) == 2
                profiles = operators.profile_matrix(d, spectrum.radii, ts,
                                                    family)
                for w in (weights, None):
                    want = _bundle_sums(spectrum, [axis], profiles, w)
                    got = _streamed(spectrum, [([axis], profiles, w)])[0]
                    assert np.array_equal(got, want), (kind, axis, w)
            # the last maxima, through the public route
            built = _count_calls(monkeypatch, operators, "radial_bundle")
            got = maximal_over(spectrum, "conjugate_poisson", grid, j=d)
            assert len(built) == 0
            assert np.array_equal(got.samples.reshape(-1), np.sqrt(want))
        assert two_parts

    @pytest.mark.parametrize("d, n", GRIDS)
    def test_all_axes_are_bit_identical_to_the_bundle_reduction(
            self, d, n, monkeypatch):
        # the default grid takes the Gram form, the 10-value grid the
        # per-column sums
        spec = GridSpec(d, n)
        self._split(spec, monkeypatch)
        axes = list(range(1, d + 1))
        branches = set()
        for kind, samples in _split_fields(spec, 61).items():
            spectrum = half_spectrum(SpatialField(spec, samples))
            for grid in (default_truncation_grid(),
                         TruncationGrid(-3, 1, depth=1)):
                n_r, ts = spectrum.radii.size, grid.values()
                branches.add(n_r * (n_r + 1) // 2 <= ts.size)
                profiles = operators.profile_matrix(d, spectrum.radii, ts,
                                                    "truncated_riesz")
                want = _bundle_reduction(spectrum, axes, profiles)
                got = vector_maximal(spectrum, grid).samples
                assert np.array_equal(got, want.reshape(spec.shape)), kind
        assert branches == {True, False}

    @pytest.mark.parametrize("d, n", GRIDS)
    def test_one_pass_matches_the_separate_reductions(self, d, n,
                                                      monkeypatch):
        # the default grid takes the Gram form for r3, the 10-value grid
        # the per-column sums; the pass's chunk is the shortest of the four.
        # It runs as two streams, r3's over the axes' rows and the others'
        # over the identity's and axis 1's, in threads that may start in
        # either order, and together they take every row of the pass.
        from test_experiments import _count_calls, _sweep_reductions
        spec = GridSpec(d, n)
        self._split(spec, monkeypatch)
        built = _count_calls(monkeypatch, operators, "radial_bundle")
        passes = []
        chunks = operators._class_chunks
        monkeypatch.setattr(operators, "_class_chunks",
                            lambda s, rows, *a: passes.append(rows)
                            or chunks(s, rows, *a))
        branches = set()
        for kind, samples in _split_fields(spec, 71).items():
            spectrum = half_spectrum(SpatialField(spec, samples))
            parts = {axis: len(spectrum.filtered(axis))
                     for axis in [None, *range(1, d + 1)]}
            for grid in (default_truncation_grid(),
                         TruncationGrid(-3, 1, depth=1)):
                reductions = _sweep_reductions(spectrum, grid)
                branches.add(_plan_of(spectrum, *reductions[0][:2]).spans[0]
                             is not None)
                passes.clear()
                sums = _streamed(spectrum, reductions)
                assert sorted(map(len, passes)) == sorted(
                    [parts[None] + parts[1], sum(parts.values()) - parts[None]])
                whole = [part for axis in parts
                         for part in spectrum.filtered(axis)]
                streamed = [row for rows in passes for row in rows]
                assert all(any(np.array_equal(row, got) for got in streamed)
                           for row in whole)
                for (axes, profiles, _), got in zip(reductions, sums):
                    want = _streamed(spectrum, [(axes, profiles, None)])[0]
                    assert np.array_equal(got, want), (kind, axes)
                want = vector_maximal(spectrum, grid).samples.reshape(-1)
                assert np.array_equal(np.sqrt(np.maximum(sums[0], 0.0)),
                                      want), kind
        assert branches == {True, False} and built == []

    @pytest.mark.parametrize("d, n", GRIDS)
    def test_two_streams_are_bit_identical_to_one(self, d, n, monkeypatch):
        # on two cores the sweep's reductions take two streams, on one
        # core one; the sums and the norms are the same, bit for bit, with
        # the Gram form (default grid) and the per-column sums (10 values)
        from test_experiments import _sweep_reductions
        spec = GridSpec(d, n)
        self._split(spec, monkeypatch)
        for kind, samples in _split_fields(spec, 73).items():
            spectrum = half_spectrum(SpatialField(spec, samples))
            for grid in (default_truncation_grid(),
                         TruncationGrid(-3, 1, depth=1)):
                reductions = _sweep_reductions(spectrum, grid)
                got = {}
                for cores in (2, 1):
                    monkeypatch.setattr(operators, "_cores", lambda: cores)
                    assert len(_streams_of(spectrum, reductions)) == cores
                    got[cores] = (
                        _streamed(spectrum, reductions),
                        operators._norms(spectrum, reductions))
                for two, one in zip(got[2][0], got[1][0]):
                    assert np.array_equal(two, one), kind
                assert got[2][1] == got[1][1], kind

    @pytest.mark.parametrize("d, n", [(6, 10), (8, 6), (10, 4)])
    def test_pass_streams(self, d, n, monkeypatch):
        # the reductions over several axes on one stream and those over one
        # on the other, where each takes fewer rows than the pass: the
        # decomposition's 15 reductions all take the identity's one row,
        # r1, r2 and r4 alone take one axis each, and one reduction has
        # nothing to share out; one core, or a BLAS without a thread cap,
        # takes one stream
        from rieszmax.experiments import _capped_band
        from test_experiments import _sweep_reductions
        spec = GridSpec(d, n)
        spectrum = operators._band_spectrum(spec, _capped_band(3.0, spec), 42)
        ts = default_truncation_grid().values()
        sweep = _sweep_reductions(spectrum, default_truncation_grid())
        m = operators.profile_matrix(d, spectrum.radii, ts, "factor_m")
        ones = [([None], m[:, :k], None) for k in (5, 50, 150)]
        decomposition = [([None], m[:, :k + 1], None) for k in range(15)]
        assert _streams_of(spectrum, sweep) == [[0], [1, 2, 3]]
        assert _streams_of(spectrum, ones) == [[0, 1, 2]]
        assert _streams_of(spectrum, decomposition) \
            == [list(range(15))]
        assert _streams_of(spectrum, sweep[1:]) == [[0, 1, 2]]
        assert _streams_of(spectrum, sweep[:1]) == [[0]]
        with monkeypatch.context() as patch:
            patch.setattr(operators, "_cores", lambda: 1)
            assert _streams_of(spectrum, sweep) == [[0, 1, 2, 3]]
        with monkeypatch.context() as patch:
            patch.setattr(operators, "_blas_threads", lambda: None)
            assert _streams_of(spectrum, sweep) == [[0, 1, 2, 3]]
        # a pass inside one of two paired trials: threads never nest
        with operators._stream_thread():
            assert _streams_of(spectrum, sweep) == [[0, 1, 2, 3]]
        assert _streams_of(spectrum, sweep) == [[0], [1, 2, 3]]

    @pytest.mark.parametrize("d, n, fused", [
        (4, 16, False), (8, 4, False), (6, 10, True), (8, 6, True),
        (10, 4, True), (1, 1 << 17, False)])
    def test_streams_at_the_cli_presets(self, d, n, fused):
        # the sweep takes one fused pass on lattices of more than
        # _BLOCK_VALUES samples, and never at d = 1
        assert operators._streams(GridSpec(d, n)) is fused

    def test_half_spectrum_takes_one_fft_thread_in_a_stream(self,
                                                           monkeypatch):
        # two streams at once each transform on one thread, not on every
        # core; pocketfft shares a transform out by lines, so the
        # coefficients are those of every core, bit for bit
        spec = GridSpec(4, 16)
        fields = list(_split_fields(spec, 75).values())
        workers = []
        real = sfft.rfftn
        monkeypatch.setattr(sfft, "rfftn", lambda *a, **k: workers.append(
            (threading.current_thread().name, k["workers"])) or real(*a, **k))
        want = [half_spectrum(SpatialField(spec, f)) for f in fields]
        assert {w for _, w in workers} == {-1}
        workers.clear()
        got = [None] * len(fields)

        def stream(indices):
            for i in indices:
                got[i] = half_spectrum(SpatialField(spec, fields[i]))

        assert len(fields) == 3
        operators._run_streams(stream, [[1], [0, 2]])
        assert len({name for name, _ in workers}) == 2
        assert {w for _, w in workers} == {1}
        for a, b in zip(got, want):
            assert np.array_equal(a.real, b.real)
            assert (a.imag is None and b.imag is None
                    or np.array_equal(a.imag, b.imag))

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_an_error_in_either_stream_is_raised_after_both_end(
            self, where, monkeypatch):
        # a reduction that raises in one stream's thread: the other stream
        # still runs to its end, the error is raised after it, no thread is
        # left running and BLAS's thread count is restored; the same
        # spectrum's next pass gives one stream's bits
        from test_experiments import _sweep_reductions
        spec = GridSpec(4, 8)
        self._split(spec, monkeypatch)
        spectrum = half_spectrum(random_band_limited(spec, 3.0, seed=74))
        reductions = _sweep_reductions(spectrum, default_truncation_grid())
        with monkeypatch.context() as patch:
            patch.setattr(operators, "_cores", lambda: 1)
            want = operators._norms(spectrum, reductions)
        plan = operators._plan(spectrum, reductions, norms=True)
        chunk, streams = plan.chunk, _streams_of(spectrum, reductions)
        assert len(streams) == 2
        caller = where == "caller"
        fails, done = [], []
        real = operators._chunk_reducer

        def failing(*args):
            reduce = real(*args)

            def checked(u, sums):
                main = threading.current_thread() is threading.main_thread()
                if main == caller:
                    fails.append(1)
                    raise _StreamError(where)
                reduce(u, sums)
                done.append(1)
            return checked

        def blas_threads():
            cap = operators._blas_threads()
            count = cap(1)
            cap(count)
            return count

        threads, blas = threading.active_count(), blas_threads()
        monkeypatch.setattr(operators, "_chunk_reducer", failing)
        with pytest.raises(_StreamError, match=where):
            operators._norms(spectrum, reductions)
        other = streams[0] if caller else streams[1]
        assert len(fails) == 1
        assert len(done) == len(other) * -(-spec.n_samples // chunk)
        assert threading.active_count() == threads
        assert blas_threads() == blas
        monkeypatch.setattr(operators, "_chunk_reducer", real)
        assert operators._norms(spectrum, reductions) == want

    def test_two_streams_same_at_one_and_two_blas_threads(self):
        # the sweep's (6, 10) pass, split in two streams and in one, at 1
        # and 2 BLAS threads: the same norms, to the last bit
        child = (
            "from rieszmax import operators\n"
            "from rieszmax.experiments import (_trial_spectrum,\n"
            "                                  default_truncation_grid)\n"
            "from rieszmax.fields import GridSpec\n"
            "from test_experiments import _sweep_reductions\n"
            "spectrum = _trial_spectrum(GridSpec(6, 10), 3.0, 42, 0)\n"
            "sweep = _sweep_reductions(spectrum, default_truncation_grid())\n"
            "assert len(operators._plan(spectrum, sweep, True).streams) == 2\n"
            "print(repr(operators._norms(spectrum, sweep)))\n"
            "operators._cores = lambda: 1\n"
            "print(repr(operators._norms(spectrum, sweep)))\n")
        here = Path(__file__).resolve().parent
        printed = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(here.parent / "src"), str(here)]
                + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
            printed.append(subprocess.run(
                [sys.executable, "-c", child], env=env, check=True,
                capture_output=True, text=True, timeout=300).stdout)
        lines = printed[0].splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        assert printed[0] == printed[1]

    def test_one_symbol_tails_the_slabs_a_chunk_needs_in_one_call(
            self, monkeypatch):
        # at (4, 16) a one-symbol chunk spans up to 3 of the 16 axis-0
        # slabs, and the tail budget holds 14 slabs of the field's 9
        # classes: each class takes one complex-to-real tail per 14 slabs,
        # 2 in all, not one per chunk or per slab, with the reference
        # classes' sums
        from test_experiments import _count_calls
        spec = GridSpec(4, 16)
        spectrum = half_spectrum(random_band_limited(spec, 3.0, seed=42))
        grid = TruncationGrid(-10, 7, depth=2)
        profiles = operators.profile_matrix(4, spectrum.radii, grid.values(),
                                            "poisson")
        plan = _plan_of(spectrum, [None], profiles)
        chunk, slabs = plan.chunk, plan.streams[0].chunks.slabs
        n_r, n_chunks = spectrum.radii.size, -(-spec.n_samples // chunk)
        assert spec.n_samples // 16 < chunk < 2 * spec.n_samples // 16
        assert slabs == 14
        tails = _count_calls(monkeypatch, operators.sfft, "irfftn")
        got = maximal_over(spectrum, "poisson", grid).samples.reshape(-1)
        assert len(tails) <= n_r * -(-16 // slabs) < n_r * n_chunks
        want = _bundle_sums(spectrum, [None], profiles, None)
        assert np.array_equal(got, np.sqrt(want))

    def test_one_pass_on_the_column_route(self, monkeypatch):
        # white noise has 116 classes at (3, 16), more than max(64, 2 n_t):
        # each maximum takes one transform per column, which rounds
        # differently, and no streamed pass runs
        from test_experiments import _count_calls, _sweep_reductions
        spec = GridSpec(3, 16)
        self._split(spec, monkeypatch)
        grid = TruncationGrid(-3, 0, depth=0)
        spectrum = half_spectrum(SpatialField(
            spec, np.random.default_rng(21).standard_normal(spec.shape)))
        routed = _count_calls(monkeypatch, operators, "_column_route")
        passes = _count_calls(monkeypatch, operators, "_class_chunks")
        reductions = _sweep_reductions(spectrum, grid)
        got = operators._norms(spectrum, reductions)
        assert len(routed) == 4 and len(passes) == 0
        for norm, (axes, profiles, _) in zip(got, reductions):
            want = math.sqrt(np.sum(_bundle_reduction(spectrum, axes,
                                                      profiles) ** 2)
                             * spec.cell_volume)
            assert abs(norm - want) <= 1e-12 * want

    @staticmethod
    def _peaks_are_within_their_estimates_and_below_a_bundle(doubled=False):
        # (6, 10), the sweep's middle grid, streams unpatched: its slabs of
        # 10^5 samples exceed _BLOCK_VALUES, so the vector maximal's split
        # into sub-slabs; the sweep's four maxima share one pass over 7
        # rows, run as two streams at once (tracemalloc sees both threads),
        # which sums their norms and builds no output
        from test_experiments import _sweep_reductions
        spec = GridSpec(6, 10)
        spectrum = half_spectrum(random_band_limited(spec, 3.0, seed=42))
        grid = default_truncation_grid()
        ts = grid.values()
        assert operators._streams(spec)
        bundle = operators._bundle_bytes(spec, spectrum.radii.size, 1)
        riesz = operators.profile_matrix(6, spectrum.radii, ts,
                                         "truncated_riesz")
        sweep = _sweep_reductions(spectrum, grid)
        assert len(_streams_of(spectrum, sweep)) == 2
        for run, reductions, norms in [
                (lambda: maximal_over(spectrum, "factor_m", grid),
                 [([None], riesz, None)], False),
                (lambda: operators._norms(spectrum, sweep), sweep, True),
                (lambda: vector_maximal(spectrum, grid),
                 [(list(range(1, 7)), riesz, None)], False)]:
            parts = {}
            plan = operators._plan(spectrum, reductions, norms, parts)
            # a slab for one axis, an axis-1 sub-slab for several
            assert plan.streams[0].chunks.piece == (
                10 ** 5 if len(parts) == 1 else 10 ** 4)
            if doubled:
                # the pass at twice its chunk, from the planner's own step
                plan = operators._stream_plan(
                    spectrum, reductions, norms, parts,
                    min(spec.n_samples, 2 * plan.chunk))
                run = functools.partial(operators._stream_route, spectrum,
                                        reductions, plan, parts)
            assert _traced_peak(run) <= plan.bytes + _HEADERS
            assert plan.bytes < bundle

    @staticmethod
    def _chunks_peak(spectrum, rows, plan):
        """The traced peak of one _class_chunks pass above what was held
        before it, after a pass that warms caches and plans."""
        chunks = lambda: operators._class_chunks(spectrum, rows, plan)
        for _ in chunks():
            pass
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            for _ in chunks():
                pass
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("d, n, split", [(4, 16, False), (5, 10, False),
                                             (6, 10, True)])
    def test_carry_stays_within_the_chunk_stream_estimate(self, d, n, split):
        # a chunk one sample longer than a piece carries piece - 1 samples
        # of every row and class to the buffer's front at every other
        # chunk; moved as one strided block, numpy would copy them through
        # a temporary of that size and go over the estimate
        spec = GridSpec(d, n)
        spectrum = half_spectrum(random_band_limited(spec, 3.0, seed=42))
        rows = [part for axis in range(1, d + 1)
                for part in spectrum.filtered(axis)]
        slab = spec.n_samples // n
        piece = slab // n if split else slab
        plan = operators._chunk_plan(spectrum, len(rows), piece + 1, piece)
        assert self._chunks_peak(spectrum, rows, plan) <= plan.bytes + _HEADERS

    @pytest.mark.parametrize("d, n, axes", [(4, 16, "identity"),
                                            (4, 16, "all"), (8, 4, "all")])
    def test_tail_buffer_stays_within_the_chunk_stream_estimate(self, d, n,
                                                                axes):
        # whole slabs up to the tail budget per call: 14 of (4, 16)'s 16
        # slabs for one row of 9 classes, 3 for the vector maximal's 4
        # rows, and 1 for (8, 4)'s 8 rows of 3 classes; at a chunk of a
        # slab plus one, which carries, and at the route's own
        spec = GridSpec(d, n)
        spectrum = half_spectrum(random_band_limited(spec, min(3.0, 0.49 * n),
                                                     seed=42))
        axes = [None] if axes == "identity" else list(range(1, d + 1))
        rows = [part for axis in axes for part in spectrum.filtered(axis)]
        profiles = operators.profile_matrix(
            d, spectrum.radii, default_truncation_grid().values(),
            "truncated_riesz")
        (stream,) = _plan_of(spectrum, axes, profiles).streams
        route = stream.chunks
        piece = route.piece
        assert piece == spec.n_samples // n
        assert route.slabs == {(4, 1): 14, (4, 4): 3, (8, 8): 1}[d, len(rows)]
        for plan in (operators._chunk_plan(spectrum, len(rows), piece + 1,
                                           piece), route):
            peak = self._chunks_peak(spectrum, rows, plan)
            assert peak <= plan.bytes + _HEADERS, plan.chunk

    def test_peak_is_within_its_estimate_and_below_a_bundle(self):
        self._peaks_are_within_their_estimates_and_below_a_bundle()

    def test_peak_at_a_doubled_chunk_is_within_its_estimate(self):
        # a chunk's Gram accumulator and last block sums must be released
        # before the next chunk's carry and accumulator are allocated; held
        # over, they put the vector maximal's peak above the estimate
        self._peaks_are_within_their_estimates_and_below_a_bundle(doubled=True)


class TestTailBudget:
    """Where the streamed route's pieces are whole axis-0 slabs, each tail
    call takes as many slabs as _TAIL_VALUES holds: the budget moves no
    bit of any chunk, and the heads keep groups of their own size."""

    GRIDS = [(2, 32), (3, 16), (4, 8), (4, 16)]

    @staticmethod
    def _chunks_at(budget, monkeypatch, spectrum, rows, chunk, piece):
        """The chunk plan at a tail budget, which the planner reads as it
        builds the plan, and its _class_chunks pass."""
        monkeypatch.setattr(operators, "_TAIL_VALUES", budget)
        plan = operators._chunk_plan(spectrum, len(rows), chunk, piece)
        return plan, operators._class_chunks(spectrum, rows, plan)

    @staticmethod
    def _cases(spec, seed):
        """Each field of _split_fields and the zero field, which has no
        classes, as a spectrum; with the identity's and every axis's rows,
        each with its piece, the truncated-Riesz profiles of the default
        grid and the chunks: of one sample, of a piece plus one (which
        carries) and the route's own."""
        d = spec.dimension
        fields = dict(_split_fields(spec, seed), zero=np.zeros(spec.shape))
        for kind, samples in fields.items():
            spectrum = half_spectrum(SpatialField(spec, samples))
            profiles = operators.profile_matrix(
                d, spectrum.radii, default_truncation_grid().values(),
                "truncated_riesz")
            for axes in ([None], list(range(1, d + 1))):
                rows = [part for axis in axes
                        for part in spectrum.filtered(axis)]
                plan = _plan_of(spectrum, axes, profiles)
                piece = plan.streams[0].chunks.piece
                yield (kind, spectrum, axes, profiles, rows, piece,
                       (1, piece + 1, plan.chunk))

    @pytest.mark.parametrize("d, n", GRIDS)
    def test_budget_moves_no_bit(self, d, n, monkeypatch):
        # at a budget of one slab a tail takes the slabs a chunk needs, at
        # the whole lattice's every slab of the heads' group
        spec = GridSpec(d, n)
        for kind, spectrum, axes, profiles, rows, piece, chunks in \
                self._cases(spec, 91):
            n_r = spectrum.radii.size
            assert piece == spec.n_samples // n
            lattice = len(rows) * max(n_r, 1) * spec.n_samples
            for chunk in chunks:
                plan, one = self._chunks_at(0, monkeypatch, spectrum, rows,
                                            chunk, piece)
                assert plan.slabs == 1
                plan, every = self._chunks_at(lattice, monkeypatch, spectrum,
                                              rows, chunk, piece)
                assert plan.slabs >= n
                count = 0
                for (lo, u), (lo_every, u_every) in zip(one, every,
                                                        strict=True):
                    assert lo == lo_every == count * chunk
                    assert np.array_equal(u, u_every), (kind, axes, chunk, lo)
                    count += 1
                assert count == -(-spec.n_samples // chunk)
            for budget in (0, lattice):
                monkeypatch.setattr(operators, "_TAIL_VALUES", budget)
                if axes == [None]:
                    got = _streamed(spectrum, [(axes, profiles, None)])[0]
                    want = _bundle_sums(spectrum, axes, profiles, None)
                else:
                    got = vector_maximal(spectrum,
                                         default_truncation_grid()).samples
                    want = _bundle_reduction(spectrum, axes, profiles)
                    want = want.reshape(spec.shape)
                assert np.array_equal(got, want), (kind, axes, budget)

    @pytest.mark.parametrize("d, n", [(3, 16), (4, 8)])
    def test_head_groups_do_not_follow_the_tail_budget(self, d, n,
                                                       monkeypatch):
        # the heads' groups are sized by a piece plus a chunk, whatever the
        # tails take: at a chunk of one sample one row keeps heads for 13
        # of (3, 16)'s 16 axis-0 indices and 4 of (4, 8)'s 8, and each
        # class's heads are built as often at any budget
        from test_experiments import _count_calls
        spec = GridSpec(d, n)
        n_r = None
        for kind, spectrum, axes, _, rows, piece, chunks in \
                self._cases(spec, 42):
            if kind != "real" or axes != [None]:
                continue
            n_r = spectrum.radii.size
            assert operators._chunk_plan(spectrum, 1, 1, piece).group \
                == {3: 13, 4: 4}[d]
            built = _count_calls(monkeypatch, operators, "_group_heads")
            for chunk in chunks:
                group = None
                for budget in (0, n_r * spec.n_samples):
                    built.clear()
                    plan, passed = self._chunks_at(budget, monkeypatch,
                                                   spectrum, rows, chunk,
                                                   piece)
                    assert group in (None, plan.group)
                    group = plan.group
                    for _ in passed:
                        pass
                    assert len(built) == n_r * -(-n // group), (chunk, budget)
        assert n_r


class TestGramForm:
    """The streamed route's Gram form: its accumulator adds the rows in
    their order, its products follow the chunk, and BLAS's thread count
    does not move its results."""

    @pytest.mark.parametrize("d, n", [(3, 16), (5, 6), (8, 4)])
    def test_einsum_is_the_row_by_row_accumulation(self, d, n):
        # every chunk of the route, and the first of a short odd chunk and
        # of a one-sample chunk; complex fields have two parts on every
        # axis (2 d rows), the Nyquist field on axes 1 and d
        spec = GridSpec(d, n)
        axes = list(range(1, d + 1))
        n_cols = default_truncation_grid().values().size
        for kind, samples in _split_fields(spec, 81).items():
            spectrum = half_spectrum(SpatialField(spec, samples))
            rows = [part for axis in axes for part in spectrum.filtered(axis)]
            assert len(rows) == {"real": d, "complex": 2 * d,
                                 "nyquist": d + 2}[kind]
            n_r = spectrum.radii.size
            plan = _plan_of(spectrum, axes, np.zeros((n_r, n_cols)))
            assert plan.spans[0] is not None
            pairs = np.concatenate([[0], np.cumsum(np.arange(n_r, 0, -1))])
            piece = plan.streams[0].chunks.piece
            for chunk, count in [(plan.chunk, None), (7, 3), (1, 3)]:
                sized = operators._chunk_plan(spectrum, len(rows), chunk,
                                              piece)
                chunks = operators._class_chunks(spectrum, rows, sized)
                for _, u in itertools.islice(chunks, count):
                    want = np.zeros((pairs[-1], u.shape[-1]))
                    for part in u:
                        for a in range(n_r):
                            want[pairs[a]:pairs[a + 1]] += part[a] * part[a:]
                    assert np.array_equal(operators._gram_sums(u), want), \
                        (kind, chunk)

    @pytest.mark.parametrize("d, n, blocks, per_chunk", [(6, 10, 4, True),
                                                         (8, 4, 34, False)])
    def test_products_per_chunk(self, d, n, blocks, per_chunk, monkeypatch):
        # 9 classes (45 pairs) keep 4 blocks of 315 samples per chunk and
        # take one product per chunk; 3 classes (6 pairs) keep 34 blocks
        # and take one product per block
        from test_experiments import _count_calls
        spec = GridSpec(d, n)
        spectrum = half_spectrum(random_band_limited(
            spec, min(3.0, 0.49 * n), seed=42))
        grid = default_truncation_grid()
        n_r, n_cols = spectrum.radii.size, grid.values().size
        step = operators._BLOCK_VALUES // n_cols
        plan = _plan_of(spectrum, list(range(1, d + 1)),
                        np.zeros((n_r, n_cols)))
        chunk = plan.chunk
        assert (n_r, step, chunk) == ((9 if per_chunk else 3), 315,
                                      blocks * step)
        assert plan.spans == ((chunk if per_chunk else step),)
        chunks = _count_calls(monkeypatch, operators, "_gram_sums")
        products = _count_calls(monkeypatch, operators, "_pair_sums")
        vector_maximal(spectrum, grid)
        assert len(chunks) == math.ceil(spec.n_samples / chunk)
        assert len(products) == (len(chunks) if per_chunk
                                 else math.ceil(spec.n_samples / step))

    def test_pair_weights_are_in_the_estimate(self, monkeypatch):
        # the vector maximal at (4, 16) and band 7.9 over a depth-8 grid has
        # 62 classes (1,953 pairs) for 3,328 columns: its pair weights hold
        # 49.6 MiB, and building them peaks at about three times that,
        # against 17.8 MiB for the rest of the pass.  With memory between
        # the two, the pass takes the column route and builds no weights
        from test_experiments import _count_calls
        spectrum = operators._band_spectrum(GridSpec(4, 16), 7.9, 42)
        n_cols = TruncationGrid(-6, 6, depth=8).values().size
        assert (spectrum.radii.size, n_cols) == (62, 3328)
        axes, profiles = [1, 2, 3, 4], np.zeros((62, n_cols))
        plan = operators._plan(spectrum, [(axes, profiles, None)])
        terms = dict(plan.terms)
        weights = terms["pair weights"] + terms["pair weights' build"]
        assert plan.spans[0] is not None
        assert 8 * 1953 * n_cols == terms["pair weights"] > 2 * (
            plan.bytes - weights)
        tracemalloc.start()
        try:
            operators._chunk_reducer([slice(q, q + 1) for q in range(4)],
                                     profiles, None, plan.spans[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 3 * terms["pair weights"] < peak <= weights + _HEADERS
        columns = []
        monkeypatch.setattr(operators, "_column_route",
                            lambda s, axes, *_: columns.append(axes)
                            or np.zeros(s.spec.n_samples))
        built = _count_calls(monkeypatch, operators, "_chunk_reducer")
        monkeypatch.setattr(operators, "_physical_memory",
                            lambda: plan.bytes - terms["pair weights' build"])
        operators._reduce(spectrum, axes, profiles)
        assert columns == [axes] and built == []

    def test_same_at_one_and_two_blas_threads(self):
        # the golden configs never take the Gram form (14 columns against
        # 45 pairs); the sweep's d = 4, N = 16 and d = 8, N = 4 trials do
        child = (
            "import hashlib\n"
            "from rieszmax import operators\n"
            "from rieszmax.experiments import (_capped_band, _trial_field,\n"
            "                                  default_truncation_grid)\n"
            "from rieszmax.fields import GridSpec\n"
            "grid = default_truncation_grid()\n"
            "for d, n in [(4, 16), (8, 4)]:\n"
            "    spec = GridSpec(d, n)\n"
            "    f = _trial_field(spec, _capped_band(3.0, spec), 42, 0)\n"
            "    spectrum = operators.half_spectrum(f)\n"
            "    profiles = operators.profile_matrix(\n"
            "        d, spectrum.radii, grid.values(), 'truncated_riesz')\n"
            "    plan = operators._plan(\n"
            "        spectrum, [(list(range(1, d + 1)), profiles, None)])\n"
            "    assert plan.spans[0] is not None\n"
            "    got = operators.vector_maximal(spectrum, grid).samples\n"
            "    print(d, n, hashlib.sha256(got.tobytes()).hexdigest())\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        printed = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                       if env.get("PYTHONPATH") else "")
            printed.append(subprocess.run(
                [sys.executable, "-c", child], env=env, check=True,
                capture_output=True, text=True, timeout=300).stdout)
        assert printed[0].count("\n") == 2
        assert printed[0] == printed[1]


def _weighted_reference(spectrum, axes, profiles, weights):
    """sqrt(sum_c weights[c] sum over axes |P_c . u|^2), column by column,
    from each axis's reference classes, over sample blocks."""
    n_samples = spectrum.spec.n_samples
    out = np.zeros(n_samples)
    for axis in axes:
        for part in _reference_classes(spectrum, axis):
            for lo in range(0, n_samples, 4096):
                values = part[:, lo:lo + 4096].T @ profiles
                out[lo:lo + 4096] += np.square(values) @ weights
    return np.sqrt(out).reshape(spectrum.spec.shape)


class TestWeightedReduction:
    """Weights over more columns than classes are reduced over the n_r
    columns of R, the triangular factor of diag(sqrt(w)) P^T; fewer columns
    are reduced as given, bit for bit."""

    T_NODES = np.geomspace(1e-3, 1e2, 400)

    @staticmethod
    def _fields():
        spec = GridSpec(4, 8)
        real = random_band_limited(spec, 3.0, seed=41).samples
        imag = random_band_limited(spec, 3.0, seed=42).samples
        noise = np.random.default_rng(43).standard_normal(GridSpec(3, 8).shape)
        return {"real": SpatialField(spec, real),
                "complex": SpatialField(spec, real + 1j * imag),
                "white_noise": SpatialField(GridSpec(3, 8), noise)}

    @pytest.mark.parametrize("kind", ["real", "complex", "white_noise"])
    def test_bundle_route_matches_the_direct_sum(self, kind, monkeypatch):
        # one axis streams in one pass; the reference bundle's own weighted
        # sums, over every column, match the direct sum too
        from test_experiments import _count_calls
        spectrum = half_spectrum(self._fields()[kind])
        d = spectrum.spec.dimension
        profiles = operators.profile_matrix(d, spectrum.radii, self.T_NODES,
                                            "poisson")
        weights = np.linspace(0.5, 2.0, self.T_NODES.size)
        assert spectrum.radii.size < self.T_NODES.size
        passes = _count_calls(monkeypatch, operators, "_class_chunks")
        got = operators._reduce(spectrum, [None], profiles, weights).samples
        want = _weighted_reference(spectrum, [None], profiles, weights)
        assert len(passes) == 1
        assert np.max(np.abs(got - want) / want) <= 1e-13
        bundle = radial_bundle(spectrum).sums(profiles, weights)
        assert np.max(np.abs(np.sqrt(bundle).reshape(want.shape) - want)
                      / want) <= 1e-13

    def test_slab_route_matches_the_direct_sum(self):
        spectrum = half_spectrum(random_band_limited(GridSpec(3, 16), 3.0,
                                                     seed=44))
        ts = default_truncation_grid().values()
        profiles = operators.profile_matrix(3, spectrum.radii, ts,
                                            "truncated_riesz")
        weights = np.linspace(0.5, 2.0, ts.size)
        got = operators._reduce(spectrum, [1, 2], profiles, weights).samples
        want = _weighted_reference(spectrum, [1, 2], profiles, weights)
        assert np.max(np.abs(got - want) / want) <= 1e-13

    def test_fewer_columns_than_classes_are_unchanged(self):
        # 116 white-noise classes take the column route for 4 columns, and
        # 9 band-limited classes the streamed route for 9, bit for bit as
        # the bundle sums of their reference classes
        noise = SpatialField(GridSpec(3, 16), np.random.default_rng(45)
                             .standard_normal((16, 16, 16)))
        band = random_band_limited(GridSpec(4, 8), 3.0, seed=41)
        for field, n_cols, route in [(noise, 4, operators._column_route),
                                     (band, 9, _bundle_sums)]:
            spectrum = half_spectrum(field)
            assert spectrum.radii.size >= n_cols
            ts = np.geomspace(0.05, 0.4, n_cols)
            profiles = operators.profile_matrix(
                spectrum.spec.dimension, spectrum.radii, ts, "poisson")
            weights = np.linspace(0.5, 2.0, n_cols)
            want = route(spectrum, [None], profiles, weights)
            want = np.sqrt(np.maximum(want, 0.0)).reshape(spectrum.spec.shape)
            got = operators._reduce(spectrum, [None], profiles, weights)
            assert np.array_equal(got.samples, want)

    def test_square_function_reduces_over_n_r_columns(self, monkeypatch):
        f = random_band_limited(GridSpec(4, 16), 3.0, seed=8)
        shapes = []
        route = operators._stream_route

        def spy(spectrum, reductions, *args):
            shapes.extend(profiles.shape for _, profiles, _ in reductions)
            return route(spectrum, reductions, *args)

        monkeypatch.setattr(operators, "_stream_route", spy)
        square_function(f, self.T_NODES)
        assert shapes == [(9, 9)]


class TestHalfSpectrumBundle:
    def test_kept_bundle_is_not_reused_for_another_symbol(self):
        # a half spectrum keeps no reduction's state: one shared by several
        # symbols gives what a fresh transform of the field gives for each
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=14)
        grid = TruncationGrid(-3, 1, depth=1)
        spectrum = half_spectrum(f)
        maximal_over(spectrum, "truncated_riesz", grid, j=1)
        for family, j in [("truncated_riesz", 2), ("factor_m", 1),
                          ("conjugate_poisson", 1)]:
            shared = maximal_over(spectrum, family, grid, j=j).samples
            alone = maximal_over(f, family, grid, j=j).samples
            assert np.array_equal(shared, alone)


class TestReductionsAgainstPerT:
    """The bundle reductions against the per-t spectral route, which builds
    one full symbol and one inverse transform per truncation value."""

    @pytest.mark.parametrize("grid", [TruncationGrid(-3, 1, depth=1),
                                      TruncationGrid(-8, 4, depth=4)],
                             ids=["few_t", "default_grid"])
    def test_vector_maximal_is_max_of_vector_truncations(self, grid):
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=11)
        out = vector_maximal(f, grid).samples
        direct = _vector_reference(f, grid.values())
        assert np.max(np.abs(out - direct)) <= 1e-10 * np.max(direct)

    @pytest.mark.parametrize("family", ["truncated_riesz", "factor_m",
                                        "poisson", "conjugate_poisson"])
    def test_maximal_over_matches_per_t(self, family):
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=12)
        grid = TruncationGrid(-8, 4, depth=4)
        out = maximal_over(f, family, grid, j=2).samples
        direct = _maximal_reference(f, family, grid.values(), 2)
        assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(direct)

    # at d = 1 a row of a head is a frequency, not a slab of samples, so
    # every reduction takes the column route and no streamed pass
    @pytest.mark.parametrize("family", ["poisson", "conjugate_poisson"])
    def test_maximal_over_at_d1_matches_per_t(self, family, monkeypatch):
        from test_experiments import _count_calls
        spec = GridSpec(1, 16)
        f = random_band_limited(spec, 3.0, seed=15)
        grid = TruncationGrid(-8, 4, depth=4)
        passes = _count_calls(monkeypatch, operators, "_class_chunks")
        out = maximal_over(f, family, grid).samples
        direct = _maximal_reference(f, family, grid.values())
        assert passes == []
        assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(direct)

    def test_square_function_at_d1_matches_per_t(self, monkeypatch):
        from test_experiments import _count_calls
        spec = GridSpec(1, 16)
        f = random_band_limited(spec, 3.0, seed=16)
        ts = np.geomspace(1e-2, 1e1, 20)
        passes = _count_calls(monkeypatch, operators, "_class_chunks")
        out = square_function(f, ts).samples
        direct = _square_reference(f, ts)
        assert passes == []
        assert np.max(np.abs(out - direct)) <= 1e-12 * np.max(direct)


def _poisson_norms(f, n_min, n_max):
    """The Poisson suite trial's g and S_n square-function norms of f, which
    it reads from the class energies."""
    from rieszmax.experiments import _poisson_trial
    values = _poisson_trial(lambda: f, TruncationGrid(-1, 0), n_min, n_max)
    norm_f = l2_norm(f)
    return values["g_ratio"] * norm_f, values["sn_square_ratio"] * norm_f


class TestPoissonMachinery:
    def test_projection_is_difference_of_semigroups(self):
        # the projection square function over one n is |S_0 f|
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=10)
        direct = apply_symbol(f, MultiplierSymbol.poisson(0.5)).samples \
            - apply_symbol(f, MultiplierSymbol.poisson(1.0)).samples
        want = l2_norm(SpatialField(spec, direct))
        assert _poisson_norms(f, 0, 0)[1] == pytest.approx(want, rel=1e-13)

    def test_zero_field(self):
        spec = GridSpec(2, 8)
        f = SpatialField(spec, np.zeros(spec.shape, dtype=complex))
        assert np.all(poisson_projection_sum(f, 0, 2).samples == 0.0)
        grid = TruncationGrid(-1, 1)
        assert np.all(maximal_over(f, "poisson", grid).samples == 0.0)

    def test_telescoping_reconstruction(self):
        spec = GridSpec(4, 16)
        f = random_band_limited(spec, 3.0, seed=10)  # xi_min >= 1
        rec = poisson_projection_sum(f, -20, 20)
        rel = l2_norm(SpatialField(spec, f.samples - rec.samples)) / l2_norm(f)
        assert rel <= 1e-6

    def test_widening_range_shrinks_residual(self):
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=10)
        narrow = poisson_projection_sum(f, -5, 5)
        wide = poisson_projection_sum(f, -15, 15)
        res_narrow = l2_norm(SpatialField(spec, f.samples - narrow.samples))
        res_wide = l2_norm(SpatialField(spec, f.samples - wide.samples))
        assert res_wide < res_narrow

    def test_invalid_range_rejected(self):
        spec = GridSpec(2, 8)
        f = random_band_limited(spec, 2.0, seed=0)
        with pytest.raises(DomainError):
            poisson_projection_sum(f, 3, 2)

    def test_projection_square_function_matches_per_n_route(self):
        # the S_n and g norms from the class energies against the per-n
        # route and the square function's field
        from rieszmax.experiments import _G_NODES
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 3.0, seed=10)
        g_norm, sn_norm = _poisson_norms(f, -20, 20)
        acc = np.zeros(spec.shape)
        for n in range(-20, 21):
            acc += np.abs(_projection(f, n)) ** 2
        direct = l2_norm(SpatialField(spec, np.sqrt(acc)))
        assert sn_norm == pytest.approx(direct, rel=1e-12)
        g_field = l2_norm(square_function(f, _G_NODES))
        assert g_norm == pytest.approx(g_field, rel=1e-13)

    def test_square_function_of_half_spectrum_is_bit_identical(self):
        f = random_band_limited(GridSpec(4, 8), 3.0, seed=10)
        t_nodes = np.geomspace(1e-3, 1e2, 400)
        shared = square_function(half_spectrum(f), t_nodes).samples
        assert np.array_equal(shared, square_function(f, t_nodes).samples)

    def test_square_function_single_mode_half(self):
        spec = GridSpec(4, 16)
        f = _single_mode(spec, (1, 0, 0, 0))
        t_nodes = np.geomspace(1e-4, 1e3, 2000)
        g = square_function(f, t_nodes)
        assert np.max(np.abs(g.samples)) == pytest.approx(0.5, abs=1e-2)

    def test_square_function_zero_field(self):
        spec = GridSpec(2, 8)
        f = SpatialField(spec, np.zeros(spec.shape, dtype=complex))
        g = square_function(f, np.geomspace(0.01, 10.0, 50))
        assert np.all(g.samples == 0.0)

    def test_square_function_invalid_nodes(self):
        # one node has a trapezoid of zero width, which would give g = 0
        spec = GridSpec(2, 8)
        f = random_band_limited(spec, 2.0, seed=0)
        for nodes in ([1.0, 0.5], [0.5], [], [0.0, 1.0]):
            with pytest.raises(DomainError):
                square_function(f, np.array(nodes))

    def test_poisson_maximal_bound(self):
        spec = GridSpec(4, 16)
        grid = TruncationGrid(-10, 7, depth=2)
        for seed in range(3):
            f = random_band_limited(spec, 3.0, seed=seed)
            ratio = l2_norm(maximal_over(f, "poisson", grid)) / l2_norm(f)
            assert ratio <= 4.0


class TestRotations:
    def test_d2_matches_spectral(self):
        spec = GridSpec(2, 64)
        f = random_band_limited(spec, 28.0, seed=42)
        ref = apply_symbol(f, MultiplierSymbol.truncated_riesz(1, 0.1))
        out = rotation_reconstruct(f, 1, 0.1, 256)
        rel = l2_norm(SpatialField(spec, out.samples - ref.samples)) \
            / l2_norm(ref)
        assert rel <= 1e-2

    def test_doubling_does_not_increase_error(self):
        spec = GridSpec(2, 32)
        f = random_band_limited(spec, 10.0, seed=1)
        ref = apply_symbol(f, MultiplierSymbol.truncated_riesz(1, 0.2))
        errs = []
        for n in (64, 128, 256):
            out = rotation_reconstruct(f, 1, 0.2, n)
            errs.append(l2_norm(SpatialField(spec, out.samples - ref.samples)))
        assert errs[1] <= errs[0] and errs[2] <= errs[1]

    def test_axis_symmetry(self):
        spec = GridSpec(2, 32)
        f = random_band_limited(spec, 8.0, seed=2)
        swapped = SpatialField(spec, f.samples.T.copy())
        out1 = rotation_reconstruct(f, 1, 0.2, 128)
        out2 = rotation_reconstruct(swapped, 2, 0.2, 128)
        assert np.max(np.abs(out1.samples - out2.samples.T)) < 1e-8

    def test_d3_converges(self):
        spec = GridSpec(3, 16)
        f = random_band_limited(spec, 4.0, seed=3)
        ref = apply_symbol(f, MultiplierSymbol.truncated_riesz(1, 0.2))
        out = rotation_reconstruct(f, 1, 0.2, 512)
        rel = l2_norm(SpatialField(spec, out.samples - ref.samples)) \
            / l2_norm(ref)
        assert rel <= 0.1

    def test_angle_floor_enforced(self):
        spec = GridSpec(2, 16)
        f = random_band_limited(spec, 4.0, seed=0)
        with pytest.raises(DomainError):
            rotation_reconstruct(f, 1, 0.1, 8)

    def test_unsupported_dimension(self):
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 2.0, seed=0)
        with pytest.raises(UnsupportedDimensionError):
            rotation_reconstruct(f, 1, 0.1, 64)


def _rotation_symbol_2d_full(spec, j, t, n_angles):
    """The 2-d rotation quadrature evaluated at every lattice mode, with no
    use of its parity."""
    xi1 = spec.freq_component(1).ravel()
    xi2 = spec.freq_component(2).ravel()
    radius = np.hypot(xi1, xi2)
    active = radius > 0
    r = radius[active]
    beta = np.arctan2(xi2[active], xi1[active])

    def integrand(alpha):
        comp = np.cos(alpha) if j == 1 else np.sin(alpha)
        dot = r * np.cos(alpha - beta)
        si, _ = sici(2.0 * math.pi * t * np.abs(dot))
        return comp * (-1j) * np.sign(dot) * (2.0 / math.pi) \
            * (math.pi / 2.0 - si)

    h = 2.0 * math.pi / n_angles
    mids = h * (np.arange(n_angles) + 0.5)
    acc = np.zeros(r.shape, dtype=complex)
    for alpha in mids:
        acc += integrand(np.full(r.shape, alpha))
    acc *= h
    for shift in (0.5 * math.pi, 1.5 * math.pi):
        s = np.mod(beta + shift, 2.0 * math.pi)
        panel = np.minimum((s / h).astype(int), n_angles - 1)
        lo, hi = panel * h, (panel + 1) * h
        acc -= h * integrand(mids[panel])
        left, right = s - lo, hi - s
        acc += left * integrand(lo + 0.5 * left)
        acc += right * integrand(s + 0.5 * right)
    sym = np.zeros(radius.shape, dtype=complex)
    sym[active] = acc / (2.0 * math.pi) * math.pi / 2.0     # c_2 = 1/(2 pi)
    return sym.reshape(spec.shape)


class TestRotationSymbol2d:
    """The 2-d symbol is evaluated on a quarter of the lattice and mirrored."""

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("n_angles", [16, 17, 33, 256])
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_matches_the_full_lattice_quadrature(self, n, n_angles, j):
        spec = GridSpec(2, n)
        got = operators._rotation_symbol_2d(spec, j, 0.1, n_angles)
        want = _rotation_symbol_2d_full(spec, j, 0.1, n_angles)
        assert np.max(np.abs(got - want)) <= 4e-15

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("n_angles", [16, 17])
    def test_mirrored_entries_are_exact(self, n_angles, j):
        n = 32
        sym = operators._rotation_symbol_2d(GridSpec(2, n), j, 0.1, n_angles)
        along_j = sym if j == 1 else sym.T          # axis j first
        m = np.arange(1, n // 2)                    # index -m is n - m
        # odd along axis j, even along the other axis
        assert np.array_equal(along_j[n - m], -along_j[m])
        assert np.array_equal(along_j[:, n - m], along_j[:, m])

    def test_sici_sees_a_quarter_of_the_lattice(self, monkeypatch):
        n, n_angles = 64, 128
        quarter = (n // 2 + 1) ** 2 - 1          # the zero mode is skipped
        sizes = []

        def counting(x):
            sizes.append(np.size(x))
            return sici(x)

        monkeypatch.setattr(operators, "sici", counting)
        operators._rotation_symbol_2d(GridSpec(2, n), 1, 0.1, n_angles)
        # the midpoints in blocks of 60 angles, 65,280 values; then three
        # calls per split panel
        per_block = operators._BLOCK_VALUES // quarter
        assert (quarter, per_block) == (1088, 60)
        assert sizes == [60 * quarter, 60 * quarter, 8 * quarter] \
            + [quarter] * 6

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("n, n_angles", [(16, 17), (34, 256), (64, 33),
                                             (64, 1024)])
    def test_angle_blocks_are_bit_identical_to_one_angle_per_call(
            self, n, n_angles, j, monkeypatch):
        spec = GridSpec(2, n)
        blocks = operators._rotation_symbol_2d(spec, j, 0.1, n_angles)
        monkeypatch.setattr(operators, "_BLOCK_VALUES", 1)
        single = operators._rotation_symbol_2d(spec, j, 0.1, n_angles)
        assert np.array_equal(blocks, single)


class TestSphereMoment:
    def test_q2_equals_area_over_d(self):
        for d in range(2, 17):
            area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
            assert sphere_moment(2.0, d) == pytest.approx(area / d, rel=1e-12)

    def test_d2_q1(self):
        assert sphere_moment(1.0, 2) == pytest.approx(4.0, rel=1e-12)

    def test_cd_area_bound(self):
        # c_d S_{d-1} <= sqrt(2 d / pi)
        for d in range(2, 17):
            c_d = math.gamma((d + 1) / 2) / math.pi ** ((d + 1) / 2)
            area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
            assert c_d * area <= math.sqrt(2.0 * d / math.pi) + 1e-12

    def test_invalid_rejected(self):
        with pytest.raises(DomainError):
            sphere_moment(0.0, 3)
        with pytest.raises(DomainError):
            sphere_moment(1.0, 0)
