"""Experiment drivers: reproducibility, report plumbing, driver invariants."""

import functools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rieszmax.errors import DomainError, IntegrityError, ResourceError
from rieszmax import multiplier, operators
from rieszmax.experiments import (ExperimentReport, _kernel_transforms,
                                  _run_trials, _sweep_maxima, _trial_field,
                                  _trial_spectrum,
                                  decomposition_diagnostics,
                                  default_truncation_grid,
                                  factorization_residual, merge_reports,
                                  multiplier_bound_suite, norm_ratio_sweep,
                                  numerical_inequality_check, poisson_suite,
                                  read_rows, rotation_check,
                                  specfun_bound_suite)
from rieszmax.fields import GridSpec
from rieszmax.operators import TruncationGrid

SMALL_GRID = TruncationGrid(-4, 2, depth=1)


def _count_calls(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that appends to the returned list."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestExperimentReport:
    def test_rows_sorted_deterministically(self):
        rep = ExperimentReport("x", 1, {})
        rep.add(4, 8, 1, "b", 2.0)
        rep.add(2, 8, 0, "a", 1.0)
        rep.add(4, 8, 0, "a", 3.0)
        rep.sort_rows()
        keys = [(r["d"], r["trial"], r["quantity"]) for r in rep.rows]
        assert keys == [(2, 0, "a"), (4, 0, "a"), (4, 1, "b")]

    def test_csv_round_trip(self, tmp_path):
        rep = ExperimentReport("x", 7, {})
        rep.add(4, 8, 0, "q", 0.123456789012345)
        path = tmp_path / "x.csv"
        rep.to_csv(path)
        rows = read_rows(path)
        assert rows[0]["experiment_id"] == "x"
        assert float(rows[0]["value"]) == 0.123456789012345

    def test_json_contains_metadata(self, tmp_path):
        rep = ExperimentReport("x", 7, {"band": 3.0})
        rep.add(4, 8, 0, "q", 1.0)
        path = tmp_path / "x.json"
        rep.to_json(path)
        doc = json.loads(path.read_text())
        assert doc["seed"] == 7 and doc["parameters"]["band"] == 3.0
        assert doc["created_at"]
        assert doc["rows"][0]["quantity"] == "q"


class TestFactorization:
    def test_reproducible(self):
        a = factorization_residual(4, 8, [0.1], 2.0, 2, seed=11)
        b = factorization_residual(4, 8, [0.1], 2.0, 2, seed=11)
        assert a.rows == b.rows

    def test_residual_nonnegative_and_small(self):
        rep = factorization_residual(4, 16, [0.15], 3.0, 1, seed=0)
        vals = rep.values("residual_t=0.15")
        assert len(vals) == 1 and 0.0 <= vals[0] <= 0.1

    def test_kernel_sampled_once_per_t(self, monkeypatch):
        # one walk over the image cells samples every t's kernel, and the
        # trials share its transforms
        walks = _count_calls(monkeypatch, operators, "_kernel_samples")
        t_list = [0.1, 0.2]
        factorization_residual(4, 8, t_list, 2.0, trials=3, seed=11)
        assert len(walks) == 1

    @pytest.mark.parametrize("t_list", [[0.1, 0.5], [0.6], [0.0, 0.1]])
    def test_truncation_outside_half_period_raises_before_the_walk(
            self, t_list, monkeypatch):
        walks = _count_calls(monkeypatch, operators, "_kernel_samples")
        with pytest.raises(DomainError):
            factorization_residual(4, 8, t_list, 2.0, trials=1, seed=11)
        with pytest.raises(DomainError):
            _kernel_transforms(GridSpec(4, 8), t_list, 1)
        with pytest.raises(DomainError):
            _kernel_transforms(GridSpec(4, 8), [0.1], -1)
        assert walks == []

    def test_kernel_transforms_stay_within_their_share(self):
        # the walk holds one float lattice per t and at most four more, then
        # each t's imaginary half lattice replaces its sample; that is within
        # the factorization's estimate less the half lattices the trials hold
        spec, t_list = GridSpec(4, 16), [0.05, 0.15, 0.3]
        half = 16 ** 3 * (16 // 2 + 1)
        need = 8 * ((len(t_list) + 4) * spec.n_samples + len(t_list) * half)
        share = need - 8 * len(t_list) * half
        _kernel_transforms(spec, t_list, 1)    # warm caches
        tracemalloc.start()
        try:
            _kernel_transforms(spec, t_list, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= share

    @pytest.mark.parametrize("trials", [1, 4])
    def test_one_transform_per_t_within_the_estimate(self, trials,
                                                     monkeypatch):
        # at the CLI defaults each t's kernel takes one rfftn and a trial
        # none, and the call peaks within its memory estimate
        import scipy.fft
        config = (4, 16, [0.05, 0.15, 0.3], 3.0, trials)
        factorization_residual(*config, seed=42)    # warm caches
        calls, estimates = [], {}

        def spied(real, name):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        def require(nbytes, what):
            estimates[what] = nbytes
            return real_require(nbytes, what)

        real_require = operators._require_memory
        monkeypatch.setattr(operators, "_require_memory", require)
        for module in (np.fft, scipy.fft):
            for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft",
                         "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2"):
                monkeypatch.setattr(module, name,
                                    spied(getattr(module, name), name))
        tracemalloc.start()
        try:
            factorization_residual(*config, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == ["rfftn"] * 3
        assert peak <= estimates["the factorization's kernels"]

    @pytest.mark.parametrize("d, n, band, image_radius, trials", [
        (2, 4, 100.0, 1, 2), (2, 6, 2.0, 16, 1), (2, 64, 100.0, 16, 1),
        (3, 6, 100.0, 0, 2), (3, 16, 3.0, 1, 1), (3, 64, 10.0, 0, 1),
        (4, 4, 100.0, 0, 2), (4, 16, 3.0, 1, 2), (4, 16, 100.0, 1, 1)])
    def test_rows_match_the_convolution_through_full_transforms(
            self, d, n, band, image_radius, trials):
        # the oracle takes both routes in space, as the operators do: the
        # field convolved with the sampled kernel through complex FFTs of
        # the whole lattice, and apply_symbol; bands over 0.98 x Nyquist
        # are capped there, off the plane k_1 = -N/2, where the odd
        # kernel's transform vanishes and the symbol does not
        from rieszmax.experiments import _capped_band
        from rieszmax.fields import SpatialField, l2_norm
        from rieszmax.operators import Kernel, MultiplierSymbol, apply_symbol
        spec, t_list, seed = GridSpec(d, n), [0.05, 0.15, 0.3], 7
        rows = factorization_residual(d, n, t_list, band, trials, seed,
                                      image_radius).rows
        assert len(rows) == trials * len(t_list)
        capped = _capped_band(band, spec)
        for row in rows:
            t = float(row["quantity"].removeprefix("residual_t="))
            spectrum = _trial_spectrum(spec, capped, seed, row["trial"])
            assert not np.any(spectrum._k(0) == -(n // 2))
            f = _trial_field(spec, capped, seed, row["trial"])
            k_hat = np.fft.fftn(Kernel(d, 1, t, image_radius).sample(spec))
            spatial = np.fft.ifftn(k_hat * np.fft.fftn(f.samples)) \
                * spec.cell_volume
            spectral = apply_symbol(f, MultiplierSymbol.truncated_riesz(1, t))
            want = l2_norm(SpatialField(spec, spatial - spectral.samples)) \
                / l2_norm(f)
            assert abs(row["value"] - want) <= 1e-13 * want, row

    def test_d2_residual_shrinks_with_n(self):
        # large image_radius keeps the periodization error of the spatial
        # kernel well below the sampling error being measured
        coarse = factorization_residual(2, 64, [0.15], 3.0, 1, seed=42,
                                        image_radius=16)
        fine = factorization_residual(2, 128, [0.15], 3.0, 1, seed=42,
                                      image_radius=16)
        assert max(fine.values("residual_t=0.15")) \
            < max(coarse.values("residual_t=0.15"))


class TestNormRatioSweep:
    def test_ratios_present_and_bounded(self):
        rep = norm_ratio_sweep([4], {4: 8}, SMALL_GRID, 2.0, 2, seed=1)
        for name in ("r1", "r2", "r3", "r4"):
            vals = rep.values(name)
            assert len(vals) == 2
            assert all(0.0 < v <= 10.0 for v in vals)

    def test_r1_dominates_single_t_member(self):
        # the sup over the grid dominates any single member operator
        from rieszmax.fields import GridSpec, l2_norm, random_band_limited
        from rieszmax.operators import MultiplierSymbol, apply_symbol
        rep = norm_ratio_sweep([4], {4: 8}, SMALL_GRID, 2.0, 1, seed=1)
        r1 = rep.values("r1")[0]
        spec = GridSpec(4, 8)
        f = random_band_limited(spec, 2.0, seed=1 * 100_003)
        single = l2_norm(apply_symbol(f, MultiplierSymbol.factor_m(0.5))) \
            / l2_norm(f)
        assert r1 >= single - 1e-10

    def test_trial_builds_no_bundle(self, monkeypatch):
        # at d = 4, N = 8 each of r1, r2 and r4 is one maximal_over and r3
        # one vector_maximal, and each streams in its own pass
        built = _count_calls(monkeypatch, operators, "radial_bundle")
        passes = _count_calls(monkeypatch, operators, "_class_chunks")
        norm_ratio_sweep([4], {4: 8}, default_truncation_grid(), 3.0, 1,
                         seed=42)
        assert len(built) == 0 and len(passes) == 4

    def test_streamed_trial_runs_one_pass_over_d_plus_1_rows(self,
                                                            monkeypatch):
        # at d = 6, N = 10 the trial draws its half spectrum with no field
        # and no forward transform, and one streamed pass over the
        # identity's row and each axis's gives all four maxima, with no
        # maximal_over or vector_maximal call.  On two cores the pass runs
        # as two streams, r3's over the d axis rows and r1's, r2's and r4's
        # over the identity's and axis 1's, which cover the pass's d + 1
        # rows; their threads may start in either order.  On one core it is
        # one _class_chunks pass over the d + 1 rows, with the same rows of
        # the report, bit for bit.
        from rieszmax import experiments, fields
        passes = []
        chunks = operators._class_chunks
        monkeypatch.setattr(operators, "_class_chunks",
                            lambda s, rows, *a: passes.append(rows)
                            or chunks(s, rows, *a))
        called = [_count_calls(monkeypatch, owner, name)
                  for owner, name in [(operators, "half_spectrum"),
                                      (fields, "random_band_limited"),
                                      (experiments, "maximal_over"),
                                      (experiments, "vector_maximal"),
                                      (experiments, "l2_norm")]]
        spectrum = _trial_spectrum(GridSpec(6, 10), 3.0, 42, 0)
        whole = [spectrum.filtered(axis)[0] for axis in [None, *range(1, 7)]]
        rows, reports = {}, {}
        for cores in (2, 1):
            monkeypatch.setattr(operators, "_cores", lambda: cores)
            passes.clear()
            reports[cores] = norm_ratio_sweep(
                [6], {6: 10}, default_truncation_grid(), 3.0, 1, seed=42).rows
            rows[cores] = sorted(map(len, passes))
            streamed = [row for stream in passes for row in stream]
            assert all(any(np.array_equal(row, got) for got in streamed)
                       for row in whole)
        assert rows == {2: [2, 6], 1: [7]}
        assert len(reports[2]) == 4 and reports[2] == reports[1]
        assert called == [[]] * 5

    def test_streamed_trial_builds_no_bundle(self, monkeypatch):
        # at d = 6, N = 10 a bundle would be built in ten groups of axis-0
        # indices, and the four maxima share one streamed pass
        built = _count_calls(monkeypatch, operators, "radial_bundle")
        rep = norm_ratio_sweep([6], {6: 10}, default_truncation_grid(), 3.0,
                               1, seed=42)
        assert len(built) == 0
        assert len(rep.rows) == 4


def test_sweep_trial_peak_is_accumulator_plus_one_bundle():
    # a looser bound than the one below: gram is the size a Gram matrix of
    # the classes at every sample would take, more than r3's heads, slab
    # buffer and chunk accumulator; r1, r2 and r4 stream, and each holds
    # less than a bundle of the classes, with the trial's field and half
    # spectrum, and a class or tail in flight adds at most two class
    # buffers on top
    d, n, band, seed = 4, 16, 3.0, 42
    spec = GridSpec(d, n)
    grid = default_truncation_grid()
    field = _trial_field(spec, band, seed, 0)
    bundle = operators.radial_bundle(field, axis=1)
    n_r = len(bundle.radii)
    gram = n_r * (n_r + 1) // 2 * spec.n_samples * 8
    half = 16 * spec.n_samples // n * (n // 2 + 1)
    class_bytes = half + 8 * spec.n_samples
    inputs = field.samples.nbytes + half
    norm_ratio_sweep([d], {d: n}, grid, band, 1, seed)    # warm caches
    tracemalloc.start()
    try:
        norm_ratio_sweep([d], {d: n}, grid, band, 1, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_r * (n_r + 1) // 2 <= grid.values().size      # the Gram form
    assert peak < gram + bundle.components.nbytes + inputs + 2 * class_bytes


def test_sweep_trial_peak_is_one_bundle_plus_the_slab_route():
    # r1, r2 and r4 stream, each in less than a bundle of the classes; r3
    # holds its heads, slab buffer and chunk accumulator, and its output,
    # which is no larger than a bundle; the trial's half spectrum is drawn
    # at the band's bins, with no field, and a class or tail in flight adds
    # at most two class buffers on top
    d, n, band, seed = 4, 16, 3.0, 42
    spec = GridSpec(d, n)
    grid = default_truncation_grid()
    spectrum = _trial_spectrum(spec, band, seed, 0)
    bundle = operators.radial_bundle(spectrum, axis=1).components.nbytes
    profiles = operators.profile_matrix(d, spectrum.radii, grid.values(),
                                        "truncated_riesz")
    slabs = operators._plan(
        spectrum, [(list(range(1, d + 1)), profiles, None)]).bytes
    half = 16 * spec.n_samples // n * (n // 2 + 1)
    class_bytes = half + 8 * spec.n_samples
    del spectrum
    norm_ratio_sweep([d], {d: n}, grid, band, 1, seed)    # warm caches
    tracemalloc.start()
    try:
        norm_ratio_sweep([d], {d: n}, grid, band, 1, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bundle + slabs + 2 * class_bytes


def _sweep_reductions(spectrum, grid):
    """The sweep's r3, r1, r2 and r4 as reductions of one streamed pass."""
    d, ts = spectrum.spec.dimension, grid.values()
    return [(axes, operators.profile_matrix(d, spectrum.radii, ts, family),
             None) for family, axes in _sweep_maxima(d)]


@pytest.mark.parametrize("d, n, axes", [(4, 16, 7), (6, 10, 7), (8, 4, 11)])
def test_a_sweep_trial_plans_each_pass_once(d, n, axes, monkeypatch):
    # one plan per pass, made before any transform, and one filtering per
    # distinct axis of each pass, shared by the plan, its streams and its
    # reductions: (4, 16) and (8, 4) take four passes over 1, 1, 1 and d
    # axes, (6, 10) one fused pass over the identity and its 6 axes.  ||f||
    # and ||R_1 f|| filter the identity and axis 1 once more each.
    from rieszmax.experiments import _capped_band, _sweep_trial
    spec = GridSpec(d, n)
    draw = functools.partial(_trial_spectrum, spec, _capped_band(3.0, spec),
                             42, 0)
    plans = _count_calls(monkeypatch, operators, "_plan")
    filtered = _count_calls(monkeypatch, operators.HalfSpectrum, "filtered")
    energies = _count_calls(monkeypatch, operators.HalfSpectrum, "energies")
    _sweep_trial(draw, default_truncation_grid())
    assert len(plans) == (1 if operators._streams(spec) else 4)
    assert len(energies) == 2
    assert len(filtered) == axes + len(energies)


@pytest.mark.parametrize("driver", ["norm-sweep", "decomposition", "poisson"])
def test_driver_passes_peak_within_their_plans(driver, monkeypatch):
    # every pass one trial of a driver builds at the CLI's defaults: the
    # sweep's four passes at (4, 16) and its fused passes at (6, 10),
    # (8, 6) and (10, 4), the decomposition's 15 sups and the Poisson
    # maximal function at (4, 16); each pass's traced peak, two streams
    # at once where it splits, is within its plan's estimate
    from rieszmax.cli import _DEFAULT_N_OF_D
    from test_operators import _HEADERS, _traced_peak
    grid = default_truncation_grid()
    run = {"norm-sweep": lambda: norm_ratio_sweep(
               list(_DEFAULT_N_OF_D), _DEFAULT_N_OF_D, grid, 3.0, 1, 42),
           "decomposition": lambda: decomposition_diagnostics(
               4, 16, grid, 3.0, 1, 42),
           "poisson": lambda: poisson_suite(4, 16, 3.0, 1, 42)}[driver]
    passes = []
    route = operators._route

    def spy(spectrum, reductions, norms=False):
        passes.append((spectrum, reductions, norms))
        return route(spectrum, reductions, norms)

    monkeypatch.setattr(operators, "_route", spy)
    run()
    monkeypatch.setattr(operators, "_route", route)
    assert len(passes) == {"norm-sweep": 7, "decomposition": 1,
                           "poisson": 1}[driver]
    for spectrum, reductions, norms in passes:
        plan = operators._plan(spectrum, reductions, norms)
        assert plan.route == "streamed"
        peak = _traced_peak(lambda: route(spectrum, reductions, norms))
        assert peak <= plan.bytes + _HEADERS, spectrum.spec


def test_streamed_sweep_peak_holds_no_field_and_one_group_of_heads():
    # at d = 6, N = 10 the whole trial, its draw included, stays below the
    # estimate of its streamed pass, which has no term for a field or any
    # output of the lattice's size.  The pass runs as two streams at once,
    # over the 6 axes' rows and over the identity's and axis 1's, and the
    # estimate counts each stream's heads for 2 of the 10 axis-0 indices.
    # A field (7.6 MB), or an output kept for l2_norm (7.6 MB each), or all
    # 10 indices' heads goes over it.
    d, n, band, seed = 6, 10, 3.0, 42
    spec = GridSpec(d, n)
    grid = default_truncation_grid()
    spectrum = _trial_spectrum(spec, band, seed, 0)
    reductions = _sweep_reductions(spectrum, grid)
    assert sum(len(spectrum.filtered(axis))
               for axis in [None, *range(1, d + 1)]) == d + 1
    plan = operators._plan(spectrum, reductions, norms=True)
    assert [list(stream.reductions) for stream in plan.streams] \
        == [[0], [1, 2, 3]]
    for stream, axes in zip(plan.streams, [range(1, d + 1), [None, 1]]):
        assert [axis for axis, _ in stream.rows] == list(axes)
        assert stream.chunks.rows == len(axes)
        assert stream.chunks.group == 2
    need = plan.bytes
    del spectrum
    norm_ratio_sweep([d], {d: n}, grid, band, 1, seed)    # warm caches
    tracemalloc.start()
    try:
        norm_ratio_sweep([d], {d: n}, grid, band, 1, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < need


class TestDecomposition:
    def test_triangle_inequality_every_trial(self):
        rep = decomposition_diagnostics(4, 8, SMALL_GRID, 2.0, 3, seed=2)
        assert all(v >= -1e-12 for v in rep.values("triangle_slack"))

    def test_m_evaluated_at_most_twice_per_trial(self, monkeypatch):
        # once per call: the band fixes every trial's radii, so the trials,
        # paired or not, share one profile matrix, whose columns r1's
        # profiles are too
        calls = _count_calls(monkeypatch, multiplier, "m_values")
        for cores in (1, 2):
            monkeypatch.setattr(operators, "_cores", lambda: cores)
            calls.clear()
            decomposition_diagnostics(4, 16, default_truncation_grid(), 3.0,
                                      3, seed=42)
            assert len(calls) == 1, cores

    def test_profile_memo_builds_once_per_radii(self, monkeypatch):
        from rieszmax.experiments import _profile_memo
        calls = _count_calls(monkeypatch, multiplier, "m_values")
        profiles, ts = _profile_memo(), np.array([0.5, 1.0])
        radii = [np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                 np.array([1.0, 3.0])]
        got = [profiles(4, r, ts, "factor_m") for r in radii]
        assert len(calls) == 2
        for r, matrix in zip(radii, got):
            assert np.array_equal(
                matrix, operators.profile_matrix(4, r, ts, "factor_m"))

    def test_norms_match_the_bundle_sups(self, monkeypatch):
        # a, b, c and r1 from one norms pass against the reference bundle's
        # sups, b from the root of the octaves' summed squares at every
        # sample, and the pass is one _class_chunks over the identity
        from rieszmax.experiments import _decomposition_trial
        from rieszmax.fields import SpatialField, l2_norm
        spec, grid = GridSpec(4, 16), default_truncation_grid()
        f = _trial_field(spec, 3.0, 42, 0)
        passes = _count_calls(monkeypatch, operators, "_class_chunks")
        got = _decomposition_trial(lambda: f, grid)
        assert len(passes) == 1
        bundle = operators.radial_bundle(f)
        ts, norm_f = grid.values(), l2_norm(f)

        def profile(values):
            return operators.profile_matrix(4, bundle.radii, values,
                                            "factor_m")

        def ratio(samples):
            return l2_norm(SpatialField(spec, samples.reshape(spec.shape))) \
                / norm_f

        dyadic = grid.dyadic_values()
        gap = profile(dyadic) - operators.profile_matrix(
            4, bundle.radii, dyadic, "poisson")
        octaves = [bundle.sup_abs(profile(grid.octave_values(n))
                                  - profile(dyadic[i:i + 1]))
                   for i, n in enumerate(range(grid.n_min, grid.n_max))]
        want = {"r1": ratio(bundle.sup_abs(profile(ts))),
                "a": ratio(bundle.sup_abs(profile(dyadic))),
                "c": ratio(bundle.sup_abs(gap)),
                "b": ratio(np.sqrt(sum(np.square(sup) for sup in octaves)))}
        for name, value in want.items():
            assert got[name] == pytest.approx(value, rel=1e-14), name

    def test_single_octave_grid(self):
        # n_min == n_max: the one octave reaches past the grid's values
        rep = decomposition_diagnostics(4, 8, TruncationGrid(-1, -1, depth=2),
                                        2.0, 1, seed=2)
        assert all(v >= -1e-12 for v in rep.values("triangle_slack"))

    def test_paper_bounds_enormous_margin(self):
        rep = decomposition_diagnostics(4, 8, SMALL_GRID, 2.0, 1, seed=2)
        assert max(rep.values("a")) <= 1.3e5
        assert max(rep.values("b")) <= 1.7e8


class TestPoissonSuite:
    def test_bounds(self):
        rep = poisson_suite(4, 8, 2.0, 2, seed=3)
        assert max(rep.values("poisson_max_ratio")) <= 4.0
        assert max(rep.values("g_ratio")) <= 1.0 / math.sqrt(2.0) + 0.05
        assert max(rep.values("sn_square_ratio")) \
            <= 1.0 / math.sqrt(2.0) + 0.05
        assert max(rep.values("telescope_residual")) <= 1e-6

    def test_large_band_extends_the_projection_range(self):
        # band / sqrt(d) = 3.75 > 2, so the range starts one octave lower;
        # with n_min fixed at -20 the residual read 1.46e-6
        rep = poisson_suite(4, 16, 7.5, 1, seed=0)
        assert rep.parameters["n_range"] == [-21, 20]
        assert max(rep.values("telescope_residual")) <= 1e-6

    def test_trial_streams_once_and_takes_no_projection(self, monkeypatch):
        # the maximal function streams once per trial; g and the S_n square
        # function are read from the class energies, with no reduction, and
        # no S_n takes its own transform pair
        built = _count_calls(monkeypatch, operators, "radial_bundle")
        passes = _count_calls(monkeypatch, operators, "_class_chunks")
        columns = _count_calls(monkeypatch, operators, "_column_route")
        symbols = _count_calls(monkeypatch, operators, "apply_symbol")
        poisson_suite(4, 8, 2.0, trials=3, seed=3)
        assert len(passes) == 3
        assert built == columns == symbols == []


def _trial_peaks(driver, counts) -> tuple[dict, int]:
    """The traced allocation peak of driver at (4, 16) per trial count, and
    the bytes of one bundle of the classes."""
    d, n, band, seed = 4, 16, 3.0, 5
    args = (d, n, band) if driver is poisson_suite else \
        (d, n, SMALL_GRID, band)
    bundle = operators.radial_bundle(
        _trial_field(GridSpec(d, n), band, seed, 0)).components.nbytes
    driver(*args, trials=max(counts), seed=seed)    # warm the m table
    peaks = {}
    for trials in counts:
        tracemalloc.start()
        try:
            driver(*args, trials=trials, seed=seed)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks, bundle


@pytest.mark.parametrize("driver", [poisson_suite, decomposition_diagnostics],
                         ids=["poisson", "decomposition"])
def test_trial_state_is_released_before_the_next_trial(driver, monkeypatch):
    # a second trial may not raise the allocation peak by a whole bundle of
    # the classes: the first trial's spectrum and sums must be gone before
    # the second takes its own.  On one core the trials run one at a time.
    monkeypatch.setattr(operators, "_cores", lambda: 1)
    peaks, bundle = _trial_peaks(driver, (1, 2))
    assert peaks[2] - peaks[1] < bundle


@pytest.mark.parametrize("driver", [poisson_suite, decomposition_diagnostics],
                         ids=["poisson", "decomposition"])
def test_paired_trial_state_is_released_before_the_next_pair(driver,
                                                            monkeypatch):
    # paired, two trials are in flight at once; a third and a fourth may
    # not raise the peak by a whole bundle: each thread's trial must be gone
    # before that thread takes its next one
    monkeypatch.setattr(operators, "_cores", lambda: 2)
    pairs = _paired(monkeypatch)
    peaks, bundle = _trial_peaks(driver, (2, 4))
    assert pairs[-1] == [[1, 3], [0, 2]]
    assert peaks[4] - peaks[2] < bundle


class TestNumericalInequality:
    def test_identity_function(self):
        rep = numerical_inequality_check(lambda t: t, 0, 10)
        vals = {r["quantity"]: r["value"] for r in rep.rows}
        assert vals["lhs"] == pytest.approx(1.0)
        assert 4.7 <= vals["rhs_L=10"] <= 4.9
        assert vals["holds"] == 1.0

    def test_constant_function(self):
        rep = numerical_inequality_check(lambda t: 3.0, 0, 5)
        vals = {r["quantity"]: r["value"] for r in rep.rows}
        assert vals["lhs"] == 0.0 and vals["rhs_L=5"] == 0.0
        assert vals["holds"] == 1.0

    def test_oscillatory_function(self):
        rep = numerical_inequality_check(
            lambda t: math.sin(8.0 * math.pi * t), 0, 10)
        vals = {r["quantity"]: r["value"] for r in rep.rows}
        assert vals["holds"] == 1.0

    def test_g_evaluated_once_per_sample(self):
        # past level 12 the samples follow l_max, so every knot is a sample
        calls = []
        rep = numerical_inequality_check(lambda t: calls.append(t) or t, 0, 13)
        vals = {r["quantity"]: r["value"] for r in rep.rows}
        assert len(calls) == 2 ** 13 + 1
        assert vals["holds"] == 1.0

    def test_rhs_nondecreasing_in_l(self):
        rep = numerical_inequality_check(
            lambda t: math.sin(8.0 * math.pi * t), 0, 8)
        vals = {r["quantity"]: r["value"] for r in rep.rows}
        rhs = [vals[f"rhs_L={level}"] for level in range(9)]
        assert all(b >= a - 1e-12 for a, b in zip(rhs, rhs[1:]))

    def test_negative_levels_raise(self):
        calls = []
        with pytest.raises(DomainError):
            numerical_inequality_check(lambda t: calls.append(t) or t, 0, -1)
        assert calls == []

    def test_samples_over_the_budget_raise_before_g_is_evaluated(
            self, monkeypatch):
        # 64 bytes for each of the 2^13 + 1 samples: the float grid, the
        # list of g's values and the complex array
        need = 64 * (2 ** 13 + 1)
        calls = []
        monkeypatch.setattr(operators, "_physical_memory", lambda: need - 1)
        with pytest.raises(ResourceError):
            numerical_inequality_check(lambda t: calls.append(t) or t, 0, 13)
        assert calls == []
        monkeypatch.setattr(operators, "_physical_memory", lambda: need)
        numerical_inequality_check(lambda t: calls.append(t) or t, 0, 13)
        assert len(calls) == 2 ** 13 + 1
        # a level count whose sample count is never built
        monkeypatch.setattr(operators, "_physical_memory", lambda: 2 ** 40)
        with pytest.raises(ResourceError):
            numerical_inequality_check(lambda t: t, 0, 10 ** 9)


class TestRotationCheck:
    def test_errors_decrease_and_sphere_moments(self):
        rep = rotation_check(2, 32, 0.2, 32, 10.0, seed=4, doublings=2)
        errs = sorted(
            ((int(r["quantity"].split("=")[1]), r["value"]) for r in rep.rows
             if r["quantity"].startswith("rot_error")))
        assert errs[-1][1] <= errs[0][1]
        gaps = [r["value"] for r in rep.rows
                if r["quantity"].startswith("sphere_moment_gap")]
        assert max(gaps) <= 1e-10


class TestBoundSuites:
    def test_multiplier_margins_nonnegative(self):
        rep = multiplier_bound_suite([4], np.geomspace(1e-2, 1e2, 10))
        assert all(r["value"] >= 0.0 for r in rep.rows)

    def test_multiplier_margins_are_the_checks_at_each_x(self):
        # one m evaluation per dimension gives each check's margin, bit for
        # bit; x = sqrt(d) writes both the small and the large row, and a
        # NaN x none
        from rieszmax.multiplier import (check_derivative, check_large_arg,
                                         check_small_arg)
        dims = [4, 5, 8]
        x_grid = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 41),
                                 [math.nan], [math.sqrt(d) for d in dims]])
        want = ExperimentReport("multiplier_bounds", 0, {})
        for d in dims:
            sq = math.sqrt(d)
            for x in map(float, x_grid):
                if x <= sq:
                    want.add(d, 0, 0, f"small_margin_x={x:.6g}",
                             check_small_arg(d, x).margin)
                if x >= sq:
                    want.add(d, 0, 0, f"large_margin_x={x:.6g}",
                             check_large_arg(d, x).margin)
                if x > 0:
                    want.add(d, 0, 0, f"deriv_margin_x={x:.6g}",
                             check_derivative(d, x).margin)
        want.sort_rows()
        got = multiplier_bound_suite(dims, x_grid).rows
        assert got == want.rows
        for d in dims:
            at_root = {r["quantity"] for r in got if r["d"] == d
                       and r["quantity"].endswith(f"_x={math.sqrt(d):.6g}")}
            assert {q.split("_")[0] for q in at_root} \
                == {"small", "large", "deriv"}

    def test_multiplier_evaluates_m_once_per_dimension(self, monkeypatch):
        calls = _count_calls(monkeypatch, multiplier, "m_values")
        multiplier_bound_suite([4, 5, 8], np.geomspace(1e-3, 1e3, 50))
        assert len(calls) == 3

    def test_negative_x_raises(self):
        with pytest.raises(DomainError):
            multiplier_bound_suite([4], np.array([-0.5, 1.0]))

    def test_specfun_margins_nonnegative(self):
        rep = specfun_bound_suite(nu_list=(2,), t_max=20.0, n_points=10)
        assert all(r["value"] >= -1e-12 for r in rep.rows)


class TestMergeReports:
    def _write(self, tmp_path, name, value):
        rep = ExperimentReport("exp", 1, {})
        rep.add(4, 8, 0, "q", value)
        path = tmp_path / name
        rep.to_csv(path)
        return path

    def test_identity_merge(self, tmp_path):
        p = self._write(tmp_path, "a.csv", 1.5)
        merged = merge_reports([p, p])
        assert len(merged) == 1

    def test_conflict_raises(self, tmp_path):
        a = self._write(tmp_path, "a.csv", 1.5)
        b = self._write(tmp_path, "b.csv", 2.5)
        with pytest.raises(IntegrityError):
            merge_reports([a, b])

    def test_bad_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(DomainError):
            read_rows(path)


def test_default_truncation_grid_span():
    grid = default_truncation_grid()
    vals = grid.values()
    assert vals[0] == 2.0 ** -8 and vals[-1] == 2.0 ** 4 * (2.0 - 2.0 ** -4)
    assert len(vals) > 150


def _paired(monkeypatch) -> list:
    """Record every list of op._pairs that pairs its jobs."""
    pairs = []
    real = operators._pairs

    def spy(n, need):
        lists = real(n, need)
        if len(lists) == 2:
            pairs.append(lists)
        return lists

    monkeypatch.setattr(operators, "_pairs", spy)
    return pairs


_PAIRED_DRIVERS = {
    "decomposition": lambda d, n, band, trials: decomposition_diagnostics(
        d, n, SMALL_GRID, band, trials, seed=42),
    "poisson": lambda d, n, band, trials: poisson_suite(d, n, band, trials,
                                                        seed=42),
    "sweep": lambda d, n, band, trials: norm_ratio_sweep(
        [d], {d: n}, SMALL_GRID, band, trials, seed=42),
}


class TestPairedTrials:
    # band 7.9 at (4, 16), just under Nyquist, where maximal_over's samples
    # depend in their last bits on BLAS's thread count, which the paired
    # trials set to one and a lone trial does not
    @pytest.mark.parametrize("d, n, band", [
        pytest.param(4, 8, 3.0, id="4-8"), pytest.param(6, 10, 3.0, id="6-10"),
        pytest.param(4, 16, 7.9, id="4-16-7.9")])
    @pytest.mark.parametrize("driver", sorted(_PAIRED_DRIVERS))
    def test_paired_reports_equal_one_core(self, driver, d, n, band,
                                           monkeypatch):
        # on two cores the trials run two at a time, the even ones on the
        # caller's thread; the rows are those of one core, bit for bit
        pairs = _paired(monkeypatch)
        run = _PAIRED_DRIVERS[driver]
        for trials in (2, 3):
            reports = {}
            for cores in (2, 1):
                monkeypatch.setattr(operators, "_cores", lambda: cores)
                pairs.clear()
                reports[cores] = run(d, n, band, trials).rows
                assert pairs == ([[list(range(1, trials, 2)),
                                   list(range(0, trials, 2))]]
                                 if cores == 2 else [])
            assert {row["trial"] for row in reports[1]} == set(range(trials))
            assert reports[2] == reports[1]

    def test_factorization_pairs_its_kernels_not_its_trials(self,
                                                            monkeypatch):
        # the factorization pairs nothing: its kernels come from one walk,
        # and its trials, each a few milliseconds at the band's bins, run
        # one at a time, so two cores give the bits of one
        pairs = _paired(monkeypatch)
        spec, t_list = GridSpec(4, 8), [0.1, 0.2, 0.3]
        k_hats, rows = {}, {}
        for cores in (2, 1):
            monkeypatch.setattr(operators, "_cores", lambda: cores)
            pairs.clear()
            k_hats[cores] = _kernel_transforms(spec, t_list, 1)
            rows[cores] = factorization_residual(4, 8, t_list, 2.0, 3,
                                                 seed=11).rows
            assert pairs == []
        assert all(np.array_equal(a, b) for a, b in zip(k_hats[2], k_hats[1]))
        assert rows[2] == rows[1]

    def test_paired_sweep_trials_take_one_stream_each(self, monkeypatch):
        # at (6, 10) a paired trial's pass is one stream over the d + 1
        # rows; a lone trial's still splits in two, over 2 and 6 rows
        passes = []
        chunks = operators._class_chunks
        monkeypatch.setattr(operators, "_class_chunks",
                            lambda s, rows, *a: passes.append(len(rows))
                            or chunks(s, rows, *a))
        monkeypatch.setattr(operators, "_cores", lambda: 2)
        got = {}
        for trials in (1, 2):
            passes.clear()
            norm_ratio_sweep([6], {6: 10}, SMALL_GRID, 3.0, trials, seed=42)
            got[trials] = sorted(passes)
        assert got == {1: [2, 6], 2: [7, 7]}

    @pytest.mark.parametrize("paired", [True, False])
    def test_pairs_only_where_two_trials_fit_in_memory(self, paired,
                                                       monkeypatch):
        # pairing is decided once, before any trial runs: twice one trial's
        # largest estimate must fit in physical memory; otherwise the trials
        # run one at a time, and either way with the rows of one core
        from rieszmax.experiments import _octaves, _trial_bytes
        monkeypatch.setattr(operators, "_cores", lambda: 1)
        want = decomposition_diagnostics(4, 16, SMALL_GRID, 3.0, 2,
                                         seed=42).rows
        spec = GridSpec(4, 16)
        columns = [SMALL_GRID.values().size,
                   *[SMALL_GRID.dyadic_values().size] * 2,
                   *(octave.size for octave in _octaves(SMALL_GRID))]
        need = _trial_bytes(spec, 3.0, 42,
                            [(True, [([None], k) for k in columns])])
        pairs = _paired(monkeypatch)
        monkeypatch.setattr(operators, "_cores", lambda: 2)
        monkeypatch.setattr(operators, "_physical_memory",
                            lambda: 2 * need - (not paired))
        got = decomposition_diagnostics(4, 16, SMALL_GRID, 3.0, 2,
                                        seed=42).rows
        assert pairs == ([[[1], [0]]] if paired else [])
        assert got == want

    def test_one_stream_estimate_is_within_the_two_streams(self,
                                                           monkeypatch):
        # a pass inside a paired trial takes one stream, and its estimate
        # is no larger than the two streams' that decided the pairing, so
        # the route a paired trial takes is the one it takes alone
        from rieszmax.experiments import _capped_band
        for d, n in [(2, 32), (3, 16), (4, 8), (5, 6), (6, 10), (8, 4)]:
            spec = GridSpec(d, n)
            spectrum = _trial_spectrum(spec, _capped_band(3.0, spec), 42, 0)
            for grid in (default_truncation_grid(), SMALL_GRID):
                reductions = _sweep_reductions(spectrum, grid)
                got = {}
                for cores in (2, 1):
                    monkeypatch.setattr(operators, "_cores", lambda: cores)
                    plan = operators._plan(spectrum, reductions, True)
                    assert len(plan.streams) == cores, (d, n)
                    got[cores] = plan.bytes
                assert got[1] <= got[2], (d, n)

    @pytest.mark.parametrize("where, trial", [("caller", 0), ("worker", 1)])
    def test_an_error_in_either_list_is_raised_after_both_end(
            self, where, trial, monkeypatch):
        # a trial that raises on one thread: the other list runs to its
        # end, the error is raised after it, no thread is left running and
        # BLAS's thread count is restored; the next driver call gives the
        # rows of one core
        monkeypatch.setattr(operators, "_cores", lambda: 1)
        want = poisson_suite(4, 8, 2.0, 4, seed=3).rows
        monkeypatch.setattr(operators, "_cores", lambda: 2)
        spec, ran = GridSpec(4, 8), []

        def values(draw):
            index = draw.args[-1]
            main = threading.current_thread() is threading.main_thread()
            assert main == (index % 2 == 0)
            if index == trial:
                raise _TrialError(where)
            ran.append(index)
            return {"q": 1.0}

        def blas_threads():
            cap = operators._blas_threads()
            count = cap(1)
            cap(count)
            return count

        threads, blas = threading.active_count(), blas_threads()
        with pytest.raises(_TrialError, match=where):
            _run_trials(ExperimentReport("x", 3, {}), spec, 2.0, 4, values,
                        need=lambda: 0)
        assert sorted(ran) == ([1, 3] if where == "caller" else [0, 2])
        assert threading.active_count() == threads
        assert blas_threads() == blas
        assert poisson_suite(4, 8, 2.0, 4, seed=3).rows == want

    def test_paired_rows_same_at_one_and_two_blas_threads(self):
        # paired and one at a time, at 1 and 2 BLAS threads: the same rows
        child = (
            "from rieszmax import operators\n"
            "from rieszmax.experiments import (decomposition_diagnostics,\n"
            "                                  norm_ratio_sweep,\n"
            "                                  poisson_suite)\n"
            "from rieszmax.operators import TruncationGrid\n"
            "grid = TruncationGrid(-4, 2, depth=1)\n"
            "for cores in (2, 1):\n"
            "    operators._cores = lambda: cores\n"
            "    print(repr([decomposition_diagnostics(4, 16, grid, 3.0, 3,\n"
            "                                          42).rows,\n"
            "                poisson_suite(4, 16, 3.0, 3, 42).rows,\n"
            "                norm_ratio_sweep([6], {6: 10}, grid, 3.0, 2,\n"
            "                                 42).rows]))\n")
        here = Path(__file__).resolve().parent
        printed = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(here.parent / "src")]
                + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
            printed.append(subprocess.run(
                [sys.executable, "-c", child], env=env, check=True,
                capture_output=True, text=True, timeout=300).stdout)
        lines = printed[0].splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        assert printed[0] == printed[1]


class _TrialError(RuntimeError):
    pass
