"""Seeded experiment drivers producing reproducible reports.

Each driver measures the quantities behind one of the verified statements:
the factorization of truncated Riesz transforms, dimension sweeps of
maximal-operator norm ratios, the dyadic-plus-variation decomposition of
the maximal multiplier operator, the Poisson maximal/square/projection
suite, the dyadic numerical inequality, and the method of rotations.

Reports carry plain (d, N, trial, quantity, value) rows; identical
(experiment_id, seed, parameters) triples reproduce identical rows.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from scipy import fft as sfft

from . import multiplier
from . import operators as op
from .errors import DomainError, IntegrityError
from .fields import (GridSpec, SpatialField, _band_field_bytes, l2_norm,
                     random_band_limited)
from .multiplier import check_derivative
from .operators import (MultiplierSymbol, TruncationGrid, apply_symbol,
                        maximal_over, poisson_projection_sum,
                        rotation_reconstruct, sphere_moment, vector_maximal)
from .specfun import bessel_envelope, bessel_j

__all__ = [
    "ExperimentReport",
    "default_truncation_grid",
    "factorization_residual",
    "norm_ratio_sweep",
    "decomposition_diagnostics",
    "poisson_suite",
    "numerical_inequality_check",
    "rotation_check",
    "multiplier_bound_suite",
    "specfun_bound_suite",
    "merge_reports",
    "read_rows",
]

CSV_COLUMNS = ("experiment_id", "seed", "d", "N", "trial", "quantity", "value")

# t nodes of the Poisson suite's square function g
_G_NODES = np.geomspace(1e-3, 1e2, 400)


def default_truncation_grid() -> TruncationGrid:
    """Dyadic range covering the transition band t |xi| ~ sqrt(d) for every
    experiment configuration, with binary refinement depth 4."""
    return TruncationGrid(n_min=-8, n_max=4, depth=4)


@dataclass
class ExperimentReport:
    """Rows of measured quantities plus the configuration that produced them."""

    experiment_id: str
    seed: int
    parameters: dict
    rows: list = field(default_factory=list)
    created_at: str = ""

    def __post_init__(self):
        if not self.created_at:
            self.created_at = datetime.now(timezone.utc).isoformat()

    def add(self, d, n, trial, quantity, value) -> None:
        self.rows.append({"d": int(d), "N": int(n), "trial": int(trial),
                          "quantity": str(quantity), "value": float(value)})

    def sort_rows(self) -> None:
        self.rows.sort(key=lambda r: (r["d"], r["N"], r["trial"], r["quantity"]))

    def values(self, quantity: str) -> list[float]:
        return [r["value"] for r in self.rows if r["quantity"] == quantity]

    def to_csv(self, path) -> None:
        self.sort_rows()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in self.rows:
                writer.writerow([self.experiment_id, self.seed, r["d"], r["N"],
                                 r["trial"], r["quantity"], repr(r["value"])])

    def to_json(self, path) -> None:
        self.sort_rows()
        payload = {"experiment_id": self.experiment_id, "seed": self.seed,
                   "parameters": self.parameters, "created_at": self.created_at,
                   "rows": self.rows}
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def _trial_field(spec: GridSpec, band: float, seed: int, trial: int) -> SpatialField:
    return random_band_limited(spec, band, seed=seed * 100_003 + trial)


def _trial_spectrum(spec: GridSpec, band: float, seed: int,
                    trial: int) -> op.HalfSpectrum:
    """The half spectrum of _trial_field's field, drawn at the band's bins."""
    return op._band_spectrum(spec, band, seed * 100_003 + trial)


def _capped_band(band: float, spec: GridSpec) -> float:
    nyquist = spec.points_per_axis / (2.0 * spec.period)
    return min(band, 0.98 * nyquist)


def _run_trials(report: ExperimentReport, spec: GridSpec, band: float,
                trials: int, trial_values, draw=_trial_field,
                need=None) -> None:
    """Add the rows trial_values(draw) -> {quantity: value} gives for each
    trial, then sort the rows once.  draw() returns the trial's field, so
    the trial holds the only reference to it and can release it once it is
    transformed: an argument a lambda or partial passes on stays bound in
    the wrapper's frame until the call returns.  The sweep's and the
    factorization's draw (_trial_spectrum) returns the field's half
    spectrum, with no field.

    The trials run two at a time, the even ones on the caller's thread and
    the odd ones on a worker, one per core, where op._pairs allows it:
    need() gives one trial's largest memory estimate (_trial_bytes), and
    None keeps the trials one at a time.  A pass inside a paired trial
    takes one stream.  Each trial's values are kept by its index and added
    in trial order once both lists have ended, so the rows are the serial
    ones, bit for bit, and an error in either list is raised after both."""
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    values = [None] * trials

    def run(indices: list) -> None:
        for trial in indices:
            values[trial] = trial_values(functools.partial(
                draw, spec, band, report.seed, trial))

    op._run_streams(run, op._pairs(trials, need))
    for trial, quantities in enumerate(values):
        for quantity, value in quantities.items():
            report.add(spec.dimension, spec.points_per_axis, trial, quantity,
                       value)
    report.sort_rows()


def _trial_bytes(spec: GridSpec, band: float, seed: int, passes: list,
                 *others: int, field: bool = True) -> int:
    """One trial's largest memory estimate: the largest of its passes'
    plans' estimates (op._plan), one per pass (norms, [(axes, columns),
    ...]), of its field's draw when field, and of others, at trial 0's
    half spectrum (every trial has the band's bins and classes).  A plan
    reads the profiles' shapes only, so none is evaluated."""
    spectrum = _trial_spectrum(spec, band, seed, 0)
    n_r = spectrum.radii.size
    routes = [op._plan(
        spectrum, [(axes, np.broadcast_to(0.0, (n_r, columns)), None)
                   for axes, columns in reductions], norms).bytes
        for norms, reductions in passes]
    # the half spectrum holds one of each conjugate pair of the band's bins,
    # the k_d = 0 and N/2 planes both
    draw = _band_field_bytes(spec, 2 * spectrum.active.size) if field else 0
    return max(*routes, draw, *others)


# ---------------------------------------------------------------------------


def factorization_residual(d: int, n: int, t_list, band: float, trials: int,
                           seed: int, image_radius: int = 1) -> ExperimentReport:
    """Relative L2 residual between the spatial (periodized kernel) and
    spectral (factorized symbol) truncated Riesz transform, axis 1.

    The spatial route convolves f with the kernel K_t sampled in space,
    which multiplies f's DFT by the cell volume cv times K_t's DFT, and the
    spectral route multiplies it by the symbol sigma_t, so by Parseval the
    residual is ||(cv K_t^ - sigma_t) f^|| / ||f^||.  Each trial draws its
    half spectrum at the band's bins (_trial_spectrum), with no field and
    no FFT, and takes the residual there: sigma_t f^ is the Riesz part
    (HalfSpectrum.filtered) times m(t rho) of the bin's class, and the
    norms are sums of class energies.  The capped band puts no bin on a
    Nyquist plane, where the odd kernel's transform vanishes and the
    symbol does not.  The kernels do not depend on the field: every t's is
    sampled by one walk over the image cells and transformed once
    (_kernel_transforms), and m is evaluated once, at the class radii of
    every t.  The trials run one at a time, since each takes milliseconds,
    too short to pay for a thread.
    """
    spec = GridSpec(d, n)
    band = _capped_band(band, spec)
    report = ExperimentReport(
        "factorization", seed,
        {"d": d, "N": n, "t_list": list(map(float, t_list)), "band": band,
         "trials": trials, "image_radius": image_radius})
    ts = [float(t) for t in t_list]
    # the walk, one float lattice per t and at most four more, and each t's
    # imaginary half lattice, held through the trials, which hold values at
    # the band's bins only
    half = math.prod(op._half_shape(spec))
    op._require_memory(8 * ((len(ts) + 4) * spec.n_samples + len(ts) * half),
                       "the factorization's kernels")
    k_hats = _kernel_transforms(spec, ts, image_radius)
    profiles = _profile_memo()

    def trial_values(draw) -> dict:
        spectrum = draw()
        [riesz] = spectrum.filtered(1)
        # cv K_t^ f^, where K_t^ = i k_hat
        kernel = 1j * spec.cell_volume * spectrum.real
        m = profiles(d, spectrum.radii, np.array(ts), "factor_m")
        norm_f = math.sqrt(np.sum(spectrum.energies(None)))
        values = {}
        for t, k_hat, m_t in zip(ts, k_hats, m.T):
            diff = (kernel * k_hat.ravel()[spectrum.active]
                    - riesz * m_t[spectrum.class_of_bin])
            residual = np.sum(spectrum.parseval(np.square(np.abs(diff))))
            values[f"residual_t={t:g}"] = math.sqrt(residual) / norm_f
        return values

    _run_trials(report, spec, band, trials, trial_values, _trial_spectrum)
    return report


def _kernel_transforms(spec: GridSpec, ts: list, image_radius: int) -> list:
    """The imaginary part of the half-lattice DFT (rfftn) of each t's axis-1
    kernel sample, from one walk over the image cells for every t
    (op._kernel_samples), each sample released once transformed.  The
    kernel is real and exactly odd, so its DFT is purely imaginary.  A t
    outside (0, L/2) or image_radius < 0 raises DomainError before the
    walk."""
    for t in ts:
        if not 0 < t < spec.period / 2:
            raise DomainError(
                f"truncation t must satisfy 0 < t < L/2 = {spec.period / 2}, "
                f"got {t}")
    if image_radius < 0:
        raise DomainError("image_radius must be >= 0")
    samples = op._kernel_samples(spec, 1, ts, image_radius)
    return [sfft.rfftn(samples.pop(0)).imag.copy() for _ in ts]


def norm_ratio_sweep(dims, n_of_d: dict, grid: TruncationGrid, band: float,
                     trials: int, seed: int) -> ExperimentReport:
    """Norm ratios of the four maximal operators per dimension:

        r1 = ||sup_t |M^t f|||_2 / ||f||_2
        r2 = ||sup_t |R_1^t f|||_2 / ||R_1 f||_2
        r3 = ||sup_t (sum_j |R_j^t f|^2)^(1/2)||_2 / ||f||_2
        r4 = ||sup_t |Q_t^1 * f|||_2 / ||R_1 f||_2
    """
    report = ExperimentReport(
        "norm_sweep", seed,
        {"dims": list(dims), "N_of_d": {str(k): v for k, v in n_of_d.items()},
         "grid": [grid.n_min, grid.n_max, grid.depth], "band": band,
         "trials": trials})
    for d in dims:
        spec = GridSpec(d, n_of_d[d])
        capped = _capped_band(band, spec)
        maxima = [(axes, grid.values().size) for _, axes in _sweep_maxima(d)]
        passes = ([(True, maxima)] if op._streams(spec)
                  else [(False, [maximum]) for maximum in maxima])
        _run_trials(report, spec, capped, trials,
                    lambda draw: _sweep_trial(draw, grid), _trial_spectrum,
                    lambda: _trial_bytes(spec, capped, seed, passes,
                                         field=False))
    return report


def _sweep_maxima(d: int) -> list:
    """The sweep's (family, axes) of r3, r1, r2 and r4."""
    return [("truncated_riesz", list(range(1, d + 1))), ("factor_m", [None]),
            ("truncated_riesz", [1]), ("conjugate_poisson", [1])]


def _sweep_trial(draw, grid: TruncationGrid) -> dict:
    # The trial's half spectrum is drawn at the band's bins, with no field;
    # ||f|| and ||R_1 f|| are its class energies.  On lattices of more than
    # op._BLOCK_VALUES samples (d = 6, N = 10), the four maxima come from
    # one norms pass over the identity's and every axis's classes;
    # elsewhere each is one maximal_over or vector_maximal.
    spectrum = draw()
    d = spectrum.spec.dimension
    norm_f = math.sqrt(np.sum(spectrum.energies(None)))
    norm_r = math.sqrt(np.sum(spectrum.energies(1)))
    if op._streams(spectrum.spec):
        # r3 first: a chunk's block sums run faster after its Gram product
        # has been taken and released than before it
        ts = grid.values()
        r3, r1, r2, r4 = op._norms(spectrum, [
            (axes, op.profile_matrix(d, spectrum.radii, ts, family), None)
            for family, axes in _sweep_maxima(d)])
    else:
        r1, r2, r4 = (l2_norm(maximal_over(spectrum, family, grid, j=1))
                      for family in ("factor_m", "truncated_riesz",
                                     "conjugate_poisson"))
        r3 = l2_norm(vector_maximal(spectrum, grid))
    return {"r1": r1 / norm_f, "r2": r2 / norm_r, "r4": r4 / norm_r,
            "r3": r3 / norm_f}


def decomposition_diagnostics(d: int, n: int, grid: TruncationGrid, band: float,
                              trials: int, seed: int) -> ExperimentReport:
    """Split of the maximal multiplier operator into its dyadic supremum and
    local-variation parts:

        a = ||sup_n |M^(2^n) f|||_2 / ||f||_2
        b = ||(sum_n sup_{t in [2^n, 2^(n+1)]} |M^t f - M^(2^n) f|^2)^(1/2)||_2
            / ||f||_2
        c = ||sup_n |M^(2^n) f - P_(2^n) f|||_2 / ||f||_2

    together with r1 over the full grid and the triangle check r1 <= a + b.
    The norms of r1's, a's and c's sups and of each octave's come from one
    streamed pass, b^2 being the sum of the octaves' squared norms, and
    sum_dyadic_poisson_gap_sq, sum_n ||M^(2^n) f - P_(2^n) f||^2 / ||f||^2,
    from the class energies.  The band fixes every trial's radius classes,
    so the trials share one build of their profile matrices
    (_profile_memo), and m is evaluated once per call.
    """
    spec = GridSpec(d, n)
    band = _capped_band(band, spec)
    report = ExperimentReport(
        "decomposition", seed,
        {"d": d, "N": n, "grid": [grid.n_min, grid.n_max, grid.depth],
         "band": band, "trials": trials})
    columns = [grid.values().size, *[grid.dyadic_values().size] * 2,
               *(octave.size for octave in _octaves(grid))]
    profiles = _profile_memo()
    _run_trials(report, spec, band, trials,
                lambda draw: _decomposition_trial(draw, grid, profiles),
                need=lambda: _trial_bytes(
                    spec, band, seed,
                    [(True, [([None], k) for k in columns])]))
    return report


def _octaves(grid: TruncationGrid) -> list:
    """The truncation values of each of the grid's octaves, or of the one
    octave from n_min where n_min == n_max."""
    return [grid.octave_values(grid.n_min + idx)
            for idx in range(max(len(grid.dyadic_values()) - 1, 1))]


def _profile_memo():
    """op.profile_matrix for one driver call, each distinct matrix built
    once, keyed by its arguments' bytes: trials of equal radii, paired ones
    too, share one build, and a trial whose radii differ builds its own.
    The build holds a lock, so the second of two paired trials waits for
    the first's.  No matrix outlives the call."""
    built, lock = {}, threading.Lock()

    def profiles(d: int, radii: np.ndarray, ts: np.ndarray,
                 family: str) -> np.ndarray:
        key = (d, radii.tobytes(), ts.tobytes(), family)
        with lock:
            if key not in built:
                built[key] = op.profile_matrix(d, radii, ts, family)
            return built[key]

    return profiles


def _decomposition_trial(draw, grid: TruncationGrid,
                         profiles=op.profile_matrix) -> dict:
    f = draw()
    d = f.spec.dimension
    dyadic = grid.dyadic_values()
    norm_f = l2_norm(f)
    spectrum = op.half_spectrum(f)
    del f
    radii = spectrum.radii

    # m is evaluated once, on every truncation value the trial uses; r1's,
    # the dyadic and the octave profiles are columns of that one matrix,
    # which profiles may share with other trials, so it is only read
    octaves = _octaves(grid)
    ts = np.unique(np.concatenate([grid.values(), *octaves]))
    prof_all = profiles(d, radii, ts, "factor_m")

    def profile(values: np.ndarray) -> np.ndarray:
        return prof_all[:, np.searchsorted(ts, values)]

    prof_dyadic = profile(dyadic)
    gap = prof_dyadic - profiles(d, radii, dyadic, "poisson")
    sups = [profile(grid.values()), prof_dyadic, gap] + [
        profile(octave) - prof_dyadic[:, idx:idx + 1]
        for idx, octave in enumerate(octaves)]
    r1, a, c, *octave_norms = (norm / norm_f for norm in op._norms(
        spectrum, [([None], sup, None) for sup in sups]))
    b = math.sqrt(sum(norm * norm for norm in octave_norms))
    # the classes have disjoint supports, so each adds ||u_i||^2 per column
    sum_mp_sq = np.sum(np.square(gap), axis=1) @ spectrum.energies(None)
    return {"a": a, "b": b, "c": c, "r1": r1,
            "sum_dyadic_poisson_gap_sq": sum_mp_sq / norm_f ** 2,
            "triangle_slack": a + b - r1}


def poisson_suite(d: int, n: int, band: float, trials: int,
                  seed: int) -> ExperimentReport:
    """Poisson maximal function, discretized square function, projection
    square function, and the telescoping reconstruction residual.

    Each trial transforms its field once: the maximal function streams
    over its half spectrum, and the L2 norms of the square function g and
    the S_n square function come from its class energies.  The telescoping
    check keeps its own full-spectrum route.

    The projections run over n in [n_min, 20], with n_min the largest
    integer <= -20 such that 2^(n_min-1) band / sqrt(d) <= 2^-20, which
    keeps the small-t part of the telescoping residual below 2^-20.
    """
    spec = GridSpec(d, n)
    band = _capped_band(band, spec)
    grid = TruncationGrid(n_min=-10, n_max=7, depth=2)
    n_min = min(-20, -19 - math.ceil(math.log2(band / math.sqrt(d))))
    n_max = 20
    report = ExperimentReport(
        "poisson", seed,
        {"d": d, "N": n, "band": band, "trials": trials,
         "t_nodes": [float(_G_NODES[0]), float(_G_NODES[-1]), len(_G_NODES)],
         "n_range": [n_min, n_max]})
    _run_trials(report, spec, band, trials,
                lambda draw: _poisson_trial(draw, grid, n_min, n_max),
                need=lambda: _trial_bytes(
                    spec, band, seed, [(False, [([None], grid.values().size)])],
                    op._projection_sum_bytes(spec)))
    return report


def _poisson_trial(draw, grid: TruncationGrid, n_min: int,
                   n_max: int) -> dict:
    f = draw()
    norm_f = l2_norm(f)
    rec = poisson_projection_sum(f, n_min, n_max).samples
    telescope = l2_norm(SpatialField(f.spec, f.samples - rec)) / norm_f
    del rec
    spectrum = op.half_spectrum(f)
    del f
    # over disjoint classes a square function of profiles P and weights w
    # has ||.||^2 = sum_i (sum_c w_c P_ic^2) ||u_i||^2; S_n's weights are 1
    energies = spectrum.energies(None)
    profiles, weights = op._square_profiles(spectrum, _G_NODES)
    rate = spectrum.radii / math.sqrt(spectrum.spec.dimension)
    scales = 2.0 ** np.arange(n_min, n_max + 1)
    sn = np.exp(-np.outer(rate, scales / 2.0)) - np.exp(-np.outer(rate, scales))
    return {
        "poisson_max_ratio":
            l2_norm(maximal_over(spectrum, "poisson", grid)) / norm_f,
        "g_ratio": math.sqrt(np.square(profiles) @ weights @ energies)
        / norm_f,
        "sn_square_ratio": math.sqrt(np.sum(np.square(sn), axis=1)
                                     @ energies) / norm_f,
        "telescope_residual": telescope,
    }


def numerical_inequality_check(g, n: int, l_max: int,
                               label: str = "g") -> ExperimentReport:
    """Dyadic-variation inequality on [2^n, 2^(n+1)]:

        sup_t |g(t) - g(2^n)|
            <= sqrt(2) sum_l (sum_m |g-increments at level l|^2)^(1/2).

    Reports the dense-sample LHS, the cumulative RHS(L) per level, and a
    Lipschitz-based estimate of the truncated tail.  g is evaluated once
    per point of 2^max(12, l_max) equal steps; the interval is dyadic, so
    every level's knots are among those points.  A negative l_max raises
    DomainError, and samples past physical memory ResourceError, before g
    is evaluated.
    """
    if l_max < 0:
        raise DomainError(f"l_max must be >= 0, got {l_max}")
    levels = max(12, l_max)
    # the float grid, the list of g's values (a pointer and an object each)
    # and the complex array: 64 bytes a sample; no memory holds 2^64 of them
    op._require_memory(64 * (2 ** min(levels, 64) + 1),
                       f"2^{levels} + 1 samples of g")
    n_samples = 2 ** levels
    lo, hi = 2.0 ** n, 2.0 ** (n + 1)
    dense = np.linspace(lo, hi, n_samples + 1)
    g_dense = np.array([g(t) for t in dense], dtype=complex)
    lhs = float(np.max(np.abs(g_dense - g_dense[0])))
    lipschitz = float(np.max(np.abs(np.diff(g_dense))) / (dense[1] - dense[0]))

    report = ExperimentReport(
        "ineq", 0, {"g": label, "n": n, "l_max": l_max, "n_samples": n_samples})
    report.add(0, 0, 0, "lhs", lhs)
    report.add(0, 0, 0, "lipschitz", lipschitz)
    rhs = 0.0
    for level in range(l_max + 1):
        increments = np.abs(np.diff(g_dense[::n_samples >> level]))
        rhs += math.sqrt(2.0) * float(np.sqrt(np.sum(increments ** 2)))
        report.add(0, 0, 0, f"rhs_L={level}", rhs)
    # levels beyond l_max: increments <= Lip * 2^(n - l), so the level-l term
    # is at most Lip 2^n 2^(-l/2); geometric tail
    tail = math.sqrt(2.0) * lipschitz * 2.0 ** n \
        * 2.0 ** (-(l_max + 1) / 2.0) / (1.0 - 2.0 ** -0.5)
    report.add(0, 0, 0, "tail_estimate", tail)
    report.add(0, 0, 0, "holds", float(lhs <= rhs + tail))
    report.sort_rows()
    return report


def rotation_check(d: int, n: int, t: float, n_angles: int, band: float,
                   seed: int, j: int = 1,
                   doublings: int = 2) -> ExperimentReport:
    """Relative L2 error of the rotation-method reconstruction against the
    spectral truncated Riesz transform, for successive angle doublings,
    plus sphere-moment consistency checks."""
    spec = GridSpec(d, n)
    band = _capped_band(band, spec)
    f = random_band_limited(spec, band, seed=seed)
    reference = apply_symbol(f, MultiplierSymbol.truncated_riesz(j, t))
    norm_ref = l2_norm(reference)
    report = ExperimentReport(
        "rotation", seed,
        {"d": d, "N": n, "t": t, "n_angles": n_angles, "band": band, "j": j})
    angles = n_angles
    for _ in range(doublings + 1):
        approx = rotation_reconstruct(f, j, t, angles)
        diff = SpatialField(spec, approx.samples - reference.samples)
        report.add(d, n, 0, f"rot_error_angles={angles}",
                   l2_norm(diff) / norm_ref)
        angles *= 2
    for dim in range(2, 17):
        area = sphere_moment(2.0, dim) * dim
        expected = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
        report.add(dim, 0, 0, f"sphere_moment_gap_d={dim}",
                   abs(area - expected) / expected)
    report.sort_rows()
    return report


def multiplier_bound_suite(d_list, x_grid) -> ExperimentReport:
    """Margins of the three quantitative multiplier bounds over a grid.

    m is evaluated once per dimension, at every x of the grid but NaN,
    which takes no check.  A value of m depends on its argument only, so
    each margin is check_small_arg's, check_large_arg's or
    check_derivative's at its x, bit for bit, and a negative x raises
    DomainError."""
    report = ExperimentReport(
        "multiplier_bounds", 0,
        {"d_list": list(d_list),
         "x_grid": [float(x_grid[0]), float(x_grid[-1]), len(x_grid)]})
    xs = [float(x) for x in x_grid if not math.isnan(x)]
    for d in d_list:
        sq = math.sqrt(d)
        m = dict(zip(xs, multiplier.m_values(d, xs).tolist()))
        for x in xs:
            if x <= sq:
                chk = multiplier._small_arg(d, x, m[x])
                report.add(d, 0, 0, f"small_margin_x={x:.6g}", chk.margin)
            if x >= sq:
                chk = multiplier._large_arg(d, x, m[x])
                report.add(d, 0, 0, f"large_margin_x={x:.6g}", chk.margin)
            if x > 0:
                chk = check_derivative(d, x)
                report.add(d, 0, 0, f"deriv_margin_x={x:.6g}", chk.margin)
    report.sort_rows()
    return report


def specfun_bound_suite(nu_list=(2, 3, 5, 10), t_max: float = 100.0,
                        n_points: int = 200) -> ExperimentReport:
    """Envelope and unit-bound margins for the Bessel function."""
    report = ExperimentReport(
        "specfun_bounds", 0,
        {"nu_list": list(nu_list), "t_max": t_max, "n_points": n_points})
    ts = np.linspace(0.0, t_max, n_points)
    for nu in nu_list:
        for t in ts:
            val = bessel_j(float(nu), float(t))
            env = bessel_envelope(float(nu), float(t))
            report.add(nu, 0, 0, f"envelope_margin_t={t:.6g}", env - abs(val))
            report.add(nu, 0, 0, f"unit_margin_t={t:.6g}", 1.0 - abs(val))
    report.sort_rows()
    return report


# ---------------------------------------------------------------------------
# report merging


def read_rows(path) -> list[dict]:
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}")
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
            raise DomainError(f"{path}: unexpected CSV columns {reader.fieldnames}")
        return [dict(r) for r in reader]


def merge_reports(paths) -> list[dict]:
    """Concatenate report CSVs; identical keys must carry identical values."""
    seen: dict[tuple, str] = {}
    merged = []
    for path in paths:
        for row in read_rows(path):
            key = (row["experiment_id"], row["seed"], row["d"], row["N"],
                   row["trial"], row["quantity"])
            if key in seen:
                if seen[key] != row["value"]:
                    raise IntegrityError(
                        f"conflicting values for {key}: "
                        f"{seen[key]} vs {row['value']}")
                continue
            seen[key] = row["value"]
            merged.append(row)
    merged.sort(key=lambda r: (r["experiment_id"], int(r["d"]), int(r["N"]),
                               int(r["trial"]), r["quantity"]))
    return merged
