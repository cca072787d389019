"""d-dimensional periodic grids, unitary DFT, the L^2 norm, and test fields.

The box is [0, L)^d sampled with N points per axis.  Frequencies are
xi = k / L with integer lattice k in [-N/2, N/2)^d (numpy FFT layout).
The transform is normalized so that the discrete Parseval identity

    sum |f(x)|^2 (L/N)^d  =  sum |F(k)|^2

holds exactly, matching the unitary continuum convention; multiplier
operator norms then equal symbol sup-norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError

__all__ = [
    "GridSpec",
    "SpatialField",
    "SpectralField",
    "forward_transform",
    "inverse_transform",
    "l2_norm",
    "random_band_limited",
]

MAX_SAMPLES = 2 ** 24  # memory budget in grid samples


@dataclass(frozen=True)
class GridSpec:
    """Sampling of the periodic box [0, L)^d with N points per axis."""

    dimension: int
    points_per_axis: int
    period: float = 1.0

    def __post_init__(self):
        if self.dimension < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dimension}")
        if self.points_per_axis < 4 or self.points_per_axis % 2 != 0:
            raise DomainError(
                f"points_per_axis must be even and >= 4, got {self.points_per_axis}")
        if self.period <= 0:
            raise DomainError(f"period must be positive, got {self.period}")
        if self.n_samples > MAX_SAMPLES:
            raise ResourceError(
                f"N^d = {self.n_samples} exceeds the sample budget {MAX_SAMPLES}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dimension

    @property
    def n_samples(self) -> int:
        return self.points_per_axis ** self.dimension

    @property
    def cell_volume(self) -> float:
        return (self.period / self.points_per_axis) ** self.dimension

    def freq_axis(self) -> np.ndarray:
        """1-d frequency axis k/L in FFT layout."""
        n, length = self.points_per_axis, self.period
        return np.fft.fftfreq(n, d=length / n)

    def freq_component(self, axis: int) -> np.ndarray:
        """xi_axis over the full lattice (FFT layout); axis counts from 1."""
        if not 1 <= axis <= self.dimension:
            raise DomainError(f"axis must be in 1..{self.dimension}, got {axis}")
        shape = [1] * self.dimension
        shape[axis - 1] = self.points_per_axis
        return np.broadcast_to(self.freq_axis().reshape(shape), self.shape)

    def freq_radius(self) -> np.ndarray:
        """|xi| over the full lattice (FFT layout)."""
        axis_sq = self.freq_axis() ** 2
        total = np.zeros(self.shape)
        for j in range(self.dimension):
            shape = [1] * self.dimension
            shape[j] = self.points_per_axis
            total += axis_sq.reshape(shape)
        return np.sqrt(total, out=total)


@dataclass(frozen=True)
class SpatialField:
    """Samples of a function on the grid, real (float64) or complex, FFT
    axis order."""

    spec: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        if self.samples.shape != self.spec.shape:
            raise DomainError(
                f"samples shape {self.samples.shape} != grid shape {self.spec.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise DomainError("field samples must be finite")


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients on the lattice k in [-N/2, N/2)^d, FFT layout."""

    spec: GridSpec
    coefficients: np.ndarray

    def __post_init__(self):
        if self.coefficients.shape != self.spec.shape:
            raise DomainError(
                f"coefficient shape {self.coefficients.shape} != grid shape "
                f"{self.spec.shape}")


def forward_transform(f: SpatialField,
                      f_hat: np.ndarray | None = None) -> SpectralField:
    """Unitary DFT: coefficients approximating the continuum transform at
    xi=k/L.  f_hat, np.fft.fftn of f's samples, may be given to share it."""
    spec = f.spec
    scale = spec.period ** (spec.dimension / 2.0) / spec.n_samples
    return SpectralField(spec, (np.fft.fftn(f.samples) if f_hat is None
                                else f_hat) * scale)


def inverse_transform(F: SpectralField) -> SpatialField:
    """Inverse of forward_transform (exact round trip up to rounding)."""
    return SpatialField(F.spec, _inverse_in_place(
        F.coefficients.astype(complex), F.spec))


def _inverse_in_place(coeff: np.ndarray, spec: GridSpec) -> np.ndarray:
    """inverse_transform of the complex lattice array coeff, computed in it."""
    np.fft.ifftn(coeff, out=coeff)
    coeff *= spec.n_samples / spec.period ** (spec.dimension / 2.0)
    return coeff


def l2_norm(f: SpatialField) -> float:
    power = np.abs(f.samples)
    np.square(power, out=power)
    return float(np.sqrt(np.sum(power) * f.spec.cell_volume))


def random_band_limited(spec: GridSpec, band_radius: float,
                        seed: int) -> SpatialField:
    """Real (float64) mean-zero field with i.i.d. Gaussian coefficients on
    0 < |xi| <= band_radius, conjugate-symmetrized; deterministic per seed.
    The coefficients at the band's bins (_band_coefficients) fill one
    complex lattice array, which is inverse transformed in place."""
    from .operators import _require_memory      # operators imports fields
    bins, coeff = _band_coefficients(spec, band_radius, seed)
    # a complex lattice array and the real copy, with 2 d + 6 values per bin
    _require_memory(8 * (3 * spec.n_samples + (2 * spec.dimension + 6)
                         * bins.size), "the band-limited field")
    lattice = np.zeros(spec.shape, dtype=complex)
    lattice.ravel()[bins] = coeff
    lattice = _inverse_in_place(lattice, spec).real.copy()  # frees the complex
    return SpatialField(spec, lattice)


def _band_coefficients(spec: GridSpec, band_radius: float,
                       seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The band's bins 0 < |xi| <= band_radius (flat lattice indices, in
    order) and random_band_limited's coefficients there: the Hermitian
    average 0.5 (c(k) + conj(c(-k))) of c = a + i b, with a and b the
    generator's two standard normal streams over the whole lattice.

    The lattice is walked in blocks of whole axis-0 indices of about
    _BLOCK_VALUES samples: |xi|^2 is summed per block in freq_radius's
    order, and each stream is drawn block by block, which continues the
    same stream, so only the values at the bins are kept."""
    from .operators import _BLOCK_VALUES, _require_memory
    nyquist = spec.points_per_axis / (2.0 * spec.period)
    if not 0 < band_radius < nyquist:
        raise DomainError(
            f"band_radius must lie in (0, N/(2L)) = (0, {nyquist}), got {band_radius}")
    n, d = spec.points_per_axis, spec.dimension
    slab = spec.n_samples // n
    step = max(1, _BLOCK_VALUES // slab) * slab
    axis_sq = spec.freq_axis() ** 2
    starts = range(0, spec.n_samples, step)
    found = []
    for lo in starts:
        first = lo // slab
        total = np.zeros((min(step, spec.n_samples - lo) // slab,)
                         + (n,) * (d - 1))
        for j in range(d):
            shape = [1] * d
            shape[j] = n
            term = axis_sq.reshape(shape)
            total += term[first:first + len(total)] if j == 0 else term
        found.append(lo + np.flatnonzero(np.sqrt(total, out=total)
                                         <= band_radius))
    bins = np.concatenate(found)[1:]                        # not k = 0
    # two blocks of draws, and 2 d + 6 values per bin
    _require_memory(8 * (2 * min(step, spec.n_samples) + (2 * d + 6)
                         * bins.size), "the band's coefficients")
    edges = np.searchsorted(bins, [*starts, spec.n_samples])
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(2):
        part = np.empty(bins.size)
        for lo, a, b in zip(starts, edges[:-1], edges[1:]):
            block = rng.standard_normal(min(step, spec.n_samples - lo))
            part[a:b] = block[bins[a:b] - lo]
        parts.append(part)
    coeff = parts[0] + 1j * parts[1]
    partner = np.searchsorted(bins, np.ravel_multi_index(
        [-k for k in np.unravel_index(bins, spec.shape)], spec.shape, mode="wrap"))
    return bins, 0.5 * (coeff + np.conj(coeff[partner]))
