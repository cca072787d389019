"""Spectral and spatial operators on periodic fields.

Covers the Riesz transform, its truncations (spectral route via the radial
factorization profile, spatial route via the periodized kernel), the
Poisson semigroup with its maximal/square/projection companions, maximal
operators over finite truncation grids, and the method-of-rotations
reconstruction.

Each maximal and square operator has a symbol angular(xi) * profile(t |xi|)
and is one reduction, by a max or a weighted sum over the columns c of a
profile matrix P, of s_c = sum over angular symbols of |sum_i P[i, c] u_i|^2,
where u_i is the field's class of equal integer |k|^2 under the symbol.
A list of reductions is one pass, and _plan makes every decision of it
once, before any transform, into a frozen plan that holds sizes only: the
route, the streams and their rows, the chunk and the piece, each stream's
head group, tail slabs and buffer, each reduction's form, and the byte
estimate as named terms, which _route checks and the drivers read to pair
their trials.  The streamed route finishes each class's inverse FFT as
many axis-0 slabs as a tail budget holds, and at least those a chunk
needs, or for several symbols one axis-1 sub-slab, at a time, and every
reduction reduces each chunk of samples in cache as it would alone; one
symbol's sums are bit for bit RadialBundle.sums of the field's
radial_bundle, the reference decomposition, which no reduction builds.
It runs one pass over one row list (the identity's parts, then each
axis's), or, on two cores where the reductions over several axes and
those over one axis each take fewer rows than the pass, two streams at
once, one per core, each over its own set's rows and at one BLAS thread,
with the same chunks and so the same bits.  A driver's seeded trials may
run two at once the same way (_pairs, _run_streams), and then each pass
of a trial takes one stream.  At d = 1, past max(64, 2 n_columns)
classes or past physical memory, each reduction takes one inverse FFT
per column and symbol instead, whose estimate must fit or ResourceError
is raised.  Several symbols with no more pairs of classes than columns
reduce by the per-point Gram matrix of the classes, accumulated over a
chunk of a few blocks and taken through the columns by one product per
chunk (per block when the pairs are few).  Routes return sums, never
fields: a norm is summed chunk by chunk (_norms), and a norm under a
symbol, or of a square function, is read from HalfSpectrum.energies,
since the classes have disjoint supports.
Every inverse FFT runs irfftn's passes over the lines its bins occupy
only, bit for bit.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import InitVar, dataclass
from functools import cache, cached_property

import numpy as np
from scipy import fft as sfft
from scipy.special import (gammaln, j0 as bessel_j0, j1 as bessel_j1, sici,
                           struve)

from . import multiplier
from .errors import DomainError, ResourceError, UnsupportedDimensionError
from .fields import (GridSpec, SpatialField, SpectralField,
                     _band_coefficients, _inverse_in_place, forward_transform,
                     inverse_transform)

__all__ = [
    "MultiplierSymbol",
    "TruncationGrid",
    "Kernel",
    "riesz_radial_profile",
    "profile_matrix",
    "apply_symbol",
    "maximal_over",
    "vector_maximal",
    "square_function",
    "poisson_projection_sum",
    "rotation_reconstruct",
    "sphere_moment",
    "HalfSpectrum",
    "half_spectrum",
    "RadialBundle",
    "radial_bundle",
]

MAXIMAL_FAMILIES = ("truncated_riesz", "factor_m", "poisson", "conjugate_poisson")


# ---------------------------------------------------------------------------
# truncation grids


@dataclass(frozen=True)
class TruncationGrid:
    """Dyadic truncation values 2^n, n_min <= n <= n_max, refined inside
    each octave by binary subdivision down to depth levels.  2^n is a
    positive finite double for -1074 <= n <= 1023 only."""

    n_min: int
    n_max: int
    depth: int = 0

    def __post_init__(self):
        if not -1074 <= self.n_min <= self.n_max <= 1023:
            raise DomainError(f"need -1074 <= n_min <= n_max <= 1023, got "
                              f"n_min {self.n_min} and n_max {self.n_max}")
        if self.depth < 0:
            raise DomainError(f"depth must be >= 0, got {self.depth}")

    def values(self) -> np.ndarray:
        """All t = 2^n (1 + m 2^-l), sorted and deduplicated."""
        fractions = np.unique(
            np.concatenate([np.arange(2 ** level) / 2 ** level
                            for level in range(self.depth + 1)]))
        octaves = 2.0 ** np.arange(self.n_min, self.n_max + 1)
        return np.unique(np.outer(octaves, 1.0 + fractions).ravel())

    def dyadic_values(self) -> np.ndarray:
        return 2.0 ** np.arange(self.n_min, self.n_max + 1)

    def octave_values(self, n: int) -> np.ndarray:
        """Refinement nodes of [2^n, 2^(n+1)] including both endpoints."""
        steps = np.arange(2 ** self.depth + 1) / 2 ** self.depth
        return 2.0 ** n * (1.0 + steps)


# ---------------------------------------------------------------------------
# the radial factorization profile, all supported dimensions


def riesz_radial_profile(d: int, xs) -> np.ndarray:
    """The radial factor of the truncated-Riesz symbol at argument x = t |xi|.

    For d >= 4 this is the multiplier m of the multiplier module.  For
    d in {2, 3} the same Bessel integral has closed forms in J_0, J_1 and
    the sine integral.
    """
    xs = np.asarray(xs, dtype=float)
    if d >= 4:
        return multiplier.m_values(d, xs)
    if d == 3:
        a = 2.0 * math.pi * xs
        small = a < 1e-3
        a_safe = np.where(small, 1.0, a)
        si, _ = sici(a)
        exact = (np.sin(a_safe) / (2.0 * a_safe ** 2)
                 - np.cos(a_safe) / (2.0 * a_safe)
                 + (math.pi / 2.0 - si) / 2.0)
        series = a / 6.0 - a ** 3 / 60.0 + (math.pi / 2.0 - si) / 2.0
        return (4.0 / math.pi) * np.where(small, series, exact)
    if d == 2:
        a = 2.0 * math.pi * xs
        # int_0^a J_0 via the Struve identity (itj0y0 loses accuracy for a > 25)
        int_j0 = a * bessel_j0(a) + (math.pi * a / 2.0) \
            * (struve(0, a) * bessel_j1(a) - struve(1, a) * bessel_j0(a))
        return bessel_j1(a) + 1.0 - int_j0
    raise UnsupportedDimensionError(
        f"the radial profile is available for d >= 2, got d={d}")


def profile_matrix(d: int, radii: np.ndarray, ts: np.ndarray,
                   family: str) -> np.ndarray:
    """The radial profile of a maximal family at t * r, as an (n_radii, n_t)
    matrix (radii are flattened)."""
    args = np.outer(radii, ts)
    if family in ("factor_m", "truncated_riesz"):
        uniq, inv = np.unique(args, return_inverse=True)
        return riesz_radial_profile(d, uniq)[inv].reshape(args.shape)
    if family in ("poisson", "conjugate_poisson"):
        return np.exp(-args / math.sqrt(d))
    raise DomainError(f"unknown maximal family {family!r}; "
                      f"expected one of {MAXIMAL_FAMILIES}")


# ---------------------------------------------------------------------------
# symbols


def _riesz_constant(d: int) -> float:
    """c_d = Gamma((d+1)/2) / pi^((d+1)/2), the Riesz kernel's constant."""
    return math.exp(float(gammaln((d + 1) / 2))
                    - 0.5 * (d + 1) * math.log(math.pi))


def _riesz_angular(spec: GridSpec, j: int) -> np.ndarray:
    radius = spec.freq_radius()
    comp = spec.freq_component(j)
    with np.errstate(invalid="ignore", divide="ignore"):
        sym = -1j * np.where(radius > 0, comp / np.where(radius > 0, radius, 1.0), 0.0)
    return sym


@dataclass(frozen=True)
class MultiplierSymbol:
    """Tagged radial-times-angular Fourier symbol.

    kind is one of riesz, truncated_riesz, factor_m, poisson,
    conjugate_poisson.
    """

    kind: str
    j: int | None = None
    t: float | None = None

    # constructors ----------------------------------------------------------

    @classmethod
    def riesz(cls, j: int) -> "MultiplierSymbol":
        return cls(kind="riesz", j=j)

    @classmethod
    def truncated_riesz(cls, j: int, t: float) -> "MultiplierSymbol":
        cls._positive(t, "t")
        return cls(kind="truncated_riesz", j=j, t=t)

    @classmethod
    def factor_m(cls, t: float) -> "MultiplierSymbol":
        cls._positive(t, "t")
        return cls(kind="factor_m", t=t)

    @classmethod
    def poisson(cls, t: float) -> "MultiplierSymbol":
        if t < 0:
            raise DomainError(f"poisson requires t >= 0, got {t}")
        return cls(kind="poisson", t=t)

    @classmethod
    def conjugate_poisson(cls, j: int, t: float) -> "MultiplierSymbol":
        cls._positive(t, "t")
        return cls(kind="conjugate_poisson", j=j, t=t)

    @staticmethod
    def _positive(value: float, name: str) -> None:
        if not value > 0:
            raise DomainError(f"{name} must be positive, got {value}")

    # evaluation ------------------------------------------------------------

    def values(self, spec: GridSpec) -> np.ndarray:
        """Symbol values over the frequency lattice (FFT layout).

        Odd symbols take the value 0 at xi = 0, keeping outputs mean-zero.
        """
        d = spec.dimension
        if self.kind == "riesz":
            return _riesz_angular(spec, self.j)
        if self.kind == "truncated_riesz":
            return _riesz_angular(spec, self.j) * self._radial(spec)
        if self.kind == "factor_m":
            return self._radial(spec).astype(complex)
        if self.kind == "poisson":
            return np.exp(-self.t * spec.freq_radius() / math.sqrt(d)).astype(complex)
        if self.kind == "conjugate_poisson":
            decay = np.exp(-self.t * spec.freq_radius() / math.sqrt(d))
            return _riesz_angular(spec, self.j) * decay
        raise DomainError(f"unknown symbol kind {self.kind!r}")

    def _radial(self, spec: GridSpec) -> np.ndarray:
        return profile_matrix(spec.dimension, spec.freq_radius(),
                              np.array([self.t]), "factor_m").reshape(spec.shape)


def apply_symbol(f: SpatialField, s: MultiplierSymbol) -> SpatialField:
    """Pointwise multiplication of the Fourier coefficients by the symbol."""
    _require_memory(16 * 6 * f.spec.n_samples, "the symbol's application")
    coeff = forward_transform(f).coefficients * s.values(f.spec)
    return inverse_transform(SpectralField(f.spec, coeff))


# ---------------------------------------------------------------------------
# the spatial (kernel) route


@dataclass(frozen=True)
class Kernel:
    """Truncated Riesz kernel c_d x_j / |x|^(d+1) on |x| > t, periodized
    over image_radius neighbor cells per axis."""

    dimension: int
    axis: int
    truncation: float
    image_radius: int = 1

    def __post_init__(self):
        if self.truncation <= 0:
            raise DomainError(f"truncation must be positive, got {self.truncation}")
        if self.image_radius < 0:
            raise DomainError("image_radius must be >= 0")

    def normalization(self) -> float:
        return _riesz_constant(self.dimension)

    def sample(self, spec: GridSpec) -> np.ndarray:
        """Kernel values at the lattice offsets (FFT order), image sum: one
        truncation's walk (_kernel_samples)."""
        if spec.dimension != self.dimension:
            raise DomainError("kernel dimension does not match the grid")
        return _kernel_samples(spec, self.axis, [self.truncation],
                               self.image_radius)[0]


def _kernel_samples(spec: GridSpec, axis: int, truncations,
                    image_radius: int) -> list:
    """Kernel(d, axis, t, image_radius).sample(spec) for each t of
    truncations, from one walk over the image cells.  Each image's r,
    r^(d+1) and x_axis / r^(d+1) are computed once, where r exceeds the
    least t, and each t adds them where r > t, image by image; a skipped
    sum would have added +0.0 to a sum that is never -0.0, so each sample
    is the one-truncation walk's, bit for bit.  It holds one float lattice
    per t, plus r, the next image's r while it is summed, r^(d+1), the
    quotients and their masks: at most four more."""
    d, length = spec.dimension, spec.period
    # offsets in (-L/2, L/2], FFT order
    base = np.fft.fftfreq(spec.points_per_axis) * length
    totals = [np.zeros(spec.shape) for _ in truncations]
    vals = np.empty(spec.shape)
    least = min(truncations)
    shifts = np.arange(-image_radius, image_radius + 1) * length
    for image in np.stack(np.meshgrid(*([shifts] * d), indexing="ij"),
                          axis=-1).reshape(-1, d):
        # per-axis offsets of this image cell, broadcast against each other
        coords = np.meshgrid(*(base + s for s in image), indexing="ij",
                             sparse=True)
        r = sum(c ** 2 for c in coords)
        np.sqrt(r, out=r)
        np.divide(coords[axis - 1], r ** (d + 1), out=vals, where=r > least)
        for t, total in zip(truncations, totals):
            np.add(total, vals, out=total, where=r > t)
    del r, vals
    # The periodized kernel is exactly odd; the finite image sum breaks
    # that on the -L/2 edge planes (their +L/2 counterparts fall outside
    # the image range).  Antisymmetrizing restores oddness exactly.
    c_d = _riesz_constant(d)
    for k, total in enumerate(totals):
        reflected = total
        for a in range(d):
            reflected = np.roll(np.flip(reflected, axis=a), 1, axis=a)
        totals[k] = c_d * 0.5 * (total - reflected)
    return totals


# ---------------------------------------------------------------------------
# radius-class decomposition

# A conjugate pair of coefficients whose RMS magnitude is below this
# fraction of the peak counts as inactive, so band-limited fields produce
# only the handful of classes inside the band.
_REL_TOL = 1e-13

# Sample blocks of the reductions hold about this many float64 values per
# (n_t, block) temporary: 512 kB, which stays in a core's L2 cache.  The
# Gram form's accumulator over a chunk of whole blocks holds as many.
_BLOCK_VALUES = 1 << 16

# The streamed route's tails of whole axis-0 slabs take as many slabs per
# call as fill about this many float64 values over every row and class of
# a stream (4 MiB), and at least one (_chunk_plan, _class_chunks): fewer,
# larger FFT calls for a few MB of buffer, where with no budget a small
# lattice's pass would hold every slab of every class at once.
_TAIL_VALUES = 8 * _BLOCK_VALUES


def _sample_blocks(n_samples: int, n_rows: int):
    step = max(1, _BLOCK_VALUES // max(n_rows, 1))
    for lo in range(0, n_samples, step):
        yield slice(lo, min(lo + step, n_samples))


def _streams(spec: GridSpec) -> bool:
    """Whether the sweep takes its four maxima from one norms pass
    (experiments._sweep_trial), not one call each: at d > 1, on lattices of
    more than _BLOCK_VALUES samples."""
    return spec.dimension > 1 and spec.n_samples > _BLOCK_VALUES


def _physical_memory() -> int:
    """Bytes of physical memory: the budget of the large allocations."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _require_memory(nbytes: int, what: str) -> None:
    """Raise ResourceError when an estimate of the bytes live at once
    exceeds the budget, before anything of that size is allocated."""
    budget = _physical_memory()
    if nbytes > budget:
        raise ResourceError(
            f"{what} needs about {nbytes / 2 ** 30:.2f} GiB at once, more "
            f"than the {budget / 2 ** 30:.2f} GiB of physical memory")


def _class_buffer_bytes(spec: GridSpec) -> int:
    """Bytes of one radius class in flight: its inverse transform's complex
    half-spectrum input of the last pass and float64 samples."""
    n = spec.points_per_axis
    return 16 * spec.n_samples // n * (n // 2 + 1) + 8 * spec.n_samples


def _bundle_bytes(spec: GridSpec, n_r: int, n_parts: int) -> int:
    """Bytes of a radial bundle of n_r classes, float64 (one part) or
    complex (two parts), plus one class in flight while it is built."""
    return 8 * n_parts * n_r * spec.n_samples + _class_buffer_bytes(spec)


def _half_shape(spec: GridSpec) -> tuple[int, ...]:
    """The real-to-complex half spectrum's shape: the last axis is 0..N/2."""
    n = spec.points_per_axis
    return (n,) * (spec.dimension - 1) + (n // 2 + 1,)


@dataclass
class HalfSpectrum:
    """A field's grid with the unnormalized real-to-complex DFTs of its real
    and imaginary parts at the active bins (imag is None for a real field),
    and the bookkeeping its transforms share: the active bins (flat
    half-spectrum indices), each radius class's integer |k|^2, each active
    bin's class and the class radii |k| / L.  It keeps no samples of the
    field.  The DFTs are given over the whole half spectrum, or at the flat
    half-spectrum indices bins, and kept where their power exceeds
    _REL_TOL^2 of its peak.
    """

    spec: GridSpec
    real: np.ndarray                    # half spectrum, then active bins
    imag: np.ndarray | None
    bins: InitVar[np.ndarray | None] = None  # flat bins of real, if not all

    def __post_init__(self, bins):
        power = np.square(np.abs(self.real))
        if self.imag is not None:
            power += np.square(np.abs(self.imag))
        keep = np.flatnonzero(power > _REL_TOL ** 2
                              * np.max(power, initial=0.0))
        del power
        self.active = keep if bins is None else bins[keep]
        self.real = self.real.ravel()[keep]
        if self.imag is not None:
            self.imag = self.imag.ravel()[keep]
        self.classes, self.class_of_bin = np.unique(
            sum(np.square(self._k(a)) for a in range(self.spec.dimension)),
            return_inverse=True)
        self.radii = np.sqrt(self.classes) / self.spec.period

    def _k(self, a: int) -> np.ndarray:
        """The active bins' frequency index on axis a (from 0), in [-N/2, N/2)."""
        n, half = self.spec.points_per_axis, _half_shape(self.spec)
        index = self.active // math.prod(half[a + 1:]) % half[a]
        return np.where(index < n // 2, index, index - n)

    @cached_property
    def class_transforms(self) -> list:
        """(indices into active, inverse transform) of each class's bins."""
        chosen = (np.flatnonzero(self.class_of_bin == i)
                  for i in range(self.radii.size))
        return [(c, _inverse_transformer(self.spec, self.active[c]))
                for c in chosen]

    def filtered(self, axis: int | None) -> list[np.ndarray]:
        """The inverse-transform inputs, at the active bins, of the real and
        imaginary parts of f under the axis-th Riesz symbol -i k_axis / |k|
        (the identity when axis is None): the filtered spectrum's Hermitian
        and anti-Hermitian parts, the second only when it is nonzero (for a
        complex field, or an odd symbol meeting energy on a Nyquist plane)."""
        spec = self.spec
        # f = a + i b, where a and b have Hermitian transforms fa and fb, and
        # g = gh + ga with gh(-k) = conj(gh(k)), ga(-k) = -conj(ga(k)):
        #   real part       <- fa gh + i fb ga
        #   imaginary part  <- fb gh - i fa ga
        fa = self.real
        gh, ga = 1.0, 0.0
        if axis is not None:
            if not 1 <= axis <= spec.dimension:
                raise DomainError(
                    f"axis must be in 1..{spec.dimension}, got {axis}")
            k_axis = self._k(axis - 1)
            norm = np.sqrt(self.classes[self.class_of_bin])
            g = -1j * np.where(norm > 0, k_axis / np.where(norm > 0, norm, 1.0),
                               0.0)
            # g is odd, so Hermitian, except on the plane k_axis = -N/2,
            # which is its own negative: there g is anti-Hermitian
            nyquist = k_axis == -(spec.points_per_axis // 2)
            gh, ga = np.where(nyquist, 0.0, g), np.where(nyquist, g, 0.0)
        real_part, imag_part = fa * gh, -1j * fa * ga
        if self.imag is not None:
            fb = self.imag
            real_part = real_part + 1j * fb * ga
            imag_part = imag_part + fb * gh
        return [real_part, imag_part] if np.any(imag_part) else [real_part]

    def energies(self, axis: int | None) -> np.ndarray:
        """||u_i||_2^2 of each radius class u_i of f under the axis-th Riesz
        symbol (the identity when axis is None), by Parseval from filtered
        (axis)."""
        return self.parseval(sum(np.square(np.abs(part))
                                 for part in self.filtered(axis)))

    def parseval(self, power: np.ndarray) -> np.ndarray:
        """||u_i||_2^2 of each radius class u_i of the field whose
        unnormalized DFT has power |X|^2 at the active bins (overwritten).
        A bin off the planes k_d = 0, -N/2 (the multiples of N/2) of the half
        spectrum stands for k and -k, so it counts twice."""
        spec = self.spec
        power[self._k(spec.dimension - 1) % (spec.points_per_axis // 2) != 0] *= 2
        return (np.bincount(self.class_of_bin, power, self.radii.size)
                * spec.period ** spec.dimension / spec.n_samples ** 2)


def half_spectrum(f: SpatialField) -> HalfSpectrum:
    """Forward transform of f on the half spectrum, to share between the
    reductions of one field.  It keeps no reference to f's samples, so
    a caller that drops f releases them.  pocketfft takes every core, or
    one in a thread that is one of two streams (_stream_thread), which
    holds a core already; it shares a transform out by lines, so the
    coefficients are the same."""
    samples = f.samples
    workers = 1 if _in_stream() else -1
    imag = (sfft.rfftn(samples.imag, workers=workers)
            if np.iscomplexobj(samples) and np.any(samples.imag) else None)
    return HalfSpectrum(f.spec, sfft.rfftn(samples.real, workers=workers),
                        imag)


def _band_spectrum(spec: GridSpec, band_radius: float,
                   seed: int) -> HalfSpectrum:
    """half_spectrum(random_band_limited(spec, band_radius, seed)), up to
    rounding, with no field and no forward transform: the coefficients at
    the band's bins (fields._band_coefficients) that lie in the half
    spectrum (k_d in 0..N/2), each scaled by N^d / L^(d/2), which takes the
    unitary coefficient to the unnormalized DFT of the field."""
    bins, coeff = _band_coefficients(spec, band_radius, seed)
    n = spec.points_per_axis
    lead, last = np.divmod(bins, n)
    half = last <= n // 2
    scale = spec.n_samples / spec.period ** (spec.dimension / 2.0)
    return HalfSpectrum(spec, coeff[half] * scale, None,
                        lead[half] * (n // 2 + 1) + last[half])


def _as_spectrum(f: SpatialField | HalfSpectrum) -> HalfSpectrum:
    return f if isinstance(f, HalfSpectrum) else half_spectrum(f)


def _inverse_transformer(spec: GridSpec, bins: np.ndarray):
    """A function (values, out=None) -> the flattened inverse real transform
    of the half spectrum that holds values at the flat bins and 0 elsewhere.

    A pruned FFT: irfftn's passes in its order (unscaled complex passes on
    axes 0..d-2, the complex-to-real pass, the scale 1/n), each over the
    occupied lines only, so the samples are bit for bit irfftn's.  The
    values start in an array of every axis's occupied indices; before its
    pass, axis a is widened into a new zeroed array by slice copies of its
    runs (axis d-2 widens the last axis too).  No axis is pruned when the
    last is full, so a pass's input and its widened copy never outgrow
    _class_buffer_bytes(spec).  The function is transform.head(values) (the
    axis-0 pass, a row per axis-0 index), then transform.tail(rows,
    out=None), which may overwrite rows of a head: the later passes act
    within one axis-0 index, so for d >= 2 it gives those rows' samples,
    and a copy of some of a head's rows serves as well as the head.
    values may stack several inputs on leading axes; their heads and tails
    stack the same way, and each line is transformed as it would be alone,
    so heads taken one input at a time and stacked give the same tails.
    For d >= 3 a tail may also stop after transform.widened(rows, 1), the
    axis-1 pass, and go on from one axis-1 index of its output with
    transform.tail(x, out, start=2), which gives that index's samples.
    """
    n, half = spec.points_per_axis, _half_shape(spec)
    last = len(half) - 1
    places, stride, widen, full = np.zeros_like(bins), 1, [], False
    for a in reversed(range(len(half))):
        index = bins // math.prod(half[a + 1:]) % half[a]
        mask = np.full(half[a], full)
        mask[index] = True
        full = full or (a == last and bool(mask.all()))
        places += (np.cumsum(mask) - 1)[index] * stride
        # (source, target) slices of each run of occupied indices
        bounds = np.flatnonzero(np.diff(mask, prepend=False, append=False))
        runs, count = [], 0
        for lo, hi in bounds.reshape(-1, 2).tolist():
            runs.append((slice(count, count + hi - lo), slice(lo, hi)))
            count += hi - lo
        widen.insert(0, (count, runs, stride))   # stride: the later extents
        stride *= count
    scale = 1.0 / spec.n_samples

    def widened(x: np.ndarray, a: int) -> np.ndarray:
        """x, viewed as (lead, occupied, later), widened and passed on axis a."""
        count, runs, later = widen[a]
        x = x.reshape(-1, count, later)
        inner, width = ((widen[last][1], half[last]) if a == last - 1
                        else ([(slice(None),) * 2], later))
        if count < half[a] or width > later:
            narrow, x = x, np.zeros((len(x), half[a], width), complex)
            for source, target in runs:
                for inner_source, inner_target in inner:
                    x[:, target, inner_target] = narrow[:, source, inner_source]
        # One worker: the threads of a multi-threaded transform meet at every
        # pass, and one being descheduled costs more than the threads save.
        if a < last:
            for _, inner_target in inner:
                sfft.ifftn(x[:, :, inner_target], axes=(1,), norm="forward",
                           workers=1, overwrite_x=True)
        return x

    def head(values: np.ndarray) -> np.ndarray:
        lead = values.shape[:-1]
        x = np.zeros(lead + (stride,), dtype=complex)
        x[..., places] = values
        return widened(x, 0).reshape(lead + (half[0], -1))

    def tail(x: np.ndarray, out: np.ndarray | None = None,
             start: int = 1) -> np.ndarray:
        for a in range(start, last):
            x = widened(x, a)
        samples = sfft.irfftn(x.reshape(-1, half[last]), s=(n,), axes=(1,),
                              norm="forward", workers=1)
        if out is None:
            out = samples = samples.reshape(-1)
        return np.multiply(samples.reshape(out.shape), scale, out=out)

    def transform(values: np.ndarray, out: np.ndarray | None = None):
        return tail(head(values), out)

    transform.head, transform.tail, transform.widened = head, tail, widened
    # per stacked input: a head, and the axis-1 pass of one axis-0 index
    transform.head_bytes = 16 * half[0] * (half[1] if last == 1 else widen[0][2])
    transform.pass_bytes = (16 * half[1] * (half[2] if last == 2
                                            else widen[1][2])
                            if last >= 2 else 0)
    return transform


@dataclass
class RadialBundle:
    """A field pre-filtered by an angular symbol and split into frequency
    radius classes: samples(op_t f) = sum_i profile(t r_i) * u_i.

    Class i holds the lattice frequencies k with one integer |k|^2, and
    radii[i] = |k| / L.  components[:, i] = u_i is float64 when the
    filtered spectrum is Hermitian, and complex128 exactly when it has an
    anti-Hermitian part (a complex field, or an odd symbol meeting energy
    on a Nyquist plane).
    """

    spec: GridSpec
    radii: np.ndarray                   # (n_r,)
    components: np.ndarray              # (n_samples, n_r), real or complex
    is_real: bool

    def sums(self, profiles: np.ndarray,
             weights: np.ndarray | None = None) -> np.ndarray:
        """max_c s_c, or sum_c weights[c] s_c when weights are given, with
        s_c = |sum_i profiles[i, c] u_i|^2, over flattened samples, one
        block of _sample_blocks at a time."""
        by_t = np.ascontiguousarray(profiles.T)
        out = np.empty(self.components.shape[0])
        for cols in _sample_blocks(out.size, by_t.shape[0]):
            block = self.components.T[:, cols]          # (n_r, block)
            parts = ((block,) if self.is_real
                     else (block.real.copy(), block.imag.copy()))
            s = _column_sums(by_t, [parts])
            out[cols] = s.max(axis=0) if weights is None else weights @ s
        return out

    def sup_abs(self, profiles: np.ndarray) -> np.ndarray:
        """sup over columns tau of |sum_i u_i P[i, tau]|, flattened samples."""
        out = self.sums(profiles)
        return np.sqrt(out, out=out)


def radial_bundle(f: SpatialField | HalfSpectrum,
                  axis: int | None = None) -> RadialBundle:
    """Split f, filtered by the axis-th Riesz symbol or the identity when
    axis is None, into the radius classes of its HalfSpectrum.

    The components are filled one class at a time: each part of a class
    (see HalfSpectrum.filtered) takes one inverse real transform over the
    lines the class occupies, at most 2 floor(sqrt(|k|^2)) + 1 indices per
    axis; for d >= 2 its tails run over groups of axis-0 indices of about
    _BLOCK_VALUES samples, so one head and one group's tail are in flight.
    No reduction builds a bundle: it is the reference decomposition, whose
    RadialBundle.sums the streamed route's one-axis sums equal bit for bit.
    """
    spectrum = _as_spectrum(f)
    spec = spectrum.spec
    parts = spectrum.filtered(axis)
    n_r = spectrum.radii.size
    _require_memory(_bundle_bytes(spec, n_r, len(parts)), "the radial bundle")
    is_real = len(parts) == 1
    n, slab = spec.points_per_axis, spec.n_samples // spec.points_per_axis
    # at d = 1 a row of the head is a frequency, and a tail over some rows
    # gives no samples
    group = max(1, _BLOCK_VALUES // slab) if spec.dimension > 1 else n
    # row i of by_class is u_i; the bundle's components are its transpose
    by_class = np.empty((n_r, spec.n_samples), dtype=float if is_real else complex)
    rows = (by_class,) if is_real else (by_class.real, by_class.imag)
    for i, (chosen, transform) in enumerate(spectrum.class_transforms):
        for part, row in zip(parts, rows):
            head = transform.head(part[chosen])
            for lo in range(0, n, group):
                transform.tail(head[lo:lo + group],
                               out=row[i, lo * slab:(lo + group) * slab])
    return RadialBundle(spec=spec, radii=spectrum.radii, components=by_class.T,
                        is_real=is_real)


# ---------------------------------------------------------------------------
# maximal and square operators


def _reduce(spectrum: HalfSpectrum, axes: list, profiles: np.ndarray,
            weights: np.ndarray | None = None) -> SpatialField:
    """sqrt(max_c s_c), or sqrt(sum_c weights[c] s_c) when weights are
    given, with s_c = sum over axes of |sum_i profiles[i, c] u_i|^2 and u_i
    the radius classes under the axis's angular symbol, by the route that
    _route picks: streaming or one transform per column."""
    (sums,) = _route(spectrum, [(axes, profiles, weights)])
    np.sqrt(np.maximum(sums, 0.0, out=sums), out=sums)
    return SpatialField(spectrum.spec, sums.reshape(spectrum.spec.shape))


def _norms(spectrum: HalfSpectrum, reductions: list) -> list[float]:
    """l2_norm(_reduce(spectrum, axes, profiles, weights)) for each
    reduction of the list, from one _route whose sums are totalled as they
    are reduced, so no array of the lattice's size is built.  A streamed
    route may run as two streams (_stream_route), with the same bits."""
    cell = spectrum.spec.cell_volume
    return [math.sqrt(total * cell)
            for total in _route(spectrum, reductions, norms=True)]


def _route(spectrum: HalfSpectrum, reductions: list,
           norms: bool = False) -> list:
    """The sums of _reduce, before the square root, for each reduction
    (axes, profiles, weights), or with norms the total of each one's sums
    clipped at 0.  The pass is planned once, before any transform (_plan),
    and its plan's estimate checked; then it runs as one _stream_route, or
    as one _column_route per reduction.

    Nonnegative weights over more columns than classes are compressed first:
    sum_c weights[c] s_c = sum over axes of |R u|^2, where R (n_r x n_r) is
    the triangular factor of diag(sqrt(weights)) P^T = Q R, so the n_r rows
    of R become the columns, each of weight 1.  Like the sum it replaces,
    this takes one dot product per column and then a sum of squares."""
    compressed = []
    for axes, profiles, weights in reductions:
        if weights is not None and profiles.shape[1] > profiles.shape[0]:
            profiles = np.linalg.qr(np.sqrt(weights)[:, None] * profiles.T,
                                    mode="r").T
            weights = np.ones(profiles.shape[1])
        compressed.append((axes, profiles, weights))
    parts = {}
    plan = _plan(spectrum, compressed, norms, parts)
    _require_memory(plan.bytes, f"the {plan.route} route")
    if plan.route == "streamed":
        return _stream_route(spectrum, compressed, plan, parts)
    parts.clear()                       # each column filters its own axes
    out = []
    for reduction in compressed:
        sums = _column_route(spectrum, *reduction)
        out.append(float(np.sum(np.maximum(sums, 0.0, out=sums))) if norms
                   else sums)
    return out


@dataclass(frozen=True)
class _ChunkPlan:
    """How _class_chunks streams the classes of rows rows: in chunks of
    chunk samples, finished piece samples at a time (an axis-0 slab, or an
    axis-1 sub-slab of one), with heads kept for group axis-0 indices at a
    time, tails of slabs pieces per call where pieces are slabs, a buffer
    of width samples per row and class, and bytes held at once."""

    rows: int
    chunk: int
    piece: int
    group: int
    slabs: int
    width: int
    bytes: int


@dataclass(frozen=True)
class _Stream:
    """One stream of a streamed pass: the indices of its reductions, each
    of its axes (the identity first, then ascending) with the slice of its
    rows that holds the axis's parts (HalfSpectrum.filtered), and its
    _ChunkPlan."""

    reductions: tuple
    rows: tuple
    chunks: _ChunkPlan


@dataclass(frozen=True)
class _Plan:
    """One pass's decisions and sizes, made by _plan before any transform:
    its route ("streamed" or "column"), and the byte estimate as named
    terms.  A streamed pass has its chunk, its streams (each with its
    piece) and, for each reduction, the Gram form's samples per product
    (span), or None where it takes block sums; with norms, its sums are
    totalled chunk by chunk."""

    route: str
    terms: tuple
    norms: bool = False
    chunk: int = 0
    spans: tuple = ()
    streams: tuple = ()

    @property
    def bytes(self) -> int:
        return sum(size for _, size in self.terms)


def _plan(spectrum: HalfSpectrum, reductions: list, norms: bool = False,
          parts: dict | None = None) -> _Plan:
    """The plan of one pass over (compressed) reductions (axes, profiles,
    weights): a streamed pass (_stream_plan) at d > 1, with at most
    max(64, 2 n_columns) classes for the widest reduction, where its
    estimate fits in physical memory; else one inverse transform per
    column (a head's row at d = 1 is a frequency, not a slab of samples),
    whose estimate is one transform's work array and samples, the column's
    sum and the float64 output, and the widest reduction's filtered
    coefficients plus a copy and the transform's places of the active
    bins.  It reads the profiles' shapes only.  parts, when given, keeps
    the filtered parts a streamed pass reads, by axis, for the pass."""
    spec, n_r = spectrum.spec, spectrum.radii.size
    widest = max(len(axes) for axes, _, _ in reductions)
    column = _Plan("column", (
        ("transform", _class_buffer_bytes(spec)),
        ("column sums", 16 * spec.n_samples),
        ("coefficients", (24 + 32 * widest) * spectrum.active.size)), norms)
    n_cols = max(profiles.shape[1] for _, profiles, _ in reductions)
    if spec.dimension == 1 or n_r > max(64, 2 * n_cols):
        return column
    plan = _stream_plan(spectrum, reductions, norms,
                        {} if parts is None else parts)
    return plan if plan.bytes <= _physical_memory() else column


def _stream_plan(spectrum: HalfSpectrum, reductions: list, norms: bool,
                 parts: dict, chunk: int | None = None) -> _Plan:
    """The streamed pass's plan, at chunk when it is given; the filtered
    parts of each of its axes are put into parts.

    The chunk is the shortest of the reductions' chunks, each in whole
    blocks of _sample_blocks(n_samples, n_cols): about _BLOCK_VALUES / n_r
    samples, or, for the Gram form (several axes, and no more pairs of
    classes than columns), as many as keep its accumulator of
    n_r (n_r + 1) / 2 pairs within _BLOCK_VALUES values (4 blocks of 315
    samples for 9 classes and 208 columns).  A Gram product spans the
    whole chunk when it holds at most n_r blocks, else one block: with few
    pairs a block's product is bound by memory and fastest in cache; with
    many, by arithmetic, which BLAS shares among cores only once a product
    spans a few blocks.  A piece is an axis-0 slab or, for several axes at
    d >= 3, an axis-1 sub-slab of it when the slab exceeds _BLOCK_VALUES:
    one axis keeps whole slabs, since its buffer is a few slabs and a tenth
    of the tail calls is the faster of the two.

    The reductions over several axes (the vector maximal's) take one
    stream and those over one axis the other, where both are non-empty,
    _two_streams allows it (not inside one of two paired trials, whose
    passes take one stream each) and each stream takes fewer rows than the
    whole pass; else there is one stream.  The streams run at once, so the
    estimate adds their terms: each stream's _class_chunks, the largest of
    one of its reductions' temporaries over a chunk (the Gram form's
    accumulator, pairs x chunk, and product, n_cols x its span, or a
    block's column sums and reduced sums) and its rows' filtered values;
    each Gram reduction's pair weights (n_cols x pairs), and the largest
    one's build (two gathered temporaries of that size, its profiles
    transposed and the pairs' indices); and each reduction's float64 sums,
    n_samples of them or, when norms are summed, one chunk's."""
    spec, n_r = spectrum.spec, spectrum.radii.size
    n, n_samples = spec.points_per_axis, spec.n_samples
    pairs = n_r * (n_r + 1) // 2
    cols = [profiles.shape[1] for _, profiles, _ in reductions]
    steps = [max(1, _BLOCK_VALUES // max(n_cols, 1)) for n_cols in cols]
    grams = [len(axes) > 1 and pairs <= n_cols
             for (axes, _, _), n_cols in zip(reductions, cols)]
    chunk = chunk or min(min(n_samples, step * max(
        1, _BLOCK_VALUES // max(pairs if gram else n_r, 1) // step))
                         for step, gram in zip(steps, grams))
    spans = tuple((chunk if chunk <= n_r * step else step) if gram else None
                  for step, gram in zip(steps, grams))

    def axes_of(chosen: list) -> list:
        return sorted({axis for k in chosen for axis in reductions[k][0]},
                      key=lambda axis: axis or 0)

    def count(chosen: list) -> int:
        return sum(len(parts[axis]) for axis in axes_of(chosen))

    whole = list(range(len(reductions)))
    parts.update((axis, spectrum.filtered(axis)) for axis in axes_of(whole))
    slab = n_samples // n
    piece = (slab // n if len(axes_of(whole)) > 1 and spec.dimension >= 3
             and slab > _BLOCK_VALUES else slab)
    split = [[k for k in whole if len(reductions[k][0]) > 1],
             [k for k in whole if len(reductions[k][0]) == 1]]
    streams = (split if all(split) and _two_streams()
               and max(map(count, split)) < count(whole) else [whole])
    planned = []
    for chosen in streams:
        at, rows = {}, 0
        for axis in axes_of(chosen):
            at[axis] = slice(rows, rows := rows + len(parts[axis]))
        planned.append(_Stream(tuple(chosen), tuple(at.items()),
                               _chunk_plan(spectrum, rows, chunk, piece)))
    gram_cols = [n_cols for n_cols, gram in zip(cols, grams) if gram]
    terms = (
        ("sums", 8 * len(reductions) * (chunk if norms else n_samples)),
        ("class chunks", sum(stream.chunks.bytes for stream in planned)),
        ("reduction temporaries", sum(8 * max(
            pairs * chunk + cols[k] * spans[k] if grams[k]
            else 3 * cols[k] * steps[k] for k in stream.reductions)
            for stream in planned)),
        ("filtered rows", sum(16 * stream.chunks.rows * spectrum.active.size
                              for stream in planned)),
        ("pair weights", sum(8 * n_cols * pairs for n_cols in gram_cols)),
        ("pair weights' build", max((8 * n_cols * (2 * pairs + n_r)
                                     + 24 * pairs for n_cols in gram_cols),
                                    default=0)))
    return _Plan("streamed", terms, norms, chunk, spans, tuple(planned))


def _chunk_plan(spectrum: HalfSpectrum, rows: int, chunk: int,
                piece: int) -> _ChunkPlan:
    """How _class_chunks streams rows rows at chunk and piece.

    Heads are kept for as many axis-0 indices as keep one group's heads of
    every row and class within a piece plus a chunk of float64 samples per
    row and class, and at least one: sized by the chunk and piece alone,
    the heads hold as much, and the axis-0 pass reruns as often, whatever
    the tails take per call.  Where pieces are whole axis-0 slabs, a tail
    takes as many as keep every row and class within _TAIL_VALUES, and at
    least one; where they are axis-1 sub-slabs, one.  The buffer holds that
    many pieces plus a chunk, or the lattice.  Its bytes are one group's
    heads of every class and row, with one row's full head in flight while
    they are built, the axis-1 passes of one axis-0 index when pieces are
    sub-slabs, the buffer, and one stacked tail in flight (a pass's input
    and output), of a piece, or of whole slabs as long as the buffer."""
    n, n_samples = spectrum.spec.points_per_axis, spectrum.spec.n_samples
    transforms = [t for _, t in spectrum.class_transforms]
    budget = 8 * rows * len(transforms) * min(piece + chunk, n_samples)
    per_index = rows * sum(t.head_bytes for t in transforms) // n
    group = max(1, min(n, budget // max(per_index, 1)))
    split = piece < n_samples // n
    slabs = 1 if split else max(
        1, _TAIL_VALUES // max(rows * len(transforms) * piece, 1))
    width = min(slabs * piece + chunk, n_samples)
    held = (rows * sum(t.head_bytes // n * group + split * t.pass_bytes
                       for t in transforms)
            + max((t.head_bytes for t in transforms), default=0)
            + 8 * rows * len(transforms) * width
            + 2 * rows * _class_buffer_bytes(spectrum.spec)
            * (piece if split else width) // n_samples)
    return _ChunkPlan(rows, chunk, piece, group, slabs, width, held)


def _cores() -> int:
    """The cores this process may run on."""
    return len(os.sched_getaffinity(0))


@cache
def _blas_threads():
    """numpy's OpenBLAS openblas_set_num_threads_local(n), which sets the
    BLAS thread count and returns the count it replaces, or None when
    numpy's BLAS has no such function.  In the pthreads build that numpy's
    wheels bundle the count is the process's, not the calling thread's."""
    try:
        from numpy._core import _multiarray_umath
        function = ctypes.CDLL(
            _multiarray_umath.__file__).openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
        return None
    function.argtypes, function.restype = [ctypes.c_int], ctypes.c_int
    return function


# whether the thread runs one of two streams (_stream_thread)
_STREAM = threading.local()


def _in_stream() -> bool:
    """Whether the calling thread runs one of two streams (_run_streams)."""
    return getattr(_STREAM, "active", False)


def _two_streams() -> bool:
    """Whether work may run as two streams at once (_run_streams): the
    process may run on two cores, numpy's BLAS can be held at one thread
    (_blas_threads), and the calling thread is not one of two streams
    already, so that threads never nest."""
    return _cores() >= 2 and _blas_threads() is not None and not _in_stream()


@contextmanager
def _stream_thread():
    """Within the block, numpy's BLAS at one thread (_blas_threads) and the
    calling thread marked as one of two streams (_in_stream)."""
    cap = _blas_threads()
    old = cap(1)
    _STREAM.active = True
    try:
        yield
    finally:
        _STREAM.active = False
        cap(old)


def _pairs(n: int, need) -> list:
    """Jobs 0..n-1 of a driver, as the lists of _run_streams: the odd ones
    and the even ones, two at once, where there are at least two,
    _two_streams allows it and twice need(), one job's largest memory
    estimate in bytes, fits in physical memory; else all in one list.
    need is called only then, and is None for jobs that run one at a time.
    Decided once, before any job runs, so each job's own estimates and
    routes are those it takes alone."""
    jobs = list(range(n))
    if (n < 2 or need is None or not _two_streams()
            or 2 * need() > _physical_memory()):
        return [jobs]
    return [jobs[1::2], jobs[::2]]


def _run_streams(stream, streams: list) -> None:
    """stream(item) for each item of streams (a plan's _Stream, or a list
    of a driver's trials): one on the caller's thread, or two at once, the
    first on a single-thread executor and the second on the caller's
    thread, each a stream (_stream_thread), with numpy's BLAS
    at one thread from before the worker starts until it has ended.  It
    runs a plan's two streams (_Plan.streams) and a driver's paired trials
    (_pairs).  The executor waits for the worker whether or not the
    caller's stream raises; the caller's error is raised, else the
    worker's, so no thread is left and the BLAS count is restored."""
    if len(streams) == 1:
        stream(streams[0])
        return

    def capped(item) -> None:
        with _stream_thread():
            stream(item)

    with _stream_thread(), ThreadPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(capped, streams[0])
        stream(streams[1])
        worker.result()


def _column_sums(by_t: np.ndarray, groups) -> np.ndarray:
    """s = sum over groups of sum over its parts u of (by_t @ u)^2, the
    squares taken in place and added in order."""
    total = None
    for parts in groups:
        s = by_t @ parts[0]
        np.square(s, out=s)
        for u in parts[1:]:
            s += np.square(by_t @ u)
        total = s if total is None else np.add(total, s, out=total)
    return total


def _group_heads(transform, rows: list, chosen: np.ndarray, first: int,
                 group: int, heads: np.ndarray | None) -> np.ndarray:
    """The heads of one class at axis-0 indices first:first + group, stacked
    over rows, built one row at a time: one row's full head is in flight.
    They are written into heads, the previous group's, when it is given."""
    for q, row in enumerate(rows):
        head = transform.head(row[chosen])[first:first + group]
        if heads is None:
            heads = np.empty((len(rows),) + head.shape, dtype=complex)
        heads = heads[:, :len(head)]
        heads[q] = head
        del head                        # before the next row's full head
    return heads


def _class_chunks(spectrum: HalfSpectrum, rows: list, plan: _ChunkPlan):
    """Yield (lo, u) over consecutive chunks of the samples, u[q, i] the
    samples lo:lo + plan.chunk of class i of the inverse transform of
    rows[q] (values at the active bins, see HalfSpectrum.filtered), sized
    by plan (_chunk_plan).

    Heads are kept for one group of axis-0 indices at a time: when the
    stream reaches a group, each class's heads of all rows are rebuilt, one
    row at a time, and only the group's indices kept, so the axis-0 pass
    runs once per row and group.  A group's heads overwrite the arrays of
    the group before: freed arrays of their size go back to the system, and
    the next group would fault their pages in again.  Their tails then
    finish every row of a class in one call, into a buffer of the tail
    budget plus a chunk per row and class: where pieces are axis-0 slabs,
    all the slabs a chunk needs of the group, and more of the group up to
    the budget, in one call, which later chunks read until it is used up;
    and where they are axis-1 sub-slabs, one piece per call after the
    axis-0 index's shared axis-1 pass.  The tail budget is there for two
    streams at once (_run_streams): a tail call is about ten small NumPy
    and FFT calls, each of which lets the GIL go, and streams that tailed
    one slab per chunk spent their time handing it over.  Each line is
    transformed as it would be alone, so the samples do not depend on how
    many slabs a call takes.  And whatever of the last piece a chunk leaves
    over is carried to the buffer's front one line at a time: numpy moves a
    line forward within itself in place, where it would copy a strided
    block through a temporary it cannot prove disjoint."""
    spec, transforms = spectrum.spec, spectrum.class_transforms
    n, n_samples = spec.points_per_axis, spec.n_samples
    chunk, piece, group = plan.chunk, plan.piece, plan.group
    per_slab = n_samples // n // piece
    buf = np.empty((len(rows), len(transforms), plan.width))
    heads = passed = None
    first = 0                           # heads hold first:first + group
    start = end = 0                     # buf[..., :end - start] is start:end
    for lo in range(0, n_samples, chunk):
        hi = min(lo + chunk, n_samples)
        if end < hi and lo > start:     # carry lo:end to the front
            for line in buf.reshape(-1, buf.shape[-1]):
                line[:end - lo] = line[lo - start:end - start]
            start = lo
        p, last = end // piece, -(-hi // piece)
        while p < last:
            index, m = divmod(p, per_slab)
            if heads is None or index >= first + group:
                passed = None
                first = index
                kept = heads or [None] * len(transforms)
                heads = [_group_heads(t, rows, c, first, group, h)
                         for (c, t), h in zip(transforms, kept)]
            # whole slabs: every one the chunk needs of the heads' group,
            # and as many more of the group as the tail budget takes
            count = (1 if per_slab > 1 else min(max(last, p + plan.slabs),
                                                first + group, n) - p)
            at, width = p * piece - start, count * piece
            if per_slab > 1 and m == 0:
                passed = None
                passed = [t.widened(head[:, index - first], 1)
                          for head, (_, t) in zip(heads, transforms)]
            for i, (_, t) in enumerate(transforms):
                if per_slab == 1:
                    t.tail(heads[i][:, index - first:index - first + count],
                           out=buf[:, i, at:at + width])
                else:
                    t.tail(passed[i][:, m], out=buf[:, i, at:at + width],
                           start=2)
            p += count
            end = p * piece
        yield lo, buf[:, :, lo - start:hi - start]


def _stream_route(spectrum: HalfSpectrum, reductions: list,
                  plan: _Plan, parts: dict) -> list:
    """The sums of _route for each reduction (axes, profiles, weights),
    from one streamed pass as plan has it, over parts, the filtered parts
    of each of its axes (_stream_plan): the classes of each stream's rows
    come in chunks (_class_chunks), and each reduction reduces each chunk
    as it is done (_chunk_reducer).  The pass runs as one stream, or as two
    at once (_run_streams), each over its own reductions' rows only, at the
    whole pass's chunk and piece, so every chunk's sums are those of the
    one stream, bit for bit.  With plan.norms, a reduction gives the total
    of its sums clipped at 0 in place of the sums, the square of its root's
    L2 norm over the cell volume: each chunk's sums are totalled, and the
    chunks' totals are added once, at the end."""
    n_samples, chunk, norms = spectrum.spec.n_samples, plan.chunk, plan.norms
    outs = [np.empty(chunk if norms else n_samples) for _ in reductions]
    totals = np.zeros((len(reductions), -(-n_samples // chunk)))

    def stream(planned: _Stream) -> None:
        rows = [part for axis, _ in planned.rows for part in parts[axis]]
        at = dict(planned.rows)
        reducers = [_chunk_reducer([at[axis] for axis in reductions[k][0]],
                                   *reductions[k][1:], plan.spans[k])
                    for k in planned.reductions]
        for lo, u in _class_chunks(spectrum, rows, planned.chunks):
            hi = lo + u.shape[-1]
            for k, reduce in zip(planned.reductions, reducers):
                sums = outs[k][:hi - lo] if norms else outs[k][lo:hi]
                reduce(u, sums)
                if norms:
                    totals[k, lo // chunk] = np.sum(
                        np.maximum(sums, 0.0, out=sums))

    _run_streams(stream, plan.streams)
    return [float(t) for t in totals.sum(axis=1)] if norms else outs


def _chunk_reducer(groups: list, profiles: np.ndarray,
                   weights: np.ndarray | None, span: int | None):
    """A function (u, sums) that writes into sums the reduction of one
    chunk u of _class_chunks (rows, classes, samples) whose axes have the
    rows of groups, a slice per axis: max_c s_c, or sum_c weights[c] s_c.
    Where span is None it takes RadialBundle.sums's block sums over every
    axis, bit for bit for one axis; else (several axes with few classes,
    _stream_plan) s_c = P_c^T G P_c, with G the per-point Gram matrix of
    the classes (_gram_sums) over the chunk, taken through the pair
    weights in one product per span of samples, over the rows of its axes,
    which must be consecutive in the pass (vector_maximal's and the
    sweep's axes 1..d are).  Its temporaries are gone when it returns,
    before the next carry or accumulator."""
    n_r, n_cols = profiles.shape
    by_t = np.ascontiguousarray(profiles.T)
    if span is None:
        def reduce(u, sums):
            for cols in _sample_blocks(sums.size, n_cols):
                s = _column_sums(by_t, [u[g, :, cols] for g in groups])
                sums[cols] = s.max(axis=0) if weights is None else weights @ s
        return reduce
    rows = slice(groups[0].start, groups[-1].stop)
    rows_i, cols_i = np.triu_indices(n_r)
    # pairs a <= b in _gram_sums's order; off-diagonal pairs stand for both
    # (a, b) and (b, a): weight 2
    pair_weights = by_t[:, rows_i] * by_t[:, cols_i]
    pair_weights[:, rows_i != cols_i] *= 2.0

    def reduce(u, sums):
        acc = _gram_sums(u[rows])
        for at in range(0, sums.size, span):
            _pair_sums(pair_weights, acc[:, at:at + span], weights,
                       sums[at:at + span])
    return reduce


def _pair_sums(pair_weights: np.ndarray, acc: np.ndarray,
               weights: np.ndarray | None, out: np.ndarray) -> None:
    """out = max_c s_c, or sum_c weights[c] s_c when weights are given, of
    the Gram form's column sums s = pair_weights @ acc, one product."""
    s = pair_weights @ acc
    if weights is None:
        np.max(s, axis=0, out=out)
    else:
        np.matmul(weights, s, out=out)


def _gram_sums(u: np.ndarray) -> np.ndarray:
    """The per-point Gram matrix of u's classes summed over its rows:
    u[q, a] u[q, b] for pairs a <= b, class a's pairs in one einsum, which
    adds the rows in their order, bit for bit as one product per row and
    class added in place would."""
    n_r = u.shape[1]
    acc = np.empty((n_r * (n_r + 1) // 2, u.shape[-1]))
    at = 0
    for a in range(n_r):
        np.einsum("qs,qks->ks", u[:, a], u[:, a:], out=acc[at:at + n_r - a])
        at += n_r - a
    return acc


def _column_route(spectrum: HalfSpectrum, axes: list, profiles: np.ndarray,
                  weights: np.ndarray | None) -> np.ndarray:
    """The sums of _route one column at a time: each column and part of an
    axis takes one inverse transform of its coefficients scaled by the
    column's profile at the active bins."""
    transform = _inverse_transformer(spectrum.spec, spectrum.active)
    parts = [part for axis in axes for part in spectrum.filtered(axis)]
    sums = np.zeros(spectrum.spec.n_samples)
    for c in range(profiles.shape[1]):
        at_bins = profiles[spectrum.class_of_bin, c]
        s = np.zeros_like(sums)
        for part in parts:
            u = transform(at_bins * part)
            s += np.square(u, out=u)
        if weights is None:
            np.maximum(sums, s, out=sums)
        else:
            sums += np.multiply(s, weights[c], out=s)
    return sums


def maximal_over(f: SpatialField | HalfSpectrum, family: str,
                 grid: TruncationGrid, j: int = 1) -> SpatialField:
    """Pointwise sup over the grid's truncation values of |op_t f|.

    f is a field or its half_spectrum; the reduction, under the axis-j
    Riesz symbol for truncated_riesz and conjugate_poisson and the identity
    otherwise, streams or takes one transform per truncation value (_route).
    """
    ts = grid.values()
    spectrum = _as_spectrum(f)
    profiles = profile_matrix(spectrum.spec.dimension, spectrum.radii, ts,
                              family)
    axis = j if family in ("truncated_riesz", "conjugate_poisson") else None
    return _reduce(spectrum, [axis], profiles)


def vector_maximal(f: SpatialField | HalfSpectrum,
                   grid: TruncationGrid) -> SpatialField:
    """sup_t (sum_j |R_j^t f|^2)^(1/2) over the grid.

    f is a field or its half_spectrum; the reduction streams over every
    axis's classes, or takes one transform per truncation value and axis
    (_route).
    """
    ts = grid.values()
    spectrum = _as_spectrum(f)
    d = spectrum.spec.dimension
    profiles = profile_matrix(d, spectrum.radii, ts, "truncated_riesz")
    return _reduce(spectrum, list(range(1, d + 1)), profiles)


def _square_profiles(spectrum: HalfSpectrum,
                    t_nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The profiles at the class radii and the weights of square_function's
    reduction: d/dt P_t at each node, and the trapezoid weights of
    int t ... dt over at least two increasing positive nodes."""
    t_nodes = np.asarray(t_nodes, dtype=float)
    if t_nodes.size < 2:
        raise DomainError("square_function requires at least two t nodes")
    if np.any(t_nodes <= 0) or np.any(np.diff(t_nodes) <= 0):
        raise DomainError("t_nodes must be positive and strictly increasing")
    w = np.zeros_like(t_nodes)
    w[:-1] += 0.5 * np.diff(t_nodes)
    w[1:] += 0.5 * np.diff(t_nodes)
    # d/dt P_t has radial profile -(r/sqrt(d)) exp(-t r / sqrt(d))
    rate = spectrum.radii / math.sqrt(spectrum.spec.dimension)
    return -rate[:, None] * np.exp(-np.outer(rate, t_nodes)), w * t_nodes


def square_function(f: SpatialField | HalfSpectrum,
                    t_nodes: np.ndarray) -> SpatialField:
    """Vertical square function of the Poisson semigroup, discretized on
    increasing positive nodes by the trapezoid rule:

        g(f)(x)^2 ~ int t |d/dt P_t f(x)|^2 dt.

    f is a field or its half_spectrum; the weighted reduction streams, or
    takes one transform per column (_route).  Its L2 norm needs no
    reduction: the classes have disjoint supports, so ||g||^2 is
    sum_i (sum_c w_c P_ic^2) ||u_i||^2 over _square_profiles's P and w.
    """
    spectrum = _as_spectrum(f)
    return _reduce(spectrum, [None], *_square_profiles(spectrum, t_nodes))


def _projection_sum_bytes(spec: GridSpec) -> int:
    """poisson_projection_sum's two complex lattice arrays."""
    return 16 * 2 * spec.n_samples


def poisson_projection_sum(f: SpatialField, n_min: int, n_max: int) -> SpatialField:
    """sum_{n=n_min}^{n_max} S_n f = (P_{2^(n_min-1)} - P_{2^n_max}) f,
    evaluated in its telescoped form (exact spectrally), in place, so at
    most two complex lattice arrays are live at once."""
    if n_min > n_max:
        raise DomainError(f"n_min {n_min} > n_max {n_max}")
    spec = f.spec
    _require_memory(_projection_sum_bytes(spec), "the projection sum")
    coeff = forward_transform(f).coefficients
    radius = spec.freq_radius()
    radius /= math.sqrt(spec.dimension)
    for i, r in enumerate(radius):
        coeff[i] *= np.exp(-2.0 ** (n_min - 1) * r) - np.exp(-2.0 ** n_max * r)
    del radius, r
    return SpatialField(spec, _inverse_in_place(coeff, spec))


# ---------------------------------------------------------------------------
# method of rotations


def rotation_reconstruct(f: SpatialField, j: int, t: float,
                         n_angles: int) -> SpatialField:
    """Truncated Riesz transform as a sphere average of directional
    truncated Hilbert transforms:

        R_j^t f = (c_d pi / 2) int_{S^(d-1)} theta_j H_theta^t f dtheta.

    Composite midpoint rule on the circle for d = 2, with the two panels
    containing the integrand's sign jumps (the angles where theta is
    orthogonal to xi, known exactly per frequency) split at the jump, which
    restores second-order convergence; Gauss-Legendre in the polar cosine
    times midpoint azimuths for d = 3.  Accumulated in the spectral domain,
    so the cost is one inverse transform total.
    """
    spec = f.spec
    d = spec.dimension
    if d not in (2, 3):
        raise UnsupportedDimensionError(
            f"rotation_reconstruct supports d in {{2, 3}}, got d={d}")
    if n_angles < 16:
        raise DomainError(f"n_angles must be >= 16, got {n_angles}")
    # complex lattice arrays at the traced peak; the 2-d symbol's work is
    # a quarter of the lattice, and at most 64 bytes per value of a block
    # of angles (_rotation_symbol_2d)
    _require_memory(16 * 5 * spec.n_samples + 64 * _BLOCK_VALUES if d == 2
                    else 16 * 6 * spec.n_samples,
                    "the rotation reconstruction")
    if d == 2:
        sym_total = _rotation_symbol_2d(spec, j, t, n_angles)
    else:
        sym_total = _rotation_symbol_3d(spec, j, t, n_angles)
    coeff = forward_transform(f).coefficients * sym_total
    return inverse_transform(SpectralField(spec, coeff))


def _rotation_symbol_3d(spec: GridSpec, j: int, t: float,
                        n_angles: int) -> np.ndarray:
    """Product quadrature of the sphere integral in a frame adapted to each
    frequency: polar axis along xi.

    In that frame the directional symbol depends only on the polar cosine u
    (sigma jumps in sign at the equator u = 0), and the azimuthal average of
    theta_j is the exact degree-1 trigonometric value 2 pi u xi_j / |xi| (any
    midpoint rule with >= 2 azimuths reproduces it).  What remains is the
    even polar integral 2 int_0^1 u (pi/2 - Si(2 pi t |xi| u)) du, done by
    Gauss-Legendre clear of the u = 0 kink.
    """
    n_polar = max(4, int(round(math.sqrt(n_angles / 2.0))))
    nodes, wts = np.polynomial.legendre.leggauss(n_polar)
    u = 0.5 * (nodes + 1.0)          # Gauss nodes mapped to (0, 1)
    w = 0.5 * wts

    radius = spec.freq_radius()
    uniq, inv = np.unique(radius, return_inverse=True)
    si, _ = sici(2.0 * math.pi * t * np.outer(uniq, u))
    polar = 2.0 * ((math.pi / 2.0 - si) * u) @ w
    polar_full = polar[inv].reshape(radius.shape)
    return 2.0 * math.pi * _riesz_constant(3) * _riesz_angular(spec, j) \
        * polar_full


def _rotation_symbol_2d(spec: GridSpec, j: int, t: float,
                        n_angles: int) -> np.ndarray:
    """Quadrature of (pi/2) c_2 int_0^{2pi} theta_j(alpha) sigma_theta(xi)
    dalpha, vectorized over lattice frequencies.

    The integrand jumps in sign at alpha = beta +- pi/2 where beta is the
    angle of xi; the two panels containing a jump are split there and each
    half handled by its own midpoint, so the composite rule keeps its
    second-order accuracy despite the discontinuity.

    Both factors of the integrand change sign under alpha -> alpha + pi, so
    it is pi-periodic, and the rule folded modulo pi is symmetric under
    alpha -> -alpha and alpha -> pi - alpha for any n_angles.  The
    quadrature is therefore odd in xi_j and even in the other component,
    like -i xi_j / |xi|.  It is evaluated at the axis indices 0..N/2 only
    (N/2 is the Nyquist index, -N/2, which has no mirror on the lattice),
    and each index -m, 0 < m < N/2, is filled from index m: negated along
    axis j, copied along the other axis.
    """
    n = spec.points_per_axis
    half = n // 2 + 1
    xi = spec.freq_axis()[:half]
    xi1, xi2 = [c.ravel() for c in np.meshgrid(xi, xi, indexing="ij")]
    radius = np.hypot(xi1, xi2)
    active = radius > 0
    r = radius[active]
    beta = np.arctan2(xi2[active], xi1[active])

    def integrand(alpha):
        """theta_j(alpha) sigma_theta(xi) at per-mode angles alpha, or at a
        column of angles, a row of modes each."""
        comp = np.cos(alpha) if j == 1 else np.sin(alpha)
        dot = r * np.cos(alpha - beta)
        sign = np.sign(dot)
        si = sici(2.0 * math.pi * t * np.abs(dot))[0]
        del dot
        np.subtract(math.pi / 2.0, si, out=si)
        return comp * (-1j) * sign * (2.0 / math.pi) * si

    h = 2.0 * math.pi / n_angles
    mids = h * (np.arange(n_angles) + 0.5)
    acc = np.zeros(r.shape, dtype=complex)
    # the midpoints, a block of about _BLOCK_VALUES values per call, each
    # angle's row added in angle order
    per_block = max(1, _BLOCK_VALUES // r.size)
    for lo in range(0, n_angles, per_block):
        for row in integrand(mids[lo:lo + per_block, None]):
            acc += row
    acc *= h

    for shift in (0.5 * math.pi, 1.5 * math.pi):
        s = np.mod(beta + shift, 2.0 * math.pi)
        panel = np.minimum((s / h).astype(int), n_angles - 1)
        lo, hi = panel * h, (panel + 1) * h
        acc -= h * integrand(mids[panel])
        left, right = s - lo, hi - s
        acc += left * integrand(lo + 0.5 * left)
        acc += right * integrand(s + 0.5 * right)

    quarter = np.zeros(radius.shape, dtype=complex)
    quarter[active] = acc * _riesz_constant(2) * math.pi / 2.0
    # an index i > N/2 is the frequency i - N, read from index N - i
    source = np.concatenate([np.arange(half), n - np.arange(half, n)])
    sym = quarter.reshape(half, half)[np.ix_(source, source)]
    mirrored = sym[half:] if j == 1 else sym[:, half:]
    np.negative(mirrored, out=mirrored)
    return sym


def sphere_moment(q_exp: float, d: int) -> float:
    """int_{S^(d-1)} |theta_1|^q dtheta by the closed gamma-ratio form."""
    if q_exp <= 0:
        raise DomainError(f"sphere_moment requires q > 0, got {q_exp}")
    if d < 1:
        raise DomainError(f"sphere_moment requires d >= 1, got {d}")
    log_area = math.log(2.0) + 0.5 * d * math.log(math.pi) - float(gammaln(d / 2.0))
    log_ratio = float(gammaln(d / 2.0)) + float(gammaln((q_exp + 1) / 2.0)) \
        - 0.5 * math.log(math.pi) - float(gammaln((d + q_exp) / 2.0))
    return math.exp(log_area + log_ratio)
