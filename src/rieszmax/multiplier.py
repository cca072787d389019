"""The radial factorization multiplier m and its quantitative bound checks.

For dimension d >= 4, with nu = d/2,

    m(x) = pref * int_{2 pi x}^infinity r^(-nu) J_nu(r) dr,
    pref = 2^nu Gamma((d+1)/2) / sqrt(pi).

The whole integral is known in closed form (DLMF 10.22.43):
int_0^infinity r^(-nu) J_nu(r) dr = 2^(-nu) sqrt(pi) / Gamma(nu + 1/2) =
1 / pref.  Hence, exactly,

    m(x) = 1 - pref * int_0^{2 pi x} r^(-nu) J_nu(r) dr,

and m(0) = 1 by construction.  The finite head integral is taken by
10-point Gauss panels of width pi (one panel per Bessel half-oscillation)
plus one partial panel; per dimension the panel integrals are summed once
into a cumulative table that grows lazily to the largest argument asked
for, and is shared by every later evaluation.  Each panel sums its 10
Gauss terms in a fixed elementwise order, and the table is summed in
blocks of _CHUNK panels aligned at 0, each an offset plus the block's own
running sum, so a value of m depends on its argument only: not on the
other arguments of the call, nor on how far earlier calls grew the table.
The table grows under a lock, so m may be evaluated from several threads.

Three closed analytic bounds on m are exposed as checkers:
|m(x) - 1| <= 20 x / sqrt(d) for x <= sqrt(d), |m(x)| <= 6e4 sqrt(d)/x for
x >= sqrt(d), and |x m'(x)| <= 1e4 everywhere.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, jv

from .errors import DomainError, ResourceError
from .specfun import BoundCheck

__all__ = [
    "MultiplierEval",
    "m_eval",
    "m_values",
    "m_prime",
    "check_small_arg",
    "check_large_arg",
    "check_derivative",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)

_PANEL = math.pi  # panel width: one half-period of the Bessel oscillation
_CHUNK = 65_536   # panels integrated per vectorized block
# Longest head integral, in panels: x up to about 1.7e5, an 8 MB table.
_MAX_PANELS = 1 << 20


def _log_prefactor(d: int) -> float:
    return 0.5 * d * math.log(2.0) + float(gammaln((d + 1) / 2)) \
        - 0.5 * math.log(math.pi)


def _require_dimension(d: int) -> None:
    if d < 4:
        raise DomainError(f"the multiplier m is only defined for d >= 4, got d={d}")


def _integrand(d: int, r):
    return r ** (-d / 2.0) * jv(d / 2.0, r)


def _gauss(d: int, mid: np.ndarray, half: np.ndarray) -> np.ndarray:
    """The 10-point Gauss rule over [mid - half, mid + half] elementwise,
    its terms added in node order; node radii clamped away from 0, where
    the integrand has a finite limit but r**(-nu) alone overflows."""
    total = np.zeros(np.broadcast(mid, half).shape)
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        total += weight * _integrand(d, np.maximum(mid + half * node, 1e-8))
    return half * total


# per dimension, int_0^{k pi} of the integrand for k = 0, 1, ..., and the
# running sum of the panels of its last block of _CHUNK panels
_CUMULATIVE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_GROWTH = threading.Lock()


def _cumulative(d: int, panels: int) -> np.ndarray:
    """The dimension's cumulative panel table, grown to >= panels + 1 entries.

    Entry k of block b (panels b _CHUNK .. (b + 1) _CHUNK - 1) is the
    table's entry at the block's start plus the block's running sum, which
    a later growth continues term by term, so each entry is the same
    however the table was grown."""
    table = _CUMULATIVE.get(d, (np.zeros(1),))[0]
    if len(table) > panels:
        return table
    with _GROWTH:
        table, local = _CUMULATIVE.get(d, (np.zeros(1), np.zeros(0)))
        while len(table) <= panels:
            done = len(table) - 1
            if local.size == _CHUNK:
                local = local[:0]
            count = min(_CHUNK - local.size, panels - done)
            mid = (done + 0.5 + np.arange(count)) * _PANEL
            new = np.cumsum(np.concatenate(
                [local[-1:], _gauss(d, mid, 0.5 * _PANEL)]))[local[-1:].size:]
            table = np.concatenate([table, table[done - local.size] + new])
            local = np.concatenate([local, new])
        _CUMULATIVE[d] = table, local
    return table


@dataclass(frozen=True)
class MultiplierEval:
    """One evaluation of m, with its dimension and argument attached."""

    dimension: int
    argument: float
    value: float


def m_values(d: int, xs) -> np.ndarray:
    """Vectorized m(x) over an array of nonnegative arguments."""
    _require_dimension(d)
    xs = np.asarray(xs, dtype=float)
    if not np.all(xs >= 0):
        raise DomainError("m is defined on x >= 0")
    a = 2.0 * math.pi * xs
    if float(np.max(a, initial=0.0)) / _PANEL > _MAX_PANELS:
        raise ResourceError(
            f"m at x = {float(np.max(xs)):g} needs more than {_MAX_PANELS} "
            f"quadrature panels")
    idx = (a / _PANEL).astype(np.int64)
    table = _cumulative(d, int(np.max(idx, initial=0)))
    # partial panel [idx pi, a]
    lo = idx * _PANEL
    partial = _gauss(d, 0.5 * (lo + a), 0.5 * (a - lo))
    return 1.0 - math.exp(_log_prefactor(d)) * (table[idx] + partial)


def m_eval(d: int, x: float) -> MultiplierEval:
    """m(x) for a single argument."""
    value = float(m_values(d, np.array([x]))[0])
    return MultiplierEval(dimension=d, argument=float(x), value=value)


def m_prime(d: int, x: float) -> float:
    """Closed-form derivative

        m'(x) = -(2 sqrt(pi) Gamma((d+1)/2) / (pi x)^(d/2)) J_{d/2}(2 pi x).
    """
    _require_dimension(d)
    if x <= 0:
        raise DomainError("m_prime requires x > 0 (the closed form is singular at 0)")
    log_pref = math.log(2.0) + 0.5 * math.log(math.pi) \
        + float(gammaln((d + 1) / 2)) - 0.5 * d * math.log(math.pi * x)
    bes = float(jv(d / 2.0, 2.0 * math.pi * x))
    if bes == 0.0:
        return 0.0
    return -math.copysign(math.exp(log_pref + math.log(abs(bes))), bes)


def check_small_arg(d: int, x: float) -> BoundCheck:
    """|m(x) - 1| <= 20 x / sqrt(d) on 0 <= x <= sqrt(d)."""
    _require_dimension(d)
    if not 0.0 <= x <= math.sqrt(d):
        raise DomainError(f"check_small_arg requires 0 <= x <= sqrt(d), got {x}")
    return _small_arg(d, x, m_eval(d, x).value)


def _small_arg(d: int, x: float, m: float) -> BoundCheck:
    """check_small_arg's comparison, given m = m(x)."""
    return BoundCheck.compare(x, m - 1.0, 20.0 * x / math.sqrt(d))


def check_large_arg(d: int, x: float) -> BoundCheck:
    """|m(x)| <= 6e4 sqrt(d) / x on x >= sqrt(d)."""
    _require_dimension(d)
    if x < math.sqrt(d):
        raise DomainError(f"check_large_arg requires x >= sqrt(d), got {x}")
    return _large_arg(d, x, m_eval(d, x).value)


def _large_arg(d: int, x: float, m: float) -> BoundCheck:
    """check_large_arg's comparison, given m = m(x)."""
    return BoundCheck.compare(x, m, 6.0e4 * math.sqrt(d) / x)


def check_derivative(d: int, x: float) -> BoundCheck:
    """|x m'(x)| <= 1e4 on x > 0."""
    _require_dimension(d)
    if x <= 0:
        raise DomainError(f"check_derivative requires x > 0, got {x}")
    value = x * m_prime(d, x)
    return BoundCheck.compare(x, value, 1.0e4)
