"""Special functions and explicit analytic bounds on them.

Bessel functions of the first kind are evaluated by adaptive Gauss panels
applied to the classical integral representation

    J_nu(t) = t^nu / (2^nu Gamma(nu + 1/2) sqrt(pi))
              * int_{-1}^{1} e^{its} (1 - s^2)^(nu - 1/2) ds,

with the substitution s = sin(phi) so the integrand is smooth for every
nu >= 0.  It also gives the exponential envelope that dominates |J_nu|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import AccuracyError, DomainError

__all__ = [
    "BoundCheck",
    "bessel_j",
    "bessel_envelope",
]


@dataclass(frozen=True)
class BoundCheck:
    """Result of testing |value| <= bound at one argument."""

    argument: float
    value: float
    bound: float
    holds: bool
    margin: float

    @classmethod
    def compare(cls, argument: float, value: float, bound: float) -> "BoundCheck":
        margin = bound - abs(value)
        return cls(argument=argument, value=value, bound=bound,
                   holds=margin >= 0.0, margin=margin)


# Gauss-Legendre nodes/weights reused by every panel quadrature.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)

_ABS_TOL = 1e-8              # stopping test on bessel_j's integral, not on J
_MAX_PANELS = 2_097_152      # bessel_j gives up beyond this many panels


def _panel_quad(func, a: float, b: float, n_panels: int) -> float:
    """Composite 10-point Gauss-Legendre over n_panels equal panels of [a, b]."""
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1] - edges[0])
    pts = mid + half * _GL_NODES[None, :]
    return half * float(np.sum(func(pts) @ _GL_WEIGHTS))


def bessel_j(nu: float, t: float) -> float:
    """J_nu(t) for nu >= 0, t >= 0, from the integral definition.

    Panel width tracks the oscillation scale: the initial panel count is
    max(8, ceil(t)) and doubles until two refinements of the integral agree
    to _ABS_TOL.  The prefactor t^nu / (2^nu Gamma(nu + 1/2) sqrt(pi)) then
    multiplies the integral's error, cancellation rounding included: at
    nu = 10 it is about 4e10 near t = 99, where J's error reaches 1.1e-5.
    """
    if nu < 0:
        raise DomainError(f"bessel_j requires nu >= 0, got {nu}")
    if t < 0:
        raise DomainError(f"bessel_j requires t >= 0, got {t}")
    if t == 0.0:
        return 1.0 if nu == 0.0 else 0.0

    # s = sin(phi) turns (1 - s^2)^(nu - 1/2) ds into cos(phi)^(2 nu) d(phi),
    # smooth at the endpoints for every nu >= 0.
    def integrand(phi):
        return np.cos(t * np.sin(phi)) * np.cos(phi) ** (2.0 * nu)

    log_pref = nu * math.log(t) - nu * math.log(2.0) \
        - float(gammaln(nu + 0.5)) - 0.5 * math.log(math.pi)

    n = max(8, math.ceil(t))
    est = _panel_quad(integrand, -math.pi / 2, math.pi / 2, n)
    while True:
        n *= 2
        if n > _MAX_PANELS:
            raise AccuracyError(
                f"bessel_j({nu}, {t}) did not converge within {_MAX_PANELS} panels",
                best_estimate=_from_log(log_pref, est),
            )
        refined = _panel_quad(integrand, -math.pi / 2, math.pi / 2, n)
        if abs(refined - est) <= 0.5 * _ABS_TOL:
            return _from_log(log_pref, refined)
        est = refined


def _from_log(log_pref: float, integral: float) -> float:
    if integral == 0.0:
        return 0.0
    return math.copysign(math.exp(log_pref + math.log(abs(integral))), integral)


def bessel_envelope(nu: float, t: float) -> float:
    """Explicit envelope dominating |J_nu(t)|:

        2100 * t^nu / (2^nu Gamma(nu + 1/2) sqrt(nu pi))
             * (exp(-t / sqrt(nu)) + exp(-nu / 5)).

    Evaluated in log space so large nu and t cannot overflow.
    """
    if nu <= 0:
        raise DomainError(f"bessel_envelope requires nu > 0, got {nu}")
    if t < 0:
        raise DomainError(f"bessel_envelope requires t >= 0, got {t}")
    if t == 0.0:
        return 0.0
    log_pref = math.log(2100.0) + nu * math.log(t) - nu * math.log(2.0) \
        - float(gammaln(nu + 0.5)) - 0.5 * math.log(nu * math.pi)
    decay = np.logaddexp(-t / math.sqrt(nu), -nu / 5.0)
    return float(np.exp(log_pref + decay))

