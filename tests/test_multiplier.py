"""The radial multiplier m, its derivative, and bound checks."""

import math

import mpmath
import numpy as np
import pytest

from rieszmax.errors import DomainError, ResourceError
from rieszmax.multiplier import (check_derivative, check_large_arg,
                                 check_small_arg, m_eval, m_prime, m_values)

# First positive zero of J_2, frozen from an independent root finder.
J2_FIRST_ZERO = 5.135622301840683


def _m_hypergeometric(d: int, x: float) -> float:
    """m(x) = 1 - pref a / (2^nu Gamma(nu + 1)) 1F2(1/2; 3/2, nu + 1; -a^2/4)
    with a = 2 pi x, nu = d/2 and pref = 2^nu Gamma((d+1)/2) / sqrt(pi),
    evaluated by mpmath at 30 digits."""
    with mpmath.workdps(30):
        nu = mpmath.mpf(d) / 2
        a = 2 * mpmath.pi * mpmath.mpf(x)
        pref = 2 ** nu * mpmath.gamma(nu + 0.5) / mpmath.sqrt(mpmath.pi)
        head = a / (2 ** nu * mpmath.gamma(nu + 1)) \
            * mpmath.hyp1f2(0.5, 1.5, nu + 1, -a ** 2 / 4)
        return float(1 - pref * head)


class TestMEval:
    @pytest.mark.parametrize("d", [4, 5, 6, 8, 12, 16])
    def test_value_at_zero_is_one(self, d):
        assert m_eval(d, 0.0).value == 1.0

    def test_dimension_below_four_rejected(self):
        with pytest.raises(DomainError):
            m_eval(3, 0.5)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            m_values(4, [-0.1])

    def test_metadata(self):
        out = m_eval(4, 0.25)
        assert out.dimension == 4 and out.argument == 0.25

    def test_large_argument_decays(self):
        assert abs(m_eval(4, 10.0).value) < 1.0
        assert abs(m_eval(4, 10.0).value) <= 6.0e4 * 2.0 / 10.0

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.0, 0.3, 1.7, 9.0])
        vec = m_values(4, xs)
        for x, v in zip(xs, vec):
            assert m_eval(4, float(x)).value == pytest.approx(float(v),
                                                              abs=1e-12)

    @pytest.mark.parametrize("d", [4, 5, 6, 8, 12, 16])
    def test_hypergeometric_oracle(self, d):
        xs = np.concatenate([np.linspace(0.0, 50.0, 41), [1e-3, 0.37, 2.9]])
        got = m_values(d, xs)
        want = np.array([_m_hypergeometric(d, x) for x in xs])
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_head_length_is_bounded(self):
        with pytest.raises(ResourceError):
            m_values(4, [1e12])

    def test_lipschitz_property(self):
        # |m(x) - m(y)| <= 1e4 |x - y| / min(x, y), integrated derivative bound
        pts = [0.5, 0.7, 1.3, 2.9, 8.0]
        vals = {x: m_eval(4, x).value for x in pts}
        for x in pts:
            for y in pts:
                if x < y:
                    assert abs(vals[x] - vals[y]) <= 1.0e4 * (y - x) / x


class TestMPrime:
    def test_zero_argument_rejected(self):
        with pytest.raises(DomainError):
            m_prime(4, 0.0)

    def test_dimension_rejected(self):
        with pytest.raises(DomainError):
            m_prime(2, 1.0)

    def test_vanishes_at_bessel_zero(self):
        x = J2_FIRST_ZERO / (2.0 * math.pi)
        assert abs(m_prime(4, x)) < 1e-9

    def test_finite_difference_oracle(self):
        d, x, h = 4, 1.0, 1e-4
        fd = (m_eval(d, x + h).value - m_eval(d, x - h).value) / (2.0 * h)
        assert m_prime(d, x) == pytest.approx(fd, abs=1e-4)

    def test_derivative_bound_far_out(self):
        assert abs(100.0 * m_prime(6, 100.0)) <= 1.0e4


class TestBoundChecks:
    def test_small_arg_at_zero(self):
        chk = check_small_arg(4, 0.0)
        assert abs(chk.value) < 1e-8 and abs(chk.margin) < 1e-8

    def test_small_arg_interior(self):
        chk = check_small_arg(4, 1.0)
        assert chk.bound == pytest.approx(10.0) and chk.holds

    def test_small_arg_boundary_d16(self):
        chk = check_small_arg(16, 4.0)
        assert chk.bound == pytest.approx(20.0) and chk.holds

    def test_small_arg_domain(self):
        with pytest.raises(DomainError):
            check_small_arg(4, 2.1)

    def test_large_arg_cases(self):
        assert check_large_arg(4, 2.0).holds
        chk = check_large_arg(4, 1000.0)
        assert chk.bound == pytest.approx(120.0) and chk.holds

    def test_large_arg_boundary_case(self):
        assert check_large_arg(9, 3.0).holds

    def test_large_arg_domain(self):
        with pytest.raises(DomainError):
            check_large_arg(4, 1.0)

    def test_derivative_cases(self):
        assert check_derivative(4, 1.0).holds
        assert check_derivative(12, 144.0).holds

    def test_derivative_margin_at_bessel_zero(self):
        chk = check_derivative(4, J2_FIRST_ZERO / (2.0 * math.pi))
        assert chk.margin == pytest.approx(1.0e4, abs=1e-6)

    def test_derivative_domain(self):
        with pytest.raises(DomainError):
            check_derivative(4, 0.0)

    def test_all_three_on_log_grid(self):
        # compact version of the acceptance lemma suite
        for d in (4, 8):
            sq = math.sqrt(d)
            for x in np.geomspace(1e-3, 1e3, 25):
                x = float(x)
                if x <= sq:
                    assert check_small_arg(d, x).holds
                if x >= sq:
                    assert check_large_arg(d, x).holds
                assert check_derivative(d, x).holds
