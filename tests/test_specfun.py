"""Special functions: values against independent oracles, bound brackets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszmax.errors import DomainError
from rieszmax.specfun import BoundCheck, bessel_envelope, bessel_j

# Oracle values, frozen.  J_{1/2}(1) from the closed form sqrt(2/(pi t)) sin t;
# the others from an independent Bessel implementation.
J_HALF_AT_1 = 0.6713967071418031
J_2_AT_5 = 0.04656511627775229
J_5_AT_10 = -0.2340615281867936
J_3_AT_7_5 = -0.2580609131934603


class TestBoundCheck:
    def test_compare_holds(self):
        chk = BoundCheck.compare(1.0, 0.5, 2.0)
        assert chk.holds and chk.margin == 1.5

    def test_compare_fails(self):
        chk = BoundCheck.compare(1.0, -3.0, 2.0)
        assert not chk.holds and chk.margin == -1.0


class TestBesselJ:
    def test_j0_at_zero_is_one(self):
        assert bessel_j(0.0, 0.0) == 1.0

    def test_positive_order_at_zero_is_zero(self):
        assert bessel_j(2.0, 0.0) == 0.0

    def test_half_order_closed_form(self):
        assert bessel_j(0.5, 1.0) == pytest.approx(J_HALF_AT_1, abs=1e-8)

    @pytest.mark.parametrize("nu, t, expected", [
        (2.0, 5.0, J_2_AT_5),
        (5.0, 10.0, J_5_AT_10),
        (3.0, 7.5, J_3_AT_7_5),
    ])
    def test_oracle_values(self, nu, t, expected):
        assert bessel_j(nu, t) == pytest.approx(expected, abs=1e-8)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            bessel_j(-0.5, 1.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            bessel_j(1.0, -1.0)

    def test_large_argument(self):
        # stays accurate deep into the oscillatory regime
        val = bessel_j(2.0, 200.0)
        assert abs(val) <= 1.0
        assert val == pytest.approx(0.014894394548741308, abs=1e-7)

    def test_recurrence_derivative_identity(self):
        # d/dt (J_nu(t) / t^nu) = -J_{nu+1}(t) / t^nu
        nu, t, h = 2.0, 3.0, 1e-5
        lhs = (bessel_j(nu, t + h) / (t + h) ** nu
               - bessel_j(nu, t - h) / (t - h) ** nu) / (2 * h)
        rhs = -bessel_j(nu + 1.0, t) / t ** nu
        assert lhs == pytest.approx(rhs, abs=1e-5)

    @settings(max_examples=40, deadline=None)
    @given(nu=st.floats(0.0, 20.0), t=st.floats(0.0, 50.0))
    def test_unit_bound(self, nu, t):
        assert abs(bessel_j(nu, t)) <= 1.0 + 1e-10


class TestBesselEnvelope:
    def test_zero_argument(self):
        assert bessel_envelope(2.0, 0.0) == 0.0

    def test_direct_formula_value(self):
        expected = 2100.0 * (4.0 / (4.0 * math.gamma(2.5)
                                    * math.sqrt(2.0 * math.pi))) \
            * (math.exp(-2.0 / math.sqrt(2.0)) + math.exp(-0.4))
        assert bessel_envelope(2.0, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_order_rejected(self):
        with pytest.raises(DomainError):
            bessel_envelope(0.0, 1.0)

    @pytest.mark.parametrize("nu", [2.0, 3.0, 5.0, 10.0])
    def test_dominates_bessel_on_sample(self, nu):
        for t in np.linspace(0.0, 30.0, 16):
            assert abs(bessel_j(nu, float(t))) \
                <= bessel_envelope(nu, float(t)) + 1e-12

    def test_no_overflow_large_parameters(self):
        assert math.isfinite(bessel_envelope(64.0, 1e4))

