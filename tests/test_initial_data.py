"""Initial-data families: closed forms, transforms and the tail inverse."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontlab.errors import DomainError, ParameterError
from frontlab.initial_data import (Family, InitialDataSpec, algebraic,
                                   algebraic_raw, eval_phi0, eval_u0,
                                   logarithmic, phi0_total, position_at_phi,
                                   sub_exponential)

ALL_SPECS = [
    sub_exponential(mu=5.0, beta=0.2),
    sub_exponential(mu=5.0, beta=1.0),
    algebraic(beta=1.0, scale=100.0),
    algebraic(beta=2.0, scale=100.0),
    algebraic_raw(beta=1.0),
    logarithmic(beta=2.0),
]


class TestEvalU0:
    def test_subexponential_clamp(self):
        spec = sub_exponential(mu=5.0, beta=1.0)
        assert eval_u0(spec, 0.0) == 1.0
        assert eval_u0(spec, -3.0) == 1.0
        assert eval_u0(spec, 1.0) == pytest.approx(math.exp(-5.0), rel=1e-15)

    def test_algebraic_value(self):
        spec = algebraic(beta=1.0, scale=100.0)
        assert eval_u0(spec, 1.0) == pytest.approx(0.0099009900990099010, rel=1e-14)

    def test_logarithmic_value(self):
        spec = logarithmic(beta=2.0)
        assert eval_u0(spec, math.e ** 2) == pytest.approx(0.25, rel=1e-14)
        assert eval_u0(spec, 1.0) == 1.0  # left of the clamp at e

    def test_raw_algebraic(self):
        spec = algebraic_raw(beta=2.0)
        assert eval_u0(spec, 0.5) == 1.0
        assert eval_u0(spec, 10.0) == pytest.approx(0.01, rel=1e-15)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_nonincreasing_and_bounded(self, spec):
        # range kept within double precision (exp(-5x) underflows past x~141)
        x = np.linspace(spec.clamp_point - 5.0, spec.clamp_point + 100.0, 2000)
        u = eval_u0(spec, x)
        assert np.all(np.diff(u) <= 0.0)
        assert np.all((u > 0.0) & (u <= 1.0))

    def test_validation(self):
        with pytest.raises(ParameterError):
            sub_exponential(mu=0.0, beta=1.0)
        with pytest.raises(ParameterError):
            sub_exponential(mu=5.0, beta=-1.0)
        with pytest.raises(ParameterError):
            algebraic(beta=1.0, scale=0.0)
        with pytest.raises(ParameterError):
            InitialDataSpec(Family.LOGARITHMIC, beta=0.0)


class TestEvalPhi0:
    def test_subexponential_closed_form(self):
        phi, dphi, ddphi = eval_phi0(sub_exponential(mu=5.0, beta=1.0), 4.0)
        assert (phi, dphi, ddphi) == (20.0, 5.0, 0.0)

    def test_algebraic_closed_form(self):
        phi, dphi, ddphi = eval_phi0(algebraic(beta=1.0, scale=100.0), 1.0)
        assert phi == pytest.approx(4.6151205168412595, rel=1e-14)
        assert dphi == pytest.approx(100.0 / 101.0, rel=1e-14)
        assert ddphi == pytest.approx(-(100.0 / 101.0) ** 2, rel=1e-14)

    def test_logarithmic_closed_form(self):
        x = math.e ** 2
        phi, dphi, ddphi = eval_phi0(logarithmic(beta=2.0), x)
        assert phi == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
        assert dphi == pytest.approx(math.exp(-2.0), rel=1e-14)
        # -beta*(1+ln x)/(x ln x)**2 = -6/(4 e**4)
        assert ddphi == pytest.approx(-1.5 * math.exp(-4.0), rel=1e-14)

    def test_clamped_region_rejected(self):
        with pytest.raises(DomainError):
            eval_phi0(sub_exponential(mu=5.0, beta=1.0), 0.0)
        with pytest.raises(DomainError):
            eval_phi0(logarithmic(beta=2.0), 2.0)
        with pytest.raises(DomainError):
            eval_phi0(algebraic_raw(beta=1.0), np.array([2.0, 0.5]))

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_finite_difference_consistency(self, spec):
        """u0' = -u0*phi' and u0'' = u0*((phi')**2 - phi'') on the tail."""
        x = spec.clamp_point + np.array([0.5, 1.0, 3.0, 10.0, 40.0])
        u = eval_u0(spec, x)
        phi, dphi, ddphi = eval_phi0(spec, x)
        h = 1e-5 * x
        up = eval_u0(spec, x + h)
        um = eval_u0(spec, x - h)
        d1 = (up - um) / (2.0 * h)
        d2 = (up - 2.0 * u + um) / h ** 2
        assert np.allclose(d1, -u * dphi, rtol=1e-5)
        assert np.allclose(d2, u * (dphi ** 2 - ddphi), rtol=1e-4)

    def test_phi0_total_matches_neg_log(self):
        spec = algebraic(beta=2.0, scale=100.0)
        x = np.array([-1.0, 0.0, 0.5, 3.0])
        expected = -np.log(eval_u0(spec, x))
        assert np.allclose(phi0_total(spec, x), expected, rtol=1e-13)


def u0_position(spec, z):
    """Tail position where u0 equals the density z, by the log-space inverse."""
    return position_at_phi(spec, -np.log(z))


class TestU0Inverse:
    """The tail inverse ``position_at_phi``, checked against ``eval_u0``."""

    def test_closed_form_examples(self):
        assert u0_position(sub_exponential(mu=5.0, beta=1.0), math.exp(-5.0)) == \
            pytest.approx(1.0, rel=1e-14)
        assert u0_position(algebraic(beta=1.0, scale=100.0), 1.0 / 101.0) == \
            pytest.approx(1.0, rel=1e-13)
        assert u0_position(logarithmic(beta=2.0), 0.25) == \
            pytest.approx(math.e ** 2, rel=1e-13)
        assert u0_position(algebraic_raw(beta=1.0), math.exp(-2.0)) == \
            pytest.approx(math.e ** 2, rel=1e-14)

    def test_out_of_range_rejected(self):
        # a density above 1 has a negative log transform
        spec = sub_exponential(mu=5.0, beta=1.0)
        for z in (1.0 + 1e-9, 1.5):
            with pytest.raises(DomainError):
                u0_position(spec, z)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    @given(z=st.floats(min_value=1e-5, max_value=0.999))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, spec, z):
        # z floor keeps exp(z**(-1/beta)) representable for the logarithmic tail
        x = u0_position(spec, z)
        assert eval_u0(spec, x) == pytest.approx(z, rel=1e-12)

    def test_round_trip_deep_tail_non_logarithmic(self):
        for spec in ALL_SPECS[:-1]:
            for z in (1e-14, 1e-9, 1e-4):
                assert eval_u0(spec, u0_position(spec, z)) == pytest.approx(z, rel=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_strictly_decreasing_in_density(self, spec):
        z = np.array([1e-5, 1e-3, 0.1, 0.5, 0.9])
        x = u0_position(spec, z)
        assert np.all(np.diff(x) < 0.0)

    def test_log_space_inverse_survives_density_underflow(self):
        # density e**-900 underflows; the position must still come back finite
        x = position_at_phi(sub_exponential(mu=5.0, beta=0.2), 900.0)
        assert np.isfinite(x) and x == pytest.approx((180.0) ** 5.0, rel=1e-12)
