"""Growth-ODE envelope, barriers, classifier, and rate predictions."""

import math

import numpy as np
import pytest

from frontlab.envelope import (OdeProfile, Regime, SubsolutionParams,
                               calibrate_subsolution,
                               calibrate_supersolution_shift, classify_regime,
                               cutoff_edge, envelope_derivatives,
                               ode_envelope, plateau_edge,
                               predict_level_envelope, quadratic_cutoff,
                               subsolution, supersolution)
from frontlab.errors import InputError
from frontlab.initial_data import (algebraic, algebraic_raw, eval_u0,
                                   logarithmic, sub_exponential)
from frontlab.reaction import weakly_monostable

SUBEXP = sub_exponential(mu=5.0, beta=0.2)
ALG = algebraic(beta=1.0, scale=100.0)


class TestOdeEnvelope:
    def test_initial_time_reduces_to_data(self):
        profile = OdeProfile(1.0, 0.4, ALG)
        x = np.array([0.5, 2.0, 10.0, 50.0])
        assert np.allclose(ode_envelope(profile, 0.0, x), eval_u0(ALG, x), rtol=1e-13)

    def test_unit_value_when_bracket_collapses(self):
        # alpha=1, rho=1, phi=1, t=1.5: exponent 1 - sqrt(4 - 3) = 0
        spec = sub_exponential(mu=5.0, beta=1.0)  # phi = 5x, so phi=1 at x=0.2
        profile = OdeProfile(1.0, 1.0, spec)
        assert ode_envelope(profile, 1.5, 0.2) == pytest.approx(1.0, abs=1e-14)

    def test_value_one_at_plateau_edge(self):
        profile = OdeProfile(1.0, 0.4, SUBEXP)
        for t in (0.5, 2.0, 10.0):
            edge = plateau_edge(profile, t)
            assert ode_envelope(profile, t, edge) == pytest.approx(1.0, abs=1e-9)

    def test_left_of_edge_raises_with_edge(self):
        profile = OdeProfile(1.0, 0.4, SUBEXP)
        edge = plateau_edge(profile, 4.0)
        with pytest.raises(InputError, match="left of the saturation edge at t=4.0"):
            ode_envelope(profile, 4.0, 0.5 * edge)

    def test_nondecreasing_in_time(self):
        profile = OdeProfile(1.0, 0.4, ALG)
        x = 30.0
        values = [ode_envelope(profile, t, x) for t in (0.0, 1.0, 2.0, 4.0, 8.0)]
        assert np.all(np.diff(values) > 0.0)

    @pytest.mark.parametrize("profile", [OdeProfile(1.0, 0.4, SUBEXP),
                                         OdeProfile(1.0, 0.4, ALG)])
    def test_ode_residual(self, profile):
        """Centered time difference matches rho*w/(1-ln w)**alpha to 1e-6."""
        h = 1e-4
        for t in (0.5, 2.0, 5.0, 10.0):
            lo = plateau_edge(profile, t + h)
            xs = np.geomspace(max(1.01 * lo, lo + 1e-6), 200.0, 80)
            w = ode_envelope(profile, t, xs)
            rate = profile.rho * w / (1.0 - np.log(w)) ** profile.alpha
            fd = (ode_envelope(profile, t + h, xs) - ode_envelope(profile, t - h, xs)) / (2 * h)
            assert np.max(np.abs(fd - rate) / rate) < 1e-6


class TestPlateauEdge:
    def test_zero_time_gives_clamp_point(self):
        assert plateau_edge(OdeProfile(1.0, 0.4, ALG), 0.0) == 0.0
        assert plateau_edge(OdeProfile(1.0, 0.4, logarithmic(2.0)), 0.0) == math.e
        assert plateau_edge(OdeProfile(1.0, 0.4, algebraic_raw(1.0)), 0.0) == 1.0

    def test_raw_algebraic_closed_form(self):
        # alpha=1, rho=1, t=4: density e**(1-3) = e**-2, position e**2
        profile = OdeProfile(1.0, 1.0, algebraic_raw(1.0))
        assert plateau_edge(profile, 4.0) == pytest.approx(math.e ** 2, rel=1e-13)

    def test_subexponential_frozen_value(self):
        # ((15**(1/1.4) - 1)/5)**5, mpmath 40 digits
        profile = OdeProfile(1.0, 0.4, SUBEXP)
        assert plateau_edge(profile, 10.0) == pytest.approx(2.3255164240221813, rel=1e-13)

    def test_nondecreasing(self):
        profile = OdeProfile(1.0, 0.4, ALG)
        edges = [plateau_edge(profile, t) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(edges) >= 0.0)


class TestEnvelopeDerivatives:
    def test_initial_time_identity(self):
        # at t=0, w_x = -u0*phi' because 1 - ln w = 1 + phi
        from frontlab.initial_data import eval_phi0
        x = np.array([2.0, 10.0, 80.0])
        profile = OdeProfile(1.0, 0.4, ALG)
        wx, _ = envelope_derivatives(profile, 0.0, x)
        u = eval_u0(ALG, x)
        _, dphi, _ = eval_phi0(ALG, x)
        assert np.allclose(wx, -u * dphi, rtol=1e-12)

    @pytest.mark.parametrize("profile", [OdeProfile(1.0, 0.4, SUBEXP),
                                         OdeProfile(1.0, 0.4, ALG)])
    def test_finite_difference_consistency(self, profile):
        for t in (0.5, 2.0, 8.0):
            lo = plateau_edge(profile, t)
            xs = np.geomspace(max(1.05 * lo, lo + 1e-4), 150.0, 60)
            w = ode_envelope(profile, t, xs)
            wx, wxx = envelope_derivatives(profile, t, xs)
            h = 1e-3 * xs
            wp = ode_envelope(profile, t, xs + h)
            wm = ode_envelope(profile, t, xs - h)
            assert np.max(np.abs((wp - wm) / (2 * h) - wx) / np.abs(wx)) < 1e-5
            assert np.max(np.abs((wp - 2 * w + wm) / h ** 2 - wxx) / np.abs(wxx)) < 1e-5

    def test_flux_dominates_curvature_far_out(self):
        # for light sub-exponential tails, w_x + w_xx <= 0 at large x and t
        profile = OdeProfile(1.0, 0.4, SUBEXP)
        for t in (50.0, 200.0):
            edge = plateau_edge(profile, t)
            xs = np.geomspace(max(100.0, 1.01 * edge), 1e5, 60)
            xs = xs[xs >= edge]
            wx, wxx = envelope_derivatives(profile, t, xs)
            assert np.all(wx + wxx <= 1e-15)


class TestSupersolution:
    def test_plateau_and_continuity(self):
        profile = OdeProfile(1.25, 0.4, ALG)
        edge = plateau_edge(profile, 3.0 + 2.0)
        assert supersolution(profile, 2.0, 3.0, 0.5 * edge) == 1.0
        assert supersolution(profile, 2.0, 3.0, edge) == pytest.approx(1.0, abs=1e-9)
        assert supersolution(profile, 2.0, 3.0, 2.0 * edge) < 1.0

    def test_zero_shift_zero_time_is_data(self):
        profile = OdeProfile(1.25, 0.4, ALG)
        x = np.array([1.0, 5.0, 20.0])
        assert np.allclose(supersolution(profile, 0.0, 0.0, x), eval_u0(ALG, x),
                           rtol=1e-13)

    def test_nonincreasing_in_x(self):
        profile = OdeProfile(1.25, 0.4, SUBEXP)
        x = np.linspace(-5.0, 100.0, 800)
        m = supersolution(profile, 4.0, 2.0, x)
        assert np.all(np.diff(m) <= 1e-15)

    def test_calibrated_shift_validates_residual(self):
        profile = OdeProfile(1.25, 0.4, ALG)
        family = weakly_monostable(0.4)
        shift = calibrate_supersolution_shift(profile, family, [0.0, 4.0, 8.0], 25.0)
        assert shift >= 1.0
        with pytest.raises(InputError, match="supersolution needs rho > r"):
            calibrate_supersolution_shift(OdeProfile(1.0, 0.4, ALG), family,
                                          [0.0], 25.0)  # needs rho > r

    def test_envelope_below_supersolution_chain(self):
        # w at rho=r sits under the faster, shifted barrier everywhere
        base = OdeProfile(1.0, 0.4, ALG)
        upper = OdeProfile(1.25, 0.4, ALG)
        for t in (0.5, 2.0, 6.0):
            lo = plateau_edge(base, t)
            x = np.geomspace(1.01 * lo + 1e-9, 200.0, 150)
            w = ode_envelope(base, t, x)
            m = supersolution(upper, 4.0, t, x)
            assert np.all(w <= m + 1e-14)


class TestSubsolution:
    def test_plateau_value_and_continuity(self):
        profile = OdeProfile(0.875, 0.4, ALG)
        params = SubsolutionParams(M=10.0)
        t = 2.0
        edge = cutoff_edge(params, profile, t)
        assert subsolution(params, profile, t, 0.5 * edge) == pytest.approx(1.0 / 40.0)
        # at the cutoff w = 1/(2M) and g(1/(2M)) = 1/(4M): the branches join
        assert subsolution(params, profile, t, edge) == pytest.approx(1.0 / 40.0, rel=1e-9)

    def test_quadratic_cutoff_value(self):
        assert quadratic_cutoff(0.01, 10.0) == pytest.approx(0.009, rel=1e-15)

    def test_bounded_by_plateau_and_positive(self):
        profile = OdeProfile(0.875, 0.4, ALG)
        params = SubsolutionParams(M=10.0)
        x = np.linspace(-5.0, 120.0, 2000)
        v = subsolution(params, profile, 3.0, x)
        assert np.all(v > 0.0)
        assert np.all(v <= 1.0 / 40.0 + 1e-15)

    def test_below_envelope(self):
        profile = OdeProfile(0.875, 0.4, ALG)
        params = SubsolutionParams(M=10.0)
        t = 3.0
        lo = plateau_edge(profile, t)
        x = np.geomspace(1.01 * lo, 100.0, 200)
        v = subsolution(params, profile, t, x)
        w = ode_envelope(profile, t, x)
        assert np.all(v <= w)

    def test_amplitude_threshold_enforced(self):
        with pytest.raises(InputError, match="below admissible threshold 0.5"):
            SubsolutionParams(M=0.4)  # below max(1/(2*1), 1/(4*1)) = 0.5
        SubsolutionParams(M=0.5)  # boundary admissible

    def test_calibration_validates(self):
        profile = OdeProfile(0.875, 0.4, ALG)
        family = weakly_monostable(0.4)
        params = calibrate_subsolution(profile, family, [0.0, 2.0, 4.0], 30.0)
        assert params.M >= 10.0
        with pytest.raises(InputError, match="subsolution needs rho < r"):
            calibrate_subsolution(OdeProfile(1.2, 0.4, ALG), family, [0.0], 30.0)
        with pytest.raises(InputError, match="subsolution needs rho > 3r/4"):
            calibrate_subsolution(OdeProfile(0.5, 0.4, ALG), family, [0.0], 30.0)


class TestClassifyRegime:
    def test_threshold_cases_exact(self):
        # captioned thresholds: 5/6 at alpha=0.2, 5/7 at alpha=0.4, 5/8 at alpha=0.6
        for alpha, thr in ((0.2, 5.0 / 6.0), (0.4, 5.0 / 7.0), (0.6, 5.0 / 8.0)):
            at = classify_regime(alpha, sub_exponential(mu=5.0, beta=thr))
            assert at.regime is Regime.FINITE_SPEED  # boundary included
            below = classify_regime(alpha, sub_exponential(mu=5.0, beta=thr * 0.999))
            assert below.regime is Regime.POWER

    def test_figure_sweep_combinations(self):
        for alpha in (0.2, 0.4, 0.6):
            thr = 1.0 / (alpha + 1.0)
            for beta in (0.1, 0.2, 0.3, 1.0):
                cls = classify_regime(alpha, sub_exponential(mu=5.0, beta=beta))
                if beta >= thr:
                    assert cls.regime is Regime.FINITE_SPEED
                else:
                    assert cls.regime is Regime.POWER
                    assert cls.power_exponent == pytest.approx(1.0 / (beta * (alpha + 1.0)))

    def test_power_exponent_value(self):
        cls = classify_regime(0.4, sub_exponential(mu=5.0, beta=0.2))
        assert cls.power_exponent == pytest.approx(1.0 / 0.28, rel=1e-12)

    def test_algebraic_and_logarithmic(self):
        cls = classify_regime(0.4, algebraic(beta=1.0, scale=100.0))
        assert cls.regime is Regime.EXP_POWER
        assert cls.outer_factor == 1.0
        assert cls.inner_exponent == pytest.approx(1.0 / 1.4)
        logc = classify_regime(0.4, logarithmic(beta=2.0))
        assert logc.regime is Regime.LOG_EXP
        assert logc.outer_factor == 0.5

    def test_scale_invariance(self):
        a = classify_regime(0.4, sub_exponential(mu=5.0, beta=0.2))
        b = classify_regime(0.4, sub_exponential(mu=0.01, beta=0.2))
        assert (a.regime, a.power_exponent) == (b.regime, b.power_exponent)
        c = classify_regime(0.4, algebraic(beta=2.0, scale=1.0))
        d = classify_regime(0.4, algebraic(beta=2.0, scale=1e6))
        assert (c.regime, c.outer_factor) == (d.regime, d.outer_factor)


class TestPredictLevelEnvelope:
    def test_raw_algebraic_closed_form(self):
        # eps=0: both sides equal exp((r*(alpha+1)*t)**(1/(alpha+1))/beta)
        for t in (1.0, 3.0, 6.0):
            lo, hi = predict_level_envelope(0.4, 1.0, algebraic_raw(1.0), 0.0, t)
            expected = math.exp((1.4 * t) ** (1.0 / 1.4))
            assert lo == pytest.approx(expected, rel=1e-12)
            assert hi == pytest.approx(expected, rel=1e-12)

    def test_subexponential_power_growth(self):
        # x(t) = ((1.4 t)**(1/1.4)/5)**5, proportional to t**(1/0.28)
        for t in (2.0, 4.0, 8.0):
            lo, _ = predict_level_envelope(0.4, 1.0, SUBEXP, 0.0, t)
            assert lo == pytest.approx(((1.4 * t) ** (1.0 / 1.4) / 5.0) ** 5.0, rel=1e-12)
        x1, _ = predict_level_envelope(0.4, 1.0, SUBEXP, 0.0, 2.0)
        x2, _ = predict_level_envelope(0.4, 1.0, SUBEXP, 0.0, 4.0)
        assert x2 / x1 == pytest.approx(2.0 ** (1.0 / 0.28), rel=1e-10)

    def test_positive_epsilon_strict_bracket(self):
        for t in (0.5, 2.0, 10.0):
            lo, hi = predict_level_envelope(0.4, 1.0, ALG, 0.5, t)
            assert lo < hi

    def test_array_matches_scalar_calls(self):
        # verify_sandwich evaluates its bracket over every trace sample at once
        t = np.linspace(4.0, 8.0, 401)
        lo, hi = predict_level_envelope(0.4, 1.0, ALG, 0.3, t)
        assert lo.shape == hi.shape == t.shape
        scalar = np.array([predict_level_envelope(0.4, 1.0, ALG, 0.3, ti) for ti in t])
        np.testing.assert_array_max_ulp(lo, scalar[:, 0], maxulp=1)
        np.testing.assert_array_max_ulp(hi, scalar[:, 1], maxulp=1)

    def test_domain_errors(self):
        with pytest.raises(InputError, match="too small: bracket densities leave the tail"):
            predict_level_envelope(0.4, 1.0, ALG, 0.0, 0.0)  # t too small
        with pytest.raises(InputError, match="too small: bracket densities leave the tail"):
            predict_level_envelope(0.4, 1.0, ALG, 0.0, np.array([1.0, 0.0]))
        with pytest.raises(InputError, match=r"epsilon must be in \[0, r\)"):
            predict_level_envelope(0.4, 1.0, ALG, 1.5, 1.0)  # eps >= r
