"""Level extraction, trace handling, and rate-model fitting."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontlab.envelope import Regime
from frontlab.errors import (BelowLevelError, FrontExitedDomainError,
                             InputError, OffsetError, ParameterError)
from frontlab.measurement import (LevelSetTrace, extract_level_position,
                                  fit_exp_power, fit_linear, fit_power,
                                  select_model, selection_residual)


class TestExtractLevelPosition:
    def test_midpoint_interpolation(self):
        x = extract_level_position([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 0.0, 0.0], 0.5)
        assert x == pytest.approx(1.5)

    def test_fractional_interpolation(self):
        x = extract_level_position([0.0, 1.0, 2.0, 3.0], [1.0, 0.8, 0.6, 0.2], 0.5)
        assert x == pytest.approx(2.25)

    def test_rightmost_crossing_wins(self):
        # two crossings; the supremum-style rightmost one is returned
        values = [1.0, 0.2, 0.9, 0.2]
        x = extract_level_position([0.0, 1.0, 2.0, 3.0], values, 0.5)
        assert 2.0 < x < 3.0

    def test_below_level(self):
        with pytest.raises(BelowLevelError):
            extract_level_position([0.0, 1.0, 2.0], [0.3, 0.3, 0.3], 0.5)

    def test_front_exited(self):
        with pytest.raises(FrontExitedDomainError):
            extract_level_position([0.0, 1.0, 2.0], [1.0, 0.9, 0.8], 0.5)

    def test_level_validated(self):
        with pytest.raises(ParameterError):
            extract_level_position([0.0, 1.0], [1.0, 0.0], 1.5)

    def test_non_uniform_grid(self):
        x = extract_level_position([0.0, 10.0, 30.0], [1.0, 0.8, 0.2], 0.5)
        assert x == pytest.approx(10.0 + 20.0 * 0.3 / 0.6)

    @given(shift=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=100)
    def test_translation_equivariance(self, shift):
        grid = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        values = np.array([1.0, 0.9, 0.55, 0.3, 0.1])
        base = extract_level_position(grid, values, 0.5)
        moved = extract_level_position(grid + shift, values, 0.5)
        assert moved == pytest.approx(base + shift, rel=1e-12, abs=1e-9)

    def test_monotone_in_level_on_monotone_data(self):
        grid = np.linspace(0.0, 10.0, 101)
        values = 1.0 / (1.0 + np.exp(2.0 * (grid - 5.0)))
        xs = [extract_level_position(grid, values, lam)
              for lam in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert np.all(np.diff(xs) < 0.0)  # higher level sits further left

    @staticmethod
    def crossing_oracle(grid, values, lam):
        # the former scan: the last pair (v[i] >= lam, v[i+1] < lam)
        g, v = np.asarray(grid), np.asarray(values)
        crossings = np.nonzero((v[:-1] >= lam) & (v[1:] < lam))[0]
        if crossings.size == 0:
            raise BelowLevelError("no crossing")
        i = int(crossings[-1])
        return float(g[i] + (g[i + 1] - g[i]) * (v[i] - lam) / (v[i] - v[i + 1]))

    @given(values=st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.5 + 1e-16, 0.7, 1.0])
                           | st.floats(min_value=0.0, max_value=1.0),
                           min_size=1, max_size=60),
           lam=st.sampled_from([0.1, 0.5, 0.7]) | st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=300)
    def test_matches_crossing_mask_on_non_monotone_profiles(self, values, lam):
        v = np.array(values + [0.0])  # v[-1] < lam, else the front has left
        grid = -3.0 + 0.05 * np.arange(v.size)
        try:
            want = self.crossing_oracle(grid, v, lam)
        except BelowLevelError:
            with pytest.raises(BelowLevelError):
                extract_level_position(grid, v, lam)
            return
        assert extract_level_position(grid, v, lam) == want

    def test_several_crossings_and_plateau_at_level(self):
        grid = np.arange(9.0)
        values = np.array([1.0, 0.5, 0.4, 0.5, 0.5, 0.2, 0.6, 0.1, 0.0])
        got = extract_level_position(grid, values, 0.5)
        assert got == self.crossing_oracle(grid, values, 0.5)
        assert got == pytest.approx(6.0 + 0.1 / 0.5)


class TestLevelSetTrace:
    def test_strictly_increasing_times_required(self):
        with pytest.raises(InputError):
            LevelSetTrace(0.5, [0.0, 1.0, 1.0], [0.0, 1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            LevelSetTrace(0.5, [0.0, 1.0], [0.0])

    def test_csv_round_trip_exact(self):
        t = np.array([0.0, 0.1, 0.2, 1.0 / 3.0])
        x = np.array([1.0, 1.2345678901234567, 2.0, np.pi])
        trace = LevelSetTrace(0.5, t, x)
        buf = io.StringIO()
        trace.to_csv(buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        assert np.array_equal([float(tt) for tt, _ in rows], t)
        assert np.array_equal([float(xx) for _, xx in rows], x)

    def test_csv_header(self):
        trace = LevelSetTrace(0.5, [0.0, 1.0], [0.5, 1.5])
        buf = io.StringIO()
        trace.to_csv(buf)
        assert buf.getvalue().splitlines()[0] == "t,x_lambda"

    def test_window_and_default(self):
        trace = LevelSetTrace(0.5, np.linspace(0, 10, 21), np.linspace(0, 5, 21))
        lo, hi = trace.default_window()
        assert (lo, hi) == (5.0, 10.0)
        cut = trace.window(2.0, 4.0)
        assert cut.times[0] == 2.0 and cut.times[-1] == 4.0


def synthetic(fn, t_max=30.0, n=400, t_min=0.5):
    t = np.linspace(t_min, t_max, n)
    return LevelSetTrace(0.5, t, fn(t))


class TestFitLinear:
    def test_exact_line(self):
        fit = fit_linear(synthetic(lambda t: 3.0 * t + 1.0))
        assert fit.coeffs["a"] == pytest.approx(3.0, rel=1e-12)
        assert fit.coeffs["b"] == pytest.approx(1.0, rel=1e-9)
        assert fit.residual < 1e-10
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_line_recovers_slope(self):
        rng = np.random.default_rng(42)
        t = np.linspace(0.5, 30.0, 400)
        trace = LevelSetTrace(0.5, t, 3.0 * t + 1.0 + rng.uniform(-0.01, 0.01, t.size))
        fit = fit_linear(trace)
        assert 2.99 <= fit.coeffs["a"] <= 3.01

    def test_too_few_samples(self):
        trace = LevelSetTrace(0.5, np.arange(5.0), np.arange(5.0))
        with pytest.raises(InputError):
            fit_linear(trace)


class TestFitPower:
    def test_exact_power_law(self):
        fit = fit_power(synthetic(lambda t: 2.0 * t ** 3.5), offset=0.0)
        assert fit.coeffs["p"] == pytest.approx(3.5, rel=1e-12)
        assert fit.coeffs["c"] == pytest.approx(2.0, rel=1e-10)
        assert fit.residual < 1e-10

    def test_published_curve_with_scanned_offset(self):
        fit = fit_power(synthetic(lambda t: 0.0013 * t ** (1.0 / 0.28) + 40.0))
        assert fit.coeffs["p"] == pytest.approx(1.0 / 0.28, rel=0.02)

    def test_fixed_offset_must_keep_positive(self):
        trace = synthetic(lambda t: 2.0 * t)
        with pytest.raises(OffsetError):
            fit_power(trace, offset=1000.0)

    def test_positive_times_required(self):
        t = np.linspace(-1.0, 10.0, 50)
        trace = LevelSetTrace(0.5, t, np.abs(t) + 1.0)
        with pytest.raises(InputError):
            fit_power(trace, window=(-1.0, 10.0))

    def test_scale_invariance_of_exponent(self):
        base = synthetic(lambda t: 2.0 * t ** 3.5)
        scaled = LevelSetTrace(0.5, base.times, 7.5 * base.positions)
        p1 = fit_power(base, offset=0.0).coeffs
        p2 = fit_power(scaled, offset=0.0).coeffs
        assert p2["p"] == pytest.approx(p1["p"], rel=1e-10)
        assert p2["c"] == pytest.approx(7.5 * p1["c"], rel=1e-9)


class TestFitExpPower:
    def test_exact_transform(self):
        # x = exp(2 s): slope 2 exactly, zero residual
        a1 = 1.4
        fn = lambda t: np.exp(2.0 * (a1 * t) ** (1.0 / a1))
        fit = fit_exp_power(synthetic(fn, t_max=8.0), 0.4, 1.0, offset=0.0)
        assert fit.coeffs["slope"] == pytest.approx(2.0, rel=1e-12)
        assert fit.residual < 1e-10

    def test_published_curve_with_scanned_offset(self):
        fn = lambda t: 0.0236 * np.exp((1.4 * t) ** (1.0 / 1.4)) + 10.0
        fit = fit_exp_power(synthetic(fn, t_max=30.0), 0.4, 1.0)
        assert fit.coeffs["slope"] == pytest.approx(1.0, rel=0.02)
        assert fit.coeffs["c"] == pytest.approx(0.0236, rel=0.10)

    def test_scale_invariance_of_slope(self):
        fn = lambda t: np.exp(2.0 * (1.4 * t) ** (1.0 / 1.4))
        base = synthetic(fn, t_max=8.0)
        scaled = LevelSetTrace(0.5, base.times, 3.0 * base.positions)
        s1 = fit_exp_power(base, 0.4, 1.0, offset=0.0).coeffs["slope"]
        s2 = fit_exp_power(scaled, 0.4, 1.0, offset=0.0).coeffs["slope"]
        assert s2 == pytest.approx(s1, rel=1e-10)

    def test_predict_inverts_transform(self):
        fn = lambda t: 0.7 * np.exp(1.3 * (1.4 * t) ** (1.0 / 1.4)) + 2.0
        fit = fit_exp_power(synthetic(fn, t_max=8.0), 0.4, 1.0, offset=2.0)
        t = np.array([5.0, 6.5])
        assert np.allclose(fit.predict(t), fn(t), rtol=1e-8)


class TestSelectModel:
    def test_linear_synthetic(self):
        rng = np.random.default_rng(42)
        t = np.linspace(0.5, 30.0, 400)
        trace = LevelSetTrace(0.5, t, 3.0 * t + 1.0 + rng.uniform(-0.01, 0.01, t.size))
        fit, regime = select_model(trace, 0.4, 1.0)
        assert fit.model == "linear"
        assert regime is Regime.FINITE_SPEED

    def test_power_synthetic(self):
        fit, regime = select_model(synthetic(lambda t: 2.0 * t ** 3.5), 0.4, 1.0)
        assert fit.model == "power"
        assert regime is Regime.POWER

    def test_exp_power_synthetic(self):
        fn = lambda t: 0.0236 * np.exp((1.4 * t) ** (1.0 / 1.4)) + 10.0
        fit, regime = select_model(synthetic(fn, t_max=30.0), 0.4, 1.0)
        assert fit.model == "exp_power"
        assert regime is Regime.EXP_POWER

    def test_selection_residual_comparable(self):
        trace = synthetic(lambda t: 3.0 * t + 1.0)
        fit = fit_linear(trace)
        assert selection_residual(fit, trace) < 1e-12

    def test_all_fits_failing_raises_analysis_error(self):
        from frontlab.errors import AnalysisError
        trace = LevelSetTrace(0.5, np.linspace(1.0, 2.0, 5), np.linspace(1.0, 2.0, 5))
        with pytest.raises(AnalysisError):
            select_model(trace, 0.4, 1.0)  # too short for any model
