"""Level extraction, trace handling, and rate-model fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontlab import measurement
from frontlab.envelope import Regime
from frontlab.errors import InputError
from frontlab.measurement import (LevelSetTrace, extract_level_position,
                                  fit_exp_power, fit_linear, fit_power,
                                  select_model, selection_residual)
from frontlab.presets import PRESETS
from frontlab.reporting import write_trace_csv
from frontlab.solver import run


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
        with pytest.raises(InputError, match="no value reaches level 0.5"):
            extract_level_position([0.0, 1.0, 2.0], [0.3, 0.3, 0.3], 0.5)

    def test_front_exited(self):
        with pytest.raises(InputError, match="front left the domain"):
            extract_level_position([0.0, 1.0, 2.0], [1.0, 0.9, 0.8], 0.5)

    def test_level_validated(self):
        with pytest.raises(InputError, match=r"level must be in \(0, 1\)"):
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
            raise InputError("no crossing")
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
        except InputError as exc:
            # only the oracle's own verdict: any other InputError fails the test
            if str(exc) != "no crossing":
                raise
            with pytest.raises(InputError, match="no value reaches level"):
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

    def test_csv_round_trip_exact(self, tmp_path):
        t = np.array([0.0, 0.1, 0.2, 1.0 / 3.0])
        x = np.array([1.0, 1.2345678901234567, 2.0, np.pi])
        trace = LevelSetTrace(0.5, t, x)
        write_trace_csv(tmp_path / "trace.csv", trace)
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert np.array_equal([float(tt) for tt, _ in rows], t)
        assert np.array_equal([float(xx) for _, xx in rows], x)

    def test_csv_header(self, tmp_path):
        trace = LevelSetTrace(0.5, [0.0, 1.0], [0.5, 1.5])
        write_trace_csv(tmp_path / "trace.csv", trace)
        assert (tmp_path / "trace.csv").read_text().splitlines()[0] == "t,x_lambda"

    def test_window_and_default(self):
        trace = LevelSetTrace(0.5, np.linspace(0, 10, 21), np.linspace(0, 5, 21))
        lo, hi = trace.default_window()
        assert (lo, hi) == (7.5, 10.0)
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


def local_exponents(fit, fn, du_dt):
    """d ln x / du of ``fn`` at the two ends of the fit's window, where u is
    the fit's regressor (ln t or s) and ``du_dt`` its derivative in t."""
    t = np.array(fit.window)
    h = 1e-6 * t
    dlnx_dt = (np.log(fn(t + h)) - np.log(fn(t - h))) / (2.0 * h)
    return dlnx_dt / du_dt(t)


class TestFitPower:
    def test_exact_power_law(self):
        fit = fit_power(synthetic(lambda t: 2.0 * t ** 3.5))
        assert fit.coeffs["p"] == pytest.approx(3.5, rel=1e-12)
        assert fit.coeffs["c"] == pytest.approx(2.0, rel=1e-10)
        assert fit.residual < 1e-10

    def test_published_curve_gives_local_exponent(self):
        # no offset is fitted: the +40 keeps the exponent between the local
        # ones at the window's ends, below the curve's 1/0.28
        fn = lambda t: 0.0013 * t ** (1.0 / 0.28) + 40.0
        fit = fit_power(synthetic(fn))
        assert sorted(fit.coeffs) == ["c", "p"]
        lo, hi = local_exponents(fit, fn, lambda t: 1.0 / t)
        assert lo < fit.coeffs["p"] < hi < 1.0 / 0.28

    def test_nonpositive_position_rejected(self):
        # ln x needs x > 0 in the whole window
        trace = synthetic(lambda t: 2.0 * t - 50.0)
        with pytest.raises(InputError, match="window contains nonpositive positions"):
            fit_power(trace)

    def test_positive_times_required(self):
        t = np.linspace(-1.0, 10.0, 50)
        trace = LevelSetTrace(0.5, t, np.abs(t) + 1.0)
        with pytest.raises(InputError):
            fit_power(trace, window=(-1.0, 10.0))

    def test_scale_invariance_of_exponent(self):
        base = synthetic(lambda t: 2.0 * t ** 3.5)
        scaled = LevelSetTrace(0.5, base.times, 7.5 * base.positions)
        p1 = fit_power(base).coeffs
        p2 = fit_power(scaled).coeffs
        assert p2["p"] == pytest.approx(p1["p"], rel=1e-10)
        assert p2["c"] == pytest.approx(7.5 * p1["c"], rel=1e-9)


class TestFitExpPower:
    def test_exact_transform(self):
        # x = exp(2 s): slope 2 exactly, zero residual
        a1 = 1.4
        fn = lambda t: np.exp(2.0 * (a1 * t) ** (1.0 / a1))
        fit = fit_exp_power(synthetic(fn, t_max=8.0), 0.4, 1.0)
        assert fit.coeffs["slope"] == pytest.approx(2.0, rel=1e-12)
        assert fit.residual < 1e-10

    def test_published_curve_gives_local_exponent(self):
        # no offset is fitted: the +10 keeps the slope between the local
        # ones at the window's ends, below the curve's 1
        fn = lambda t: 0.0236 * np.exp((1.4 * t) ** (1.0 / 1.4)) + 10.0
        fit = fit_exp_power(synthetic(fn, t_max=30.0), 0.4, 1.0)
        assert sorted(fit.coeffs) == ["alpha", "c", "r", "slope"]
        lo, hi = local_exponents(fit, fn, lambda t: (1.4 * t) ** (1.0 / 1.4 - 1.0))
        assert lo < fit.coeffs["slope"] < hi < 1.0

    def test_scale_invariance_of_slope(self):
        fn = lambda t: np.exp(2.0 * (1.4 * t) ** (1.0 / 1.4))
        base = synthetic(fn, t_max=8.0)
        scaled = LevelSetTrace(0.5, base.times, 3.0 * base.positions)
        s1 = fit_exp_power(base, 0.4, 1.0).coeffs["slope"]
        s2 = fit_exp_power(scaled, 0.4, 1.0).coeffs["slope"]
        assert s2 == pytest.approx(s1, rel=1e-10)

    def test_predict_inverts_transform(self):
        fn = lambda t: 0.7 * np.exp(1.3 * (1.4 * t) ** (1.0 / 1.4))
        fit = fit_exp_power(synthetic(fn, t_max=8.0), 0.4, 1.0)
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
        trace = LevelSetTrace(0.5, np.linspace(1.0, 2.0, 5), np.linspace(1.0, 2.0, 5))
        with pytest.raises(InputError, match="no rate model could be fitted"):
            select_model(trace, 0.4, 1.0)  # too short for any model


class LoopOracle:
    """The reference fits: one ``np.linalg.lstsq`` solve each, of x (linear)
    or of ln x (power, exp-power)."""

    @staticmethod
    def ols(u, y):
        A = np.vstack([u, np.ones_like(u)]).T
        (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = y - (slope * u + intercept)
        rms = float(np.sqrt(np.mean(resid ** 2)))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
        return float(slope), float(intercept), rms, r2

    @classmethod
    def log_fit(cls, u, x, model, key, win, extra):
        if np.any(x <= 0):
            raise InputError("window contains nonpositive positions")
        slope, intercept, rms, r2 = cls.ols(u, np.log(x))
        coeffs = {"c": float(np.exp(intercept)), key: slope, **extra}
        return measurement.FitResult(model, coeffs, win, rms, r2)

    @staticmethod
    def windowed(trace, window):
        t0, t1 = trace.default_window() if window is None else window
        cut = trace.window(t0, t1)
        if cut.times.size < 10:
            raise InputError("need >= 10 samples in window")
        return cut.times, cut.positions, (float(t0), float(t1))

    @classmethod
    def fit_linear(cls, trace, window=None):
        t, x, win = cls.windowed(trace, window)
        a, b, rms, r2 = cls.ols(t, x)
        return measurement.FitResult("linear", {"a": a, "b": b}, win, rms, r2)

    @classmethod
    def fit_power(cls, trace, window=None):
        t, x, win = cls.windowed(trace, window)
        return cls.log_fit(np.log(t), x, "power", "p", win, {})

    @classmethod
    def fit_exp_power(cls, trace, alpha, r, window=None):
        t, x, win = cls.windowed(trace, window)
        s = (r * (alpha + 1.0) * t) ** (1.0 / (alpha + 1.0))
        return cls.log_fit(s, x, "exp_power", "slope", win, {"alpha": alpha, "r": r})


ORACLE_PANELS = ["fig3a"] + [f"fig{fig}{panel}" for fig in (6, 7, 8) for panel in "abc"]


@pytest.fixture(scope="module")
def panel_traces():
    return {name: run(PRESETS[name].config).traces[0.5] for name in ORACLE_PANELS}


def assert_same_fit(got, want):
    assert (got.model, got.window, sorted(got.coeffs)) == \
        (want.model, want.window, sorted(want.coeffs))
    for key, value in want.coeffs.items():
        assert got.coeffs[key] == pytest.approx(value, rel=1e-12, abs=0.0)
    assert got.residual == pytest.approx(want.residual, rel=1e-12, abs=0.0)
    assert got.r_squared == pytest.approx(want.r_squared, rel=1e-12, abs=0.0)


def fits_both_ways(trace, alpha, r, monkeypatch):
    """Every fit and the selection, from ``measurement`` and from the oracle."""
    results = []
    for fits in (measurement, LoopOracle):
        for name in ("fit_linear", "fit_power", "fit_exp_power"):
            monkeypatch.setattr(measurement, name, getattr(fits, name))
        out = {}
        for model, call in (("linear", lambda: measurement.fit_linear(trace)),
                            ("power", lambda: measurement.fit_power(trace)),
                            ("exp_power", lambda: measurement.fit_exp_power(trace, alpha, r))):
            try:
                out[model] = call()
            except InputError as exc:
                # a window with a nonpositive position; any other InputError
                # (a short window) fails the test
                if "nonpositive" not in str(exc):
                    raise
                out[model] = "nonpositive"
        out["selected"] = select_model(trace, alpha, r)
        results.append(out)
        monkeypatch.undo()
    return results


class TestOffsetScanMatchesLoop:
    """Each offset-free fit, and the selection, against ``LoopOracle``."""

    @pytest.mark.parametrize("name", ORACLE_PANELS)
    def test_preset_traces(self, panel_traces, name, monkeypatch):
        params = PRESETS[name].config.reaction.params
        got, want = fits_both_ways(panel_traces[name], params.alpha, params.r, monkeypatch)
        for model in ("linear", "power", "exp_power"):
            assert_same_fit(got[model], want[model])
        (fit, regime), (want_fit, want_regime) = got["selected"], want["selected"]
        assert regime is want_regime
        assert_same_fit(fit, want_fit)

    def test_window_with_nonpositive_positions(self, monkeypatch):
        # x crosses zero inside the default window [3.875, 5]; the ripple
        # keeps the residual above rounding noise
        trace = synthetic(lambda t: 2.0 * t - 8.0 + 0.01 * np.sin(7.0 * t),
                          t_max=5.0, n=200)
        got, want = fits_both_ways(trace, 0.4, 1.0, monkeypatch)
        assert got["power"] == want["power"] == "nonpositive"
        assert got["exp_power"] == want["exp_power"] == "nonpositive"
        assert_same_fit(got["linear"], want["linear"])
        assert got["selected"][1] is want["selected"][1] is Regime.FINITE_SPEED
        assert_same_fit(got["selected"][0], want["selected"][0])
