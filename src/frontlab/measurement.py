"""Level-set extraction and propagation-rate fitting.

The front position at level lambda is the rightmost downward crossing of the
solution through lambda (the supremum of the level set).  Traces of (t, x)
pairs are fitted against three rate models,

    linear:     x = a*t + b
    power:      x = c*t**p
    exp-power:  x = c*exp(slope * s),   s = (r*(alpha+1)*t)**(1/(alpha+1))

each a least-squares line after its coordinate transform, on the last quarter
of the trace: the power and exp-power exponents are local ones, the slope of
ln x against ln t or s with no offset.  ``select_model`` ranks the three by
a common relative-deviation residual with a complexity preference margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import Regime
from .errors import InputError

# a more complex model must beat a simpler one by this factor to be selected
COMPLEXITY_MARGIN = 1.10


def extract_level_position(grid, values, lam: float) -> float:
    """Rightmost lambda-crossing of ``values`` on ``grid``, interpolated linearly.

    As v[-1] < lam, that is the pair (v[i] >= lam, v[i+1] < lam) at the last
    index i with v[i] >= lam, found in one comparison pass.  Raises
    ``InputError`` when the level set is empty or the rightmost value still
    exceeds lam.
    """
    if not 0 < lam < 1:
        raise InputError(f"level must be in (0, 1), got {lam}")
    g = np.asarray(grid, dtype=float)
    v = np.asarray(values, dtype=float)
    if g.shape != v.shape or g.size < 2:
        raise InputError("grid and values must be equal-length, size >= 2")
    if v[-1] >= lam:
        raise InputError(
            f"rightmost value {v[-1]} >= level {lam}: front left the domain")
    # the last True byte of the mask, searched from the right (a reversed
    # argmax walks the mask element by element)
    i = (v >= lam).tobytes().rfind(1)
    if i < 0:
        raise InputError(f"no value reaches level {lam}")
    return float(g[i] + (g[i + 1] - g[i]) * (v[i] - lam) / (v[i] - v[i + 1]))


@dataclass(frozen=True)
class LevelSetTrace:
    """Sampled front positions (t, x_lambda) for one level."""

    lam: float
    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.positions, dtype=float)
        if t.shape != x.shape:
            raise InputError("times and positions must have equal length")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise InputError("trace times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", x)

    def window(self, t_start: float, t_end: float) -> "LevelSetTrace":
        m = (self.times >= t_start) & (self.times <= t_end)
        return LevelSetTrace(self.lam, self.times[m], self.positions[m])

    def default_window(self) -> tuple[float, float]:
        """Last quarter of the trace; transients are discarded."""
        if self.times.size == 0:
            raise InputError("an empty trace has no window")
        t0, t1 = float(self.times[0]), float(self.times[-1])
        return t0 + 0.75 * (t1 - t0), t1


@dataclass(frozen=True)
class FitResult:
    """One fitted rate model.

    ``coeffs`` holds the model parameters (and, for exp-power, the transform
    constants alpha and r).  ``residual`` is the RMS misfit in the model's
    own transformed coordinates; ``r_squared`` the goodness there.
    """

    model: str
    coeffs: dict
    window: tuple[float, float]
    residual: float
    r_squared: float

    @property
    def exponent(self) -> float:
        """Headline rate parameter: slope (linear/exp-power) or power p."""
        if self.model == "linear":
            return self.coeffs["a"]
        if self.model == "power":
            return self.coeffs["p"]
        return self.coeffs["slope"]

    def predict(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        c = self.coeffs
        if self.model == "linear":
            return c["a"] * t + c["b"]
        if self.model == "power":
            return c["c"] * t ** c["p"]
        a1 = c["alpha"] + 1.0
        s = (c["r"] * a1 * t) ** (1.0 / a1)
        return c["c"] * np.exp(c["slope"] * s)


def _windowed(trace: LevelSetTrace, window):
    if window is None:
        window = trace.default_window()
    t0, t1 = window
    cut = trace.window(t0, t1)
    t, x = cut.times, cut.positions
    if t.size < 10:
        raise InputError(f"need >= 10 samples in window, got {t.size}")
    return t, x, (float(t0), float(t1))


def _ols(u, y):
    """Least squares y = slope*u + intercept, in closed form with u centred
    on its mean.  Returns slope, intercept, rms residual and r^2."""
    u_mean, y_mean = u.mean(), y.mean()
    du, dy = u - u_mean, y - y_mean
    slope = float(dy @ du / (du @ du))
    intercept = float(y_mean - slope * u_mean)
    ss_res = float(np.sum((y - (slope * u + intercept)) ** 2))
    ss_tot = float(np.sum(dy ** 2))
    # r^2 is 1 for a constant y
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, float(np.sqrt(ss_res / u.size)), r2


def fit_linear(trace: LevelSetTrace, window=None) -> FitResult:
    """Ordinary least squares x = a*t + b on the window."""
    t, x, win = _windowed(trace, window)
    a, b, rms, r2 = _ols(t, x)
    return FitResult("linear", {"a": a, "b": b}, win, rms, r2)


def _fit_log(u, x, win, model, key, extra):
    """Regress ln x on ``u``: the slope is the coefficient ``key``, the
    intercept ln c."""
    if np.any(x <= 0):
        raise InputError("window contains nonpositive positions")
    slope, intercept, rms, r2 = _ols(u, np.log(x))
    coeffs = {"c": float(np.exp(intercept)), key: slope, **extra}
    return FitResult(model, coeffs, win, rms, r2)


def fit_power(trace: LevelSetTrace, window=None) -> FitResult:
    """Fit x = c*t**p by regressing ln x on ln t.  Headline parameter: the
    local exponent p."""
    t, x, win = _windowed(trace, window)
    if np.any(t <= 0):
        raise InputError("power fit needs strictly positive times")
    return _fit_log(np.log(t), x, win, "power", "p", {})


def fit_exp_power(trace: LevelSetTrace, alpha: float, r: float,
                  window=None) -> FitResult:
    """Fit x = c*exp(slope*s) by regressing ln x on
    s = (r*(alpha+1)*t)**(1/(alpha+1)).

    The slope estimates 1/beta for algebraic tails.
    """
    t, x, win = _windowed(trace, window)
    a1 = alpha + 1.0
    s = (r * a1 * t) ** (1.0 / a1)
    return _fit_log(s, x, win, "exp_power", "slope", {"alpha": alpha, "r": r})


_MODEL_ORDER = ("linear", "power", "exp_power")  # increasing complexity
_MODEL_REGIME = {
    "linear": Regime.FINITE_SPEED,
    "power": Regime.POWER,
    "exp_power": Regime.EXP_POWER,
}


def selection_residual(fit: FitResult, trace: LevelSetTrace) -> float:
    """RMS relative deviation of the fit on its own window.

    Common yardstick across the three models (their native transformed
    residuals live in different coordinates).
    """
    cut = trace.window(*fit.window)
    t, x = cut.times, cut.positions
    pred = fit.predict(t)
    denom = np.maximum(np.abs(x), 1e-12)
    return float(np.sqrt(np.mean(((pred - x) / denom) ** 2)))


def select_model(trace: LevelSetTrace, alpha: float, r: float) -> tuple[FitResult, Regime]:
    """Fit all three models on the last quarter of the trace and pick by
    residual.

    The least complex model within ``COMPLEXITY_MARGIN`` of the smallest
    relative residual wins, so the flexible exp-power fit cannot claim
    linear data on noise alone.
    """
    fits: dict[str, FitResult] = {}
    for model in _MODEL_ORDER:
        try:
            if model == "linear":
                fits[model] = fit_linear(trace)
            elif model == "power":
                fits[model] = fit_power(trace)
            else:
                fits[model] = fit_exp_power(trace, alpha, r)
        except InputError:
            continue
    if not fits:
        raise InputError("no rate model could be fitted to the trace")
    scores = {m: selection_residual(f, trace) for m, f in fits.items()}
    best_score = min(scores.values())
    for model in _MODEL_ORDER:
        if model in scores and scores[model] <= COMPLEXITY_MARGIN * best_score:
            return fits[model], _MODEL_REGIME[model]
    raise InputError("model selection failed")  # pragma: no cover
