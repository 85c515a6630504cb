"""Level-set extraction and propagation-rate fitting.

The front position at level lambda is the rightmost downward crossing of the
solution through lambda (the supremum of the level set).  Traces of (t, x)
pairs are fitted against three rate models,

    linear:     x = a*t + b
    power:      x = c*t**p + b
    exp-power:  x = c*exp(slope * s) + b,   s = (r*(alpha+1)*t)**(1/(alpha+1))

each linear after its coordinate transform; additive offsets b are nuisance
parameters scanned over a coarse grid.  ``select_model`` ranks the three by
a common relative-deviation residual with a complexity preference margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import Regime
from .errors import InputError

# candidate offsets scanned when b is fitted
OFFSET_GRID_SIZE = 51
# offsets are scored in blocks of rows of at most this many cells, so the
# fit's temporaries stay near 2 MB each however long the window
OFFSET_BLOCK_CELLS = 1 << 18
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
        """Last half of the trace; transients are discarded."""
        if self.times.size == 0:
            raise InputError("an empty trace has no window")
        t0, t1 = float(self.times[0]), float(self.times[-1])
        return t0 + 0.5 * (t1 - t0), t1


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
            return c["c"] * t ** c["p"] + c["b"]
        a1 = c["alpha"] + 1.0
        s = (c["r"] * a1 * t) ** (1.0 / a1)
        return c["c"] * np.exp(c["slope"] * s) + c["b"]


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
    """Least squares y = slope*u + intercept for every row of ``y``.

    The closed form with u centred on its mean, for all rows in one pass.
    Returns per-row arrays: slope, intercept, rms residual and r^2.
    """
    u_mean = u.mean()
    du = u - u_mean
    y_mean = y.mean(axis=1)
    dy = y - y_mean[:, None]
    slope = (dy @ du) / (du @ du)
    intercept = y_mean - slope * u_mean
    resid = y - (slope[:, None] * u + intercept[:, None])
    ss_res = (resid ** 2).sum(axis=1)
    ss_tot = (dy ** 2).sum(axis=1)
    # r^2 is 1 for a constant row
    r2 = 1.0 - np.divide(ss_res, ss_tot, out=np.zeros_like(ss_res), where=ss_tot > 0)
    return slope, intercept, np.sqrt(ss_res / u.size), r2


def fit_linear(trace: LevelSetTrace, window=None) -> FitResult:
    """Ordinary least squares x = a*t + b on the window."""
    t, x, win = _windowed(trace, window)
    a, b, rms, r2 = (float(v[0]) for v in _ols(t, x[None]))
    return FitResult("linear", {"a": a, "b": b}, win, rms, r2)


def _fit_transformed(u, x, offset, model, win, extra):
    """Regress ln(x - b) on ``u`` for each candidate offset b and keep the
    first with the smallest residual.

    ``offset`` fixes b; None scores all ``OFFSET_GRID_SIZE`` candidates
    spanning [0, min x), which keep x - b positive, as (rows, N) arrays of
    at most ``OFFSET_BLOCK_CELLS`` cells: all 51 rows in one pass for
    windows up to 5140 samples.
    """
    if offset is None:
        top = float(np.min(x))
        if top <= 0:
            raise InputError("window contains nonpositive positions; fix an offset")
        offsets = np.linspace(0.0, top, OFFSET_GRID_SIZE, endpoint=False)
    else:
        offsets = np.array([float(offset)])
        if np.any(x - offsets[0] <= 0):
            raise InputError(f"offset {offsets[0]} makes x - b nonpositive in the window")
    rows = max(1, OFFSET_BLOCK_CELLS // x.size)
    blocks = [_ols(u, np.log(x - offsets[i:i + rows, None]))
              for i in range(0, offsets.size, rows)]
    slope, intercept, rms, r2 = (np.concatenate(parts) for parts in zip(*blocks))
    k = int(np.argmin(rms))  # the first of equal minima
    c = float(np.exp(intercept[k]))
    b = float(offsets[k])
    if model == "power":
        coeffs = {"c": c, "p": float(slope[k]), "b": b}
    else:
        coeffs = {"c": c, "slope": float(slope[k]), "b": b, **extra}
    return FitResult(model, coeffs, win, float(rms[k]), float(r2[k]))


def fit_power(trace: LevelSetTrace, window=None, offset=None) -> FitResult:
    """Fit x = c*t**p + b by regressing ln(x - b) on ln t.

    ``offset`` fixes b; None scans the coarse candidate grid and keeps the
    smallest transformed residual.  Headline parameter: the exponent p.
    """
    t, x, win = _windowed(trace, window)
    if np.any(t <= 0):
        raise InputError("power fit needs strictly positive times")
    return _fit_transformed(np.log(t), x, offset, "power", win, {})


def fit_exp_power(trace: LevelSetTrace, alpha: float, r: float,
                  window=None, offset=None) -> FitResult:
    """Fit x = c*exp(slope*s) + b against s = (r*(alpha+1)*t)**(1/(alpha+1)).

    The slope estimates 1/beta for algebraic tails; intercept gives ln c.
    """
    t, x, win = _windowed(trace, window)
    a1 = alpha + 1.0
    s = (r * a1 * t) ** (1.0 / a1)
    return _fit_transformed(s, x, offset, "exp_power", win, {"alpha": alpha, "r": r})


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
    """Fit all three models (offsets fitted) and pick by residual.

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
