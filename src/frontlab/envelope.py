"""Closed-form envelopes, barriers, and propagation-rate predictions.

Dropping diffusion from u_t = u_xx + f(u) and replacing f by its per-capita
envelope r*s/(1+|ln s|)**alpha gives the growth ODE

    w_t = rho * w / (1 - ln w)**alpha,      w(0, x) = u0(x),

whose solution is explicit:

    w(t, x) = exp{ 1 - [ (1 + phi(x))**(a1) - rho*a1*t ]**(1/a1) },

with a1 = alpha + 1 and phi = -ln(u0).  The formula is valid while the
bracket stays >= 1, i.e. right of the saturation edge x0(t) where w = 1.
Everything in this module is a direct evaluation of w, its derivatives, or
compositions of w with the tail inverse U0: upper barriers (supersolutions),
the quadratic-cutoff lower barrier (subsolution), level-set envelopes, and
the spreading-regime classifier.  The lower barrier takes the paper's
constants zeta = s0 = 1, which leaves it one parameter, its amplitude M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError, SolverError
from .initial_data import (Family, InitialDataSpec, eval_phi0, phi0_total,
                           position_at_phi)
from .reaction import ReactionFamily, eval_f

# Relative slack for the bracket >= 1 precondition and for barrier residual
# sign checks; covers float round-off without hiding real violations.
_FP_SLACK = 1e-12
# probe points per time and the doubling cap of the barrier calibrations
_N_PROBE = 200
_MAX_DOUBLINGS = 40


@dataclass(frozen=True)
class OdeProfile:
    """Effective growth rate rho, exponent alpha, and the initial data."""

    rho: float
    alpha: float
    data: InitialDataSpec

    def __post_init__(self):
        if not 0 < self.rho < math.inf:
            raise InputError(f"rho must be finite and > 0, got {self.rho}")
        if not 0 < self.alpha < math.inf:
            raise InputError(f"alpha must be finite and > 0, got {self.alpha}")


def _bracket(profile: OdeProfile, t, phi):
    a1 = profile.alpha + 1.0
    return (1.0 + phi) ** a1 - profile.rho * a1 * t


def _saturate(profile: OdeProfile, br):
    """L = 1 - ln w and the envelope value w for bracket values ``br``;
    w = 1 wherever br < 1, left of the saturation edge."""
    L = np.maximum(br, 1.0) ** (1.0 / (profile.alpha + 1.0))
    return L, np.minimum(np.exp(1.0 - L), 1.0)


def ode_envelope(profile: OdeProfile, t: float, x):
    """Envelope value w(t, x) in (0, 1] for x right of the saturation edge.

    Raises ``InputError`` if any query point lies left of the edge, where
    the formula would exceed 1.  A scalar ``x`` gives a 0-d numpy value.
    """
    if t < 0:
        raise InputError(f"time must be >= 0, got {t}")
    phi = phi0_total(profile.data, x)
    br = _bracket(profile, t, phi)
    if np.any(br < 1.0 - _FP_SLACK):
        raise InputError(f"envelope undefined left of the saturation edge at t={t}")
    return _saturate(profile, br)[1]


def _edge(profile: OdeProfile, t: float, L0: float) -> float:
    """Position where L = 1 - ln w of the envelope equals ``L0`` >= 1.

    Computed in log space (the density there underflows long before the
    position leaves double range): the bracket L0**a1 = (1 + phi)**a1 -
    rho*a1*t solved for phi = -ln(u0).
    """
    if t < 0:
        raise InputError(f"time must be >= 0, got {t}")
    a1 = profile.alpha + 1.0
    phi = (L0 ** a1 + profile.rho * a1 * t) ** (1.0 / a1) - 1.0
    return float(position_at_phi(profile.data, phi))


def plateau_edge(profile: OdeProfile, t: float) -> float:
    """Position x0(t) where the envelope saturates at 1; nondecreasing in t."""
    return _edge(profile, t, 1.0)


def envelope_derivatives(profile: OdeProfile, t: float, x):
    """Spatial derivatives (w_x, w_xx) at strict-tail points, 0-d for a scalar x.

    With L = 1 - ln w and A = (1 + phi)**alpha:

        w_x  = -(w / L**alpha) * phi' * A
        w_xx =  (w / L**alpha) * { (phi')**2 * A**2 *
                 [ L**(-alpha) + alpha*L**(-alpha-1) - alpha*(1+phi)**(-alpha-1) ]
                 - phi'' * A }
    """
    phi, dphi, ddphi = eval_phi0(profile.data, x)
    br = _bracket(profile, t, phi)
    if np.any(br < 1.0 - _FP_SLACK):
        raise InputError(f"derivatives undefined left of the saturation edge at t={t}")
    al = profile.alpha
    a1 = al + 1.0
    L, w = _saturate(profile, br)
    A = (1.0 + phi) ** al
    base = w / L ** al
    wx = -base * dphi * A
    inner = L ** (-al) + al * L ** (-a1) - al * (1.0 + phi) ** (-a1)
    wxx = base * (dphi ** 2 * A ** 2 * inner - ddphi * A)
    return wx, wxx


# ---------------------------------------------------------------------------
# Supersolutions (upper barriers)
# ---------------------------------------------------------------------------

def supersolution(profile: OdeProfile, shift: float, t: float, x):
    """Upper barrier: 1 left of the saturation edge at t + shift, else w(t+shift, x).

    Total on R.  A genuine barrier requires rho > r and a shift large enough
    that the envelope curvature is small; see ``calibrate_supersolution_shift``.
    A scalar ``x`` gives a 0-d numpy value.
    """
    if t < 0 or shift < 0:
        raise InputError("t and shift must be >= 0")
    phi = phi0_total(profile.data, x)
    br = _bracket(profile, t + shift, phi)
    return _saturate(profile, br)[1]


def calibrate_supersolution_shift(profile: OdeProfile, family: ReactionFamily,
                                  t_grid, x_max: float) -> float:
    """Smallest power-of-two shift making the barrier residual nonnegative.

    Checks rho*w/L**alpha - w_xx - f(w) >= 0 on probe points between the
    saturation edge and ``x_max`` for every time in ``t_grid``.
    """
    if not profile.rho > family.params.r:
        raise InputError("supersolution needs rho > r")
    return _double_until(
        lambda shift: _supersolution_ok(profile, family, t_grid, x_max, shift),
        1.0, "supersolution shift")


def _double_until(ok, value: float, what: str) -> float:
    """The first of value, 2*value, 4*value, ... that ``ok`` accepts."""
    for _ in range(_MAX_DOUBLINGS + 1):
        if ok(value):
            return value
        value *= 2.0
    raise SolverError(
        f"{what} doubling did not validate within {_MAX_DOUBLINGS} steps")


def _supersolution_ok(profile, family, t_grid, x_max, shift):
    al = profile.alpha
    for t in t_grid:
        edge = plateau_edge(profile, t + shift)
        if edge >= x_max:
            continue
        lo = max(edge, profile.data.clamp_point + 1e-9)
        xs = np.linspace(lo, x_max, _N_PROBE)
        w = ode_envelope(profile, t + shift, xs)
        _, wxx = envelope_derivatives(profile, t + shift, xs)
        L = 1.0 - np.log(w)
        resid = profile.rho * w / L ** al - wxx - eval_f(family, w)
        if np.any(resid < -_FP_SLACK):
            return False
    return True


# ---------------------------------------------------------------------------
# Subsolution (lower barrier)
# ---------------------------------------------------------------------------

def quadratic_cutoff(y, M: float):
    """g(y) = y*(1 - M*y); maps [0, 1/(2M)] onto [0, 1/(4M)]."""
    return y * (1.0 - M * y)


@dataclass(frozen=True)
class SubsolutionParams:
    """Cutoff amplitude M of the lower barrier.

    Admissibility requires M >= max{1/(2*zeta), 1/(4*s0)} = 1/2, so the
    barrier values stay in (0, 1/2] and below the initial plateau.
    """

    M: float

    def __post_init__(self):
        if not self.M >= 0.5:
            raise InputError(f"M={self.M} below admissible threshold 0.5")


def subsolution(params: SubsolutionParams, profile: OdeProfile, t: float, x):
    """Lower barrier: the plateau 1/(4M) where w >= 1/(2M), else g(w); 0-d for a scalar x.

    The plateau region {w >= 1/(2M)} is exactly {x <= x_M(t)}; evaluating
    through w avoids inverting u0 and is total on R.
    """
    if t < 0:
        raise InputError(f"time must be >= 0, got {t}")
    M = params.M
    phi = phi0_total(profile.data, x)
    br = _bracket(profile, t, phi)
    w = _saturate(profile, br)[1]
    return np.where(w >= 1.0 / (2.0 * M), 1.0 / (4.0 * M), quadratic_cutoff(w, M))


def cutoff_edge(params: SubsolutionParams, profile: OdeProfile, t: float) -> float:
    """Position x_M(t) where the barrier leaves its plateau (w = 1/(2M))."""
    return _edge(profile, t, 1.0 + math.log(2.0 * params.M))


def calibrate_subsolution(profile: OdeProfile, family: ReactionFamily,
                          t_grid, x_max: float) -> SubsolutionParams:
    """Double M until v_t - v_xx - f(v) <= 0 on probe points past the cutoff edge."""
    r = family.params.r
    if not profile.rho < r:
        raise InputError("subsolution needs rho < r")
    if not profile.rho > 0.75 * r:
        raise InputError("subsolution needs rho > 3r/4")
    M = _double_until(
        lambda M: _subsolution_ok(SubsolutionParams(M), profile, family, t_grid, x_max),
        10.0, "subsolution amplitude")
    return SubsolutionParams(M)


def _subsolution_ok(params, profile, family, t_grid, x_max):
    al = profile.alpha
    M = params.M
    for t in t_grid:
        edge = cutoff_edge(params, profile, t)
        if edge >= x_max:
            continue
        lo = max(edge * (1.0 + 1e-12), profile.data.clamp_point + 1e-9)
        xs = np.linspace(lo, x_max, _N_PROBE)
        w = ode_envelope(profile, t, xs)
        wx, wxx = envelope_derivatives(profile, t, xs)
        region = w < 1.0 / (2.0 * M)  # past the cutoff edge; plateau is trivially fine
        if not np.any(region):
            continue
        w, wx, wxx = w[region], wx[region], wxx[region]
        L = 1.0 - np.log(w)
        v = quadratic_cutoff(w, M)
        v_t = profile.rho * (w / L ** al) * (1.0 - 2.0 * M * w)
        v_xx = (1.0 - 2.0 * M * w) * wxx - 2.0 * M * wx ** 2
        resid = v_t - v_xx - eval_f(family, v)
        if np.any(resid > _FP_SLACK):
            return False
    return True


# ---------------------------------------------------------------------------
# Regime classification and level-set envelopes
# ---------------------------------------------------------------------------

class Regime(Enum):
    FINITE_SPEED = "finite_speed"
    POWER = "power_acceleration"
    EXP_POWER = "exp_power_acceleration"
    LOG_EXP = "log_exp_acceleration"


@dataclass(frozen=True)
class RegimeClassification:
    """Predicted spreading regime with its rate exponents.

    ``power_exponent`` is 1/(beta*(alpha+1)) in the power regime (front
    position ~ t**power_exponent).  In the exp-power regimes the position
    (or its log, for logarithmic tails) grows like
    exp(outer_factor * (r*(alpha+1)*t)**inner_exponent).
    """

    regime: Regime
    alpha: float
    beta: float
    threshold_beta: float
    power_exponent: float | None = None
    inner_exponent: float | None = None
    outer_factor: float | None = None

    def describe(self) -> str:
        if self.regime is Regime.FINITE_SPEED:
            return "finite_speed: x(t) ~ c*t"
        if self.regime is Regime.POWER:
            return f"power_acceleration: x(t) ~ t**{self.power_exponent:.6g}"
        inner = f"(r*{self.alpha + 1:.6g}*t)**{self.inner_exponent:.6g}"
        if self.regime is Regime.EXP_POWER:
            return f"exp_power_acceleration: x(t) ~ exp({self.outer_factor:.6g}*{inner})"
        return f"log_exp_acceleration: ln x(t) ~ exp({self.outer_factor:.6g}*{inner})"


def classify_regime(alpha: float, spec: InitialDataSpec) -> RegimeClassification:
    """Map (alpha, tail family) to the predicted spreading regime.

    Sub-exponential tails spread at finite speed iff beta >= 1/(alpha+1)
    (the boundary case included); lighter sub-exponential tails accelerate
    polynomially, algebraic tails exponentially in t**(1/(alpha+1)), and
    logarithmic tails doubly so.  Scale factors (mu, scale) do not change
    this long-time regime, but they decide when it shows: at mu = 5 no run
    separates by t = 30, at mu = 0.5 the runs do (tests/test_separation.py).
    """
    if not 0 < alpha < math.inf:
        raise InputError(f"alpha must be finite and > 0, got {alpha}")
    a1 = alpha + 1.0
    thr = 1.0 / a1
    b = spec.beta
    if spec.family is Family.SUB_EXPONENTIAL:
        if b >= thr:
            return RegimeClassification(Regime.FINITE_SPEED, alpha, b, thr)
        return RegimeClassification(Regime.POWER, alpha, b, thr,
                                    power_exponent=1.0 / (b * a1))
    if spec.family in (Family.ALGEBRAIC, Family.ALGEBRAIC_RAW):
        return RegimeClassification(Regime.EXP_POWER, alpha, b, thr,
                                    inner_exponent=thr, outer_factor=1.0 / b)
    return RegimeClassification(Regime.LOG_EXP, alpha, b, thr,
                                inner_exponent=thr, outer_factor=1.0 / b)


def predict_level_envelope(alpha: float, r: float, spec: InitialDataSpec,
                           epsilon: float, t):
    """Predicted bracket (x_lower, x_upper) for the front position at times t.

    Composes the tail inverse with the rate bracket:
        x_lower = U0(exp(-[(r-eps)*(alpha+1)*t]**(1/(alpha+1)))),
        x_upper = U0(exp(-[(r+eps)*(alpha+1)*t]**(1/(alpha+1)))).
    Multiplicative constants of the exact statements are taken as 1, so
    the bracket holds only once t is large enough for them not to matter.
    A scalar ``t`` gives 0-d numpy values.
    """
    if not 0 <= epsilon < r:
        raise InputError(f"epsilon must be in [0, r), got {epsilon}")
    t = np.asarray(t, dtype=float)
    if t.size and not np.min(t) > 0:
        raise InputError(f"t={np.min(t)} too small: bracket densities leave the tail")
    a1 = alpha + 1.0
    # np.power, not **: ** on a numpy scalar calls C pow, so a scalar t
    # would round differently from the same t in an array
    y_lo = np.power((r - epsilon) * a1 * t, 1.0 / a1)
    y_hi = np.power((r + epsilon) * a1 * t, 1.0 / a1)
    return position_at_phi(spec, y_lo), position_at_phi(spec, y_hi)
