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

from ._scalar import scalar_or_array
from .errors import CalibrationError, DomainError, EnvelopeDomainError, ParameterError
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
        if not self.rho > 0:
            raise ParameterError(f"rho must be > 0, got {self.rho}")
        if not self.alpha > 0:
            raise ParameterError(f"alpha must be > 0, got {self.alpha}")


def _bracket(profile: OdeProfile, t, phi):
    a1 = profile.alpha + 1.0
    return (1.0 + phi) ** a1 - profile.rho * a1 * t


def _saturate(profile: OdeProfile, br):
    """L = 1 - ln w and the envelope value w for bracket values ``br``."""
    L = np.maximum(br, 1.0) ** (1.0 / (profile.alpha + 1.0))
    return L, np.minimum(np.exp(1.0 - L), 1.0)


def ode_envelope(profile: OdeProfile, t: float, x):
    """Envelope value w(t, x) in (0, 1] for x right of the saturation edge.

    Raises ``EnvelopeDomainError`` (carrying x0(t)) if any query point lies
    left of the edge, where the formula would exceed 1.
    """
    if t < 0:
        raise DomainError(f"time must be >= 0, got {t}")
    arr = np.asarray(x, dtype=float)
    phi = phi0_total(profile.data, arr)
    br = _bracket(profile, t, phi)
    if arr.size and np.min(br) < 1.0 - _FP_SLACK:
        raise EnvelopeDomainError(
            f"envelope undefined left of the saturation edge at t={t}",
            edge=plateau_edge(profile, t))
    _, w = _saturate(profile, br)
    return scalar_or_array(arr, w)


def plateau_edge(profile: OdeProfile, t: float) -> float:
    """Position x0(t) where the envelope saturates at 1; nondecreasing in t.

    Computed in log space (the saturation density itself underflows long
    before the position leaves double range).
    """
    if t < 0:
        raise DomainError(f"time must be >= 0, got {t}")
    a1 = profile.alpha + 1.0
    phi_target = (profile.rho * a1 * t + 1.0) ** (1.0 / a1) - 1.0
    return float(position_at_phi(profile.data, phi_target))


def envelope_derivatives(profile: OdeProfile, t: float, x):
    """Spatial derivatives (w_x, w_xx) of the envelope at strict-tail points.

    With L = 1 - ln w and A = (1 + phi)**alpha:

        w_x  = -(w / L**alpha) * phi' * A
        w_xx =  (w / L**alpha) * { (phi')**2 * A**2 *
                 [ L**(-alpha) + alpha*L**(-alpha-1) - alpha*(1+phi)**(-alpha-1) ]
                 - phi'' * A }
    """
    arr = np.asarray(x, dtype=float)
    phi, dphi, ddphi = eval_phi0(profile.data, arr)
    br = _bracket(profile, t, np.asarray(phi))
    if np.any(np.asarray(br) < 1.0 - _FP_SLACK):
        raise EnvelopeDomainError(
            f"derivatives undefined left of the saturation edge at t={t}",
            edge=plateau_edge(profile, t))
    al = profile.alpha
    a1 = al + 1.0
    L, w = _saturate(profile, br)
    A = (1.0 + phi) ** al
    base = w / L ** al
    wx = -base * dphi * A
    inner = L ** (-al) + al * L ** (-a1) - al * (1.0 + phi) ** (-a1)
    wxx = base * (dphi ** 2 * A ** 2 * inner - ddphi * A)
    return scalar_or_array(arr, wx, wxx)


# ---------------------------------------------------------------------------
# Supersolutions (upper barriers)
# ---------------------------------------------------------------------------

def supersolution(profile: OdeProfile, shift: float, t: float, x):
    """Upper barrier: 1 left of the saturation edge at t + shift, else w(t+shift, x).

    Total on R.  A genuine barrier requires rho > r and a shift large enough
    that the envelope curvature is small; see ``calibrate_supersolution_shift``.
    """
    if t < 0 or shift < 0:
        raise DomainError("t and shift must be >= 0")
    arr = np.asarray(x, dtype=float)
    phi = phi0_total(profile.data, arr)
    br = _bracket(profile, t + shift, phi)
    _, w = _saturate(profile, br)
    out = np.where(br >= 1.0, w, 1.0)
    return scalar_or_array(arr, out)


def calibrate_supersolution_shift(profile: OdeProfile, family: ReactionFamily,
                                  t_grid, x_max: float) -> float:
    """Smallest power-of-two shift making the barrier residual nonnegative.

    Checks rho*w/L**alpha - w_xx - f(w) >= 0 on probe points between the
    saturation edge and ``x_max`` for every time in ``t_grid``.
    """
    if not profile.rho > family.params.r:
        raise ParameterError("supersolution needs rho > r")
    shift = 1.0
    for _ in range(_MAX_DOUBLINGS + 1):
        if _supersolution_ok(profile, family, t_grid, x_max, shift):
            return shift
        shift *= 2.0
    raise CalibrationError(
        f"supersolution shift doubling did not validate within {_MAX_DOUBLINGS} steps")


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
            raise ParameterError(f"M={self.M} below admissible threshold 0.5")


def subsolution(params: SubsolutionParams, profile: OdeProfile, t: float, x):
    """Lower barrier: the plateau 1/(4M) where w >= 1/(2M), else g(w).

    The plateau region {w >= 1/(2M)} is exactly {x <= x_M(t)}; evaluating
    through w avoids inverting u0 and is total on R.
    """
    if t < 0:
        raise DomainError(f"time must be >= 0, got {t}")
    M = params.M
    arr = np.asarray(x, dtype=float)
    phi = phi0_total(profile.data, arr)
    br = _bracket(profile, t, phi)
    w = np.where(br >= 1.0, _saturate(profile, br)[1], 1.0)
    out = np.where(w >= 1.0 / (2.0 * M), 1.0 / (4.0 * M), quadratic_cutoff(w, M))
    return scalar_or_array(arr, out)


def cutoff_edge(params: SubsolutionParams, profile: OdeProfile, t: float) -> float:
    """Position x_M(t) where the barrier leaves its plateau (w = 1/(2M))."""
    if t < 0:
        raise DomainError(f"time must be >= 0, got {t}")
    a1 = profile.alpha + 1.0
    phi_target = ((1.0 + math.log(2.0 * params.M)) ** a1
                  + profile.rho * a1 * t) ** (1.0 / a1) - 1.0
    if phi_target <= 0.0:
        return profile.data.clamp_point
    return float(position_at_phi(profile.data, phi_target))


def calibrate_subsolution(profile: OdeProfile, family: ReactionFamily,
                          t_grid, x_max: float) -> SubsolutionParams:
    """Double M until v_t - v_xx - f(v) <= 0 on probe points past the cutoff edge."""
    r = family.params.r
    if not profile.rho < r:
        raise ParameterError("subsolution needs rho < r")
    if not profile.rho > 0.75 * r:
        raise ParameterError("subsolution needs rho > 3r/4")
    params = SubsolutionParams(M=10.0)
    for _ in range(_MAX_DOUBLINGS + 1):
        if _subsolution_ok(params, profile, family, t_grid, x_max):
            return params
        params = SubsolutionParams(M=2.0 * params.M)
    raise CalibrationError(
        f"subsolution amplitude doubling did not validate within {_MAX_DOUBLINGS} steps")


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
    logarithmic tails doubly so.  Scale factors (mu, scale) never matter.
    """
    if not alpha > 0:
        raise ParameterError(f"alpha must be > 0, got {alpha}")
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
                           epsilon: float, t: float) -> tuple[float, float]:
    """Predicted bracket [x_lower, x_upper] for the front position at time t.

    Composes the tail inverse with the rate bracket:
        x_lower = U0(exp(-[(r-eps)*(alpha+1)*t]**(1/(alpha+1)))),
        x_upper = U0(exp(-[(r+eps)*(alpha+1)*t]**(1/(alpha+1)))).
    Multiplicative constants of the exact statements are taken as 1 and
    absorbed downstream by fit offsets.
    """
    if not 0 <= epsilon < r:
        raise ParameterError(f"epsilon must be in [0, r), got {epsilon}")
    if not t > 0:
        raise DomainError(f"t={t} too small: bracket densities leave the tail")
    a1 = alpha + 1.0
    y_lo = ((r - epsilon) * a1 * t) ** (1.0 / a1)
    y_hi = ((r + epsilon) * a1 * t) ** (1.0 / a1)
    x_lower = float(position_at_phi(spec, y_lo))
    x_upper = float(position_at_phi(spec, y_hi))
    return x_lower, x_upper
