"""Front-like initial data families with closed-form tails.

Each family is identically 1 on a left half-line (up to its clamp point)
and strictly decreasing to 0 on the right.  The log transform
phi = -ln(u0) and its first two derivatives, as well as the inverse of the
tail, are available in closed form; everything downstream (envelopes,
barriers, domain sizing) is built on these four evaluators.

Families and their strict tails:

    sub_exponential(mu, beta):   u0(x) = exp(-mu * x**beta)      x > 0
    algebraic(beta, scale):      u0(x) = 1 / (1 + scale*x**beta) x > 0
    algebraic_raw(beta):         u0(x) = x**(-beta)              x > 1
    logarithmic(beta):           u0(x) = (ln x)**(-beta)         x > e

``algebraic_raw`` is the unregularized power tail; it keeps phi = beta*ln(x)
exactly and is used for closed-form asymptotic checks.  Simulations use the
regularized ``algebraic`` form, which is smooth at the clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError


class Family(Enum):
    SUB_EXPONENTIAL = "sub_exponential"
    ALGEBRAIC = "algebraic"
    ALGEBRAIC_RAW = "algebraic_raw"
    LOGARITHMIC = "logarithmic"


@dataclass(frozen=True)
class InitialDataSpec:
    family: Family
    beta: float
    mu: float | None = None
    scale: float | None = None

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise InputError(f"tail exponent beta must be finite and > 0, got {self.beta}")
        name = self.family.value
        if self.mu is not None and self.family is not Family.SUB_EXPONENTIAL:
            raise InputError(f"mu is a parameter of sub_exponential data, not of {name}")
        if self.scale is not None and self.family is not Family.ALGEBRAIC:
            raise InputError(f"scale is a parameter of algebraic data, not of {name}")
        if self.family is Family.SUB_EXPONENTIAL:
            if self.mu is None or not 0 < self.mu < math.inf:
                raise InputError("sub-exponential data need a finite decay rate mu > 0")
        elif self.family is Family.ALGEBRAIC:
            if self.scale is None or not 0 < self.scale < math.inf:
                raise InputError("algebraic data need a finite scale > 0 for u0 to decay")

    @property
    def clamp_point(self) -> float:
        """Rightmost point of the plateau where u0 == 1."""
        if self.family is Family.ALGEBRAIC_RAW:
            return 1.0
        if self.family is Family.LOGARITHMIC:
            return math.e
        return 0.0


def sub_exponential(mu: float, beta: float) -> InitialDataSpec:
    return InitialDataSpec(Family.SUB_EXPONENTIAL, beta, mu=mu)


# the scale of algebraic data when none is given, here and in config files
ALGEBRAIC_SCALE = 100.0


def algebraic(beta: float, scale: float = ALGEBRAIC_SCALE) -> InitialDataSpec:
    return InitialDataSpec(Family.ALGEBRAIC, beta, scale=scale)


def algebraic_raw(beta: float) -> InitialDataSpec:
    return InitialDataSpec(Family.ALGEBRAIC_RAW, beta)


def logarithmic(beta: float) -> InitialDataSpec:
    return InitialDataSpec(Family.LOGARITHMIC, beta)


def eval_u0(spec: InitialDataSpec, x):
    """Density u0(x) in (0, 1], 1 left of the clamp point; 0-d for a scalar x."""
    arr = np.asarray(x, dtype=float)
    out = np.ones_like(arr)
    tail = arr > spec.clamp_point
    xt = arr[tail]
    if spec.family is Family.SUB_EXPONENTIAL:
        out[tail] = np.exp(-spec.mu * xt ** spec.beta)
    elif spec.family is Family.ALGEBRAIC:
        out[tail] = 1.0 / (1.0 + spec.scale * xt ** spec.beta)
    elif spec.family is Family.ALGEBRAIC_RAW:
        out[tail] = xt ** (-spec.beta)
    else:
        out[tail] = np.log(xt) ** (-spec.beta)
    return out


def eval_phi0(spec: InitialDataSpec, x):
    """(phi, phi', phi'') of phi = -ln(u0) on the strict tail.

    Raises ``InputError`` inside the clamped region, where the one-sided
    kink makes derivatives undefined.  A scalar ``x`` gives 0-d numpy values.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and np.min(arr) <= spec.clamp_point:
        raise InputError(
            f"x={np.min(arr)} is not in the strict tail (clamp point "
            f"{spec.clamp_point} of {spec.family.value})")
    b = spec.beta
    if spec.family is Family.SUB_EXPONENTIAL:
        m = spec.mu
        phi = m * arr ** b
        dphi = m * b * arr ** (b - 1.0)
        ddphi = m * b * (b - 1.0) * arr ** (b - 2.0)
    elif spec.family is Family.ALGEBRAIC:
        a = spec.scale
        t = a * arr ** b
        q = 1.0 + t
        d = a * b * arr ** (b - 1.0)
        phi = np.log1p(t)
        dphi = d / q
        ddphi = a * b * (b - 1.0) * arr ** (b - 2.0) / q - dphi ** 2
    elif spec.family is Family.ALGEBRAIC_RAW:
        phi = b * np.log(arr)
        dphi = b / arr
        ddphi = -b / arr ** 2
    else:
        L = np.log(arr)
        phi = b * np.log(L)
        dphi = b / (arr * L)
        ddphi = -b * (1.0 + L) / (arr * L) ** 2
    return phi, dphi, ddphi


def phi0_total(spec: InitialDataSpec, x):
    """phi = -ln(u0) on R: 0 on the plateau, closed form on the tail; 0-d for a scalar x."""
    arr = np.asarray(x, dtype=float)
    out = np.zeros_like(arr)
    tail = arr > spec.clamp_point
    if np.any(tail):
        out[tail] = eval_phi0(spec, arr[tail])[0]
    return out


def position_at_phi(spec: InitialDataSpec, phi):
    """Tail position where -ln(u0) reaches ``phi`` >= 0.

    The tail inverse in log space: the position where u0 = exp(-phi), still
    usable when that density underflows double precision.  A scalar
    ``phi`` gives a 0-d numpy value.
    """
    arr = np.asarray(phi, dtype=float)
    if arr.size and np.min(arr) < 0.0:
        raise InputError(f"log-transform value must be >= 0, got {np.min(arr)}")
    b = spec.beta
    # np.power, not **: ** on a numpy scalar calls C pow, so a scalar phi
    # would round differently from the same phi in an array
    if spec.family is Family.SUB_EXPONENTIAL:
        out = np.power(arr / spec.mu, 1.0 / b)
    elif spec.family is Family.ALGEBRAIC:
        out = np.power(np.expm1(arr) / spec.scale, 1.0 / b)
    elif spec.family is Family.ALGEBRAIC_RAW:
        out = np.exp(arr / b)
    else:
        out = np.exp(np.exp(arr / b))
    return out
