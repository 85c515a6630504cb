"""The reaction term of the 1D reaction-diffusion model.

The one reaction the solver evaluates is the weakly monostable rate

    f(s) = r * s * (1 - s) / (1 + |ln s|)**alpha,

whose per-capita rate sits between the logistic (KPP) rate r*(1-s) and the
degenerate Allee rate r*s**alpha*(1-s) near s = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Below this, ln(s) is not worth evaluating: the true rate is under 1e-298
# and the limit value is 0.  Also keeps subnormals out of the power kernel.
UNDERFLOW_CUTOFF = 1e-300


@dataclass(frozen=True)
class ReactionParams:
    """Growth rate r and degeneracy exponent alpha."""

    r: float = 1.0
    alpha: float = 0.4

    def __post_init__(self):
        if not 0 < self.r < math.inf:
            raise InputError(f"reaction rate r must be finite and > 0, got {self.r}")
        if not 0 < self.alpha < math.inf:
            raise InputError(f"exponent alpha must be finite and > 0, got {self.alpha}")


@dataclass(frozen=True)
class ReactionFamily:
    """The weakly monostable reaction with parameters ``params``."""

    params: ReactionParams


def weakly_monostable(alpha: float, r: float = 1.0) -> ReactionFamily:
    return ReactionFamily(ReactionParams(r, alpha))


def eval_f(family: ReactionFamily, s, lo: float | None = None):
    """Evaluate the reaction rate at state value(s) ``s`` in [0, 1].

    Takes and returns arrays; a scalar ``s`` gives a 0-d array.  Raises
    ``InputError`` for values outside [0, 1].  Exactly 0 is returned at
    s = 0 and s = 1 (continuous limits; no logarithm of zero is ever taken).
    The result is a new array, which the caller may overwrite.  When the
    minimum is at or below ``UNDERFLOW_CUTOFF``, the log is taken of s
    raised to the cutoff and those cells are set to 0 afterwards; above
    it, of s itself.

    ``lo``, when given, is the caller's promise that ``s`` lies in [0, 1]
    with minimum ``lo`` (the solver knows both from its previous step); the
    range check and its two reductions are then skipped.  The result is
    the same, bit for bit, as without it.
    """
    arr = np.asarray(s, dtype=np.float64)
    if not arr.size:
        return np.zeros_like(arr)
    if lo is None:
        # the reductions nanmin/nanmax make, without their Python wrappers
        lo, hi = np.fmin.reduce(arr, axis=None), np.fmax.reduce(arr, axis=None)
        if lo < 0.0 or hi > 1.0:
            bad = arr[(arr < 0.0) | (arr > 1.0)].flat[0]
            raise InputError(f"state value {bad} outside [0, 1]")
    # 1-D, as arithmetic on a 0-d array gives numpy scalars, which cannot be masked
    s1 = arr.reshape(-1)
    p = family.params
    # r*s*(1 - s) / (1 - ln s)**alpha, operation by operation in two arrays;
    # |ln s| = -ln s on (0, 1], and at s = 1 the factor (1 - s) gives 0.
    out = np.multiply(s1, p.r)
    den = np.subtract(1.0, s1)
    out *= den
    if lo > UNDERFLOW_CUTOFF:
        np.log(s1, out=den)
    else:
        np.log(np.maximum(s1, UNDERFLOW_CUTOFF, out=den), out=den)
    np.subtract(1.0, den, out=den)
    den **= p.alpha
    out /= den
    if lo <= UNDERFLOW_CUTOFF:
        out[s1 <= UNDERFLOW_CUTOFF] = 0.0
    return out.reshape(arr.shape)
