"""The reaction term of the 1D reaction-diffusion model.

The one reaction the solver evaluates is the weakly monostable rate

    f(s) = r * s * (1 - s) / (1 + |ln s|)**alpha,

whose per-capita rate sits between the logistic (KPP) rate r*(1-s) and the
degenerate Allee rate r*s**alpha*(1-s) near s = 0.  Those two appear only
in closed form, as comparison columns of ``compare_families_near_zero``;
``verify_hypothesis_bounds`` checks an arbitrary vectorised reaction
against the two-sided per-capita envelope

    r*s*(1 - s)/(1+|ln s|)**alpha <= f(s) <= r*s/(1+|ln s|)**alpha   on (0, 1),

the paper's hypothesis with its constants K = 1 and s0 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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

    def __call__(self, s):
        return eval_f(self, s)


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


def percapita_bound(params: ReactionParams, s: np.ndarray) -> np.ndarray:
    """Upper envelope r*s/(1+|ln s|)**alpha for s strictly inside (0, 1)."""
    return params.r * s / (1.0 - np.log(s)) ** params.alpha


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the two-sided per-capita bound check."""

    upper_ok: bool
    lower_ok: bool
    n_checked: int

    @property
    def passed(self) -> bool:
        return self.upper_ok and self.lower_ok


def verify_hypothesis_bounds(params: ReactionParams,
                             f: Callable[[np.ndarray], np.ndarray],
                             grid: Sequence[float]) -> HypothesisReport:
    """Check ``f`` against the per-capita envelope on sample points in (0, 1).

    ``f`` maps the whole sample array to its rates in one call.  Both
    bounds are tested at every grid point.
    """
    s = np.asarray(grid, dtype=float)
    if s.size == 0:
        raise InputError("empty sample grid")
    if np.any(s <= 0.0) or np.any(s >= 1.0):
        raise InputError("sample points must lie strictly inside (0, 1)")

    fs = np.asarray(f(s), dtype=float)

    upper_ok = bool(np.all(fs - percapita_bound(params, s) <= 0.0))
    # same evaluation order as the canonical rate, which meets it exactly
    lower = params.r * s * (1.0 - s) / (1.0 - np.log(s)) ** params.alpha
    lower_ok = bool(np.all(lower - fs <= 0.0))
    return HypothesisReport(upper_ok, lower_ok, int(s.size))


@dataclass(frozen=True)
class FamilyComparison:
    """Per-capita and absolute KPP, weakly monostable and Allee rates on a
    common grid."""

    s: np.ndarray
    percapita_kpp: np.ndarray
    percapita_weak: np.ndarray
    percapita_allee: np.ndarray
    f_kpp: np.ndarray
    f_weak: np.ndarray
    f_allee: np.ndarray
    ordering_ok: bool

    def rows(self):
        for i in range(self.s.size):
            yield (self.s[i], self.percapita_kpp[i], self.percapita_weak[i],
                   self.percapita_allee[i], self.f_kpp[i], self.f_weak[i],
                   self.f_allee[i])


def compare_families_near_zero(params: ReactionParams, s_values) -> FamilyComparison:
    """Tabulate KPP / weakly-monostable / Allee rates near s = 0.

    The KPP rate r*s*(1 - s) and the Allee rate r*s**(alpha+1)*(1 - s) are
    written in closed form; only the weakly monostable one is ``eval_f``'s.
    For every sample in (0, 1) the per-capita ordering KPP >= weak >= Allee
    holds (s*(1+|ln s|) < 1 there); ``ordering_ok`` records the sampled check.
    """
    s = np.asarray(s_values, dtype=float)
    r, alpha = params.r, params.alpha
    f_k = r * s * (1.0 - s)
    f_w = eval_f(ReactionFamily(params), s)
    f_a = r * s ** (alpha + 1.0) * (1.0 - s)
    with np.errstate(divide="ignore", invalid="ignore"):
        pc_k = np.where(s > 0, f_k / s, r)
        pc_w = np.where(s > 0, f_w / s, 0.0)
        pc_a = np.where(s > 0, f_a / s, 0.0)
    ordering = bool(np.all(pc_k >= pc_w) and np.all(pc_w >= pc_a))
    return FamilyComparison(s, pc_k, pc_w, pc_a, f_k, f_w, f_a, ordering)
