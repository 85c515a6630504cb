"""Reaction terms for the 1D reaction-diffusion model.

The central family is the weakly monostable one,

    f(s) = r * s * (1 - s) / (1 + |ln s|)**alpha,

whose per-capita rate sits between the logistic (KPP) rate r*(1-s) and the
degenerate Allee rate r*s**alpha*(1-s) near s = 0.  Both reference families
are provided for comparison plots, and ``verify_hypothesis_bounds`` checks
an arbitrary vectorised reaction against the two-sided per-capita envelope

    r*s*(1 - s)/(1+|ln s|)**alpha <= f(s) <= r*s/(1+|ln s|)**alpha   on (0, 1),

the paper's hypothesis with its constants K = 1 and s0 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from ._scalar import scalar_or_array
from .errors import DomainError, InputError, ParameterError

# Below this, ln(s) is not worth evaluating: the true rate is under 1e-298
# and the limit value is 0.  Also keeps subnormals out of the power kernel.
UNDERFLOW_CUTOFF = 1e-300


class ReactionKind(Enum):
    WEAKLY_MONOSTABLE = "weakly_monostable"
    KPP = "kpp"
    ALLEE = "allee"


@dataclass(frozen=True)
class ReactionParams:
    """Growth rate r and degeneracy exponent alpha."""

    r: float = 1.0
    alpha: float = 0.4

    def __post_init__(self):
        if not self.r > 0:
            raise ParameterError(f"growth rate r must be > 0, got {self.r}")
        if not self.alpha > 0:
            raise ParameterError(f"exponent alpha must be > 0, got {self.alpha}")


@dataclass(frozen=True)
class ReactionFamily:
    kind: ReactionKind
    params: ReactionParams

    def __call__(self, s):
        return eval_f(self, s)


def weakly_monostable(alpha: float, r: float = 1.0) -> ReactionFamily:
    return ReactionFamily(ReactionKind.WEAKLY_MONOSTABLE, ReactionParams(r, alpha))


def kpp(alpha: float, r: float = 1.0) -> ReactionFamily:
    return ReactionFamily(ReactionKind.KPP, ReactionParams(r, alpha))


def allee(alpha: float, r: float = 1.0) -> ReactionFamily:
    return ReactionFamily(ReactionKind.ALLEE, ReactionParams(r, alpha))


def _rate_array(kind: ReactionKind, p: ReactionParams, s: np.ndarray,
                lo: float) -> np.ndarray:
    """Reaction rate on a validated 1-D array in [0, 1] whose minimum is ``lo``.

    Each family is one formula over the whole array; the log is taken of s
    raised to the cutoff, so no log(0) is evaluated.  Cells at or below
    ``UNDERFLOW_CUTOFF`` are set to 0 afterwards, when ``lo`` shows any.
    """
    if kind is ReactionKind.KPP:
        return p.r * s * (1.0 - s)
    if kind is ReactionKind.WEAKLY_MONOSTABLE:
        # r*s*(1 - s) / (1 - ln s)**alpha, operation by operation in two
        # arrays; |ln s| = -ln s on (0, 1], and at s = 1 the factor (1 - s)
        # gives 0.
        out = np.multiply(s, p.r)
        den = np.subtract(1.0, s)
        out *= den
        np.maximum(s, UNDERFLOW_CUTOFF, out=den)
        np.log(den, out=den)
        np.subtract(1.0, den, out=den)
        den **= p.alpha
        out /= den
    elif kind is ReactionKind.ALLEE:
        out = p.r * s ** (p.alpha + 1.0) * (1.0 - s)
    else:  # pragma: no cover - enum is closed
        raise ParameterError(f"unknown reaction kind {kind}")
    if lo <= UNDERFLOW_CUTOFF:
        out[s <= UNDERFLOW_CUTOFF] = 0.0
    return out


def eval_f(family: ReactionFamily, s):
    """Evaluate the reaction rate at state value(s) ``s`` in [0, 1].

    Accepts scalars or arrays.  Raises ``DomainError`` for values outside
    [0, 1].  Exactly 0 is returned at s = 0 and s = 1 (continuous limits;
    no logarithm of zero is ever taken).  An array result is a new array,
    which the caller may overwrite.
    """
    # a 1-D float64 array, the solver's state, needs no conversion
    vector = type(s) is np.ndarray and s.dtype == np.float64 and s.ndim == 1
    arr = s if vector else np.asarray(s, dtype=float)
    if not arr.size:
        return np.zeros_like(arr)
    # the reductions nanmin/nanmax make, without their Python wrappers
    lo, hi = np.fmin.reduce(arr, axis=None), np.fmax.reduce(arr, axis=None)
    if lo < 0.0 or hi > 1.0:
        bad = arr[(arr < 0.0) | (arr > 1.0)].flat[0]
        raise DomainError(f"state value {bad} outside [0, 1]")
    if vector:
        return _rate_array(family.kind, family.params, arr, lo)
    # 1-D, as arithmetic on a 0-d array gives numpy scalars, which cannot be masked
    out = _rate_array(family.kind, family.params, arr.reshape(-1), lo)
    return scalar_or_array(arr, out.reshape(arr.shape))


def percapita_bound(params: ReactionParams, s: np.ndarray) -> np.ndarray:
    """Upper envelope r*s/(1+|ln s|)**alpha for s strictly inside (0, 1)."""
    return params.r * s / (1.0 - np.log(s)) ** params.alpha


@dataclass(frozen=True)
class BoundViolation:
    s: float
    f_value: float
    bound: float


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the two-sided per-capita bound check."""

    upper_ok: bool
    lower_ok: bool
    n_checked: int
    upper_violation: BoundViolation | None = None
    lower_violation: BoundViolation | None = None

    @property
    def passed(self) -> bool:
        return self.upper_ok and self.lower_ok


def verify_hypothesis_bounds(params: ReactionParams,
                             f: Callable[[np.ndarray], np.ndarray],
                             grid: Sequence[float]) -> HypothesisReport:
    """Check ``f`` against the per-capita envelope on sample points in (0, 1).

    ``f`` maps the whole sample array to its rates in one call.  Both
    bounds are tested at every grid point.  On failure the report carries
    the worst witness (largest excess / deficit) with both sides of the
    inequality.
    """
    s = np.asarray(grid, dtype=float)
    if s.size == 0:
        raise InputError("empty sample grid")
    if np.any(s <= 0.0) or np.any(s >= 1.0):
        raise InputError("sample points must lie strictly inside (0, 1)")

    fs = np.asarray(f(s), dtype=float)

    upper = percapita_bound(params, s)
    excess = fs - upper
    upper_ok = bool(np.all(excess <= 0.0))
    upper_witness = None
    if not upper_ok:
        i = int(np.argmax(excess))
        upper_witness = BoundViolation(float(s[i]), float(fs[i]), float(upper[i]))

    # same evaluation order as the canonical rate, which meets it exactly
    lower = params.r * s * (1.0 - s) / (1.0 - np.log(s)) ** params.alpha
    deficit = lower - fs
    lower_ok = bool(np.all(deficit <= 0.0))
    lower_witness = None
    if not lower_ok:
        j = int(np.argmax(deficit))
        lower_witness = BoundViolation(float(s[j]), float(fs[j]), float(lower[j]))

    return HypothesisReport(upper_ok, lower_ok, int(s.size),
                            upper_witness, lower_witness)


def log_sample_grid(n: int = 10_000, lo: float = 1e-12, hi: float = 1.0 - 1e-12) -> np.ndarray:
    """Log-spaced sample grid in (0, 1) used by the default bound checks."""
    if n < 2:
        raise InputError("need at least 2 grid points")
    return np.geomspace(lo, hi, n)


@dataclass(frozen=True)
class FamilyComparison:
    """Per-capita and absolute rates of the three families on a common grid."""

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

    For every sample in (0, 1) the per-capita ordering KPP >= weak >= Allee
    holds (s*(1+|ln s|) < 1 there); ``ordering_ok`` records the sampled check.
    """
    s = np.asarray(s_values, dtype=float)
    f_k = eval_f(ReactionFamily(ReactionKind.KPP, params), s)
    f_w = eval_f(ReactionFamily(ReactionKind.WEAKLY_MONOSTABLE, params), s)
    f_a = eval_f(ReactionFamily(ReactionKind.ALLEE, params), s)
    with np.errstate(divide="ignore", invalid="ignore"):
        pc_k = np.where(s > 0, f_k / s, params.r)
        pc_w = np.where(s > 0, f_w / s, 0.0)
        pc_a = np.where(s > 0, f_a / s, 0.0)
    ordering = bool(np.all(pc_k >= pc_w) and np.all(pc_w >= pc_a))
    return FamilyComparison(s, pc_k, pc_w, pc_a, f_k, f_w, f_a, ordering)
