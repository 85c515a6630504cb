"""Verification suites behind the ``verify`` CLI subcommand.

Each suite returns a list of named checks with the measured value and the
bound it must satisfy; the acceptance tests drive the same functions.

Subjects:
    hypothesis   two-sided per-capita bounds of the default reaction family
    envelope     growth-ODE residual and spatial-derivative consistency
    sandwich     numerical solution between calibrated barriers + rate bracket
    convergence  pure-diffusion accuracy against the exact spreading Gaussian
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelope import (OdeProfile, calibrate_subsolution,
                       calibrate_supersolution_shift, envelope_derivatives,
                       ode_envelope, plateau_edge, predict_level_envelope,
                       subsolution, supersolution)
from .errors import InputError
from .initial_data import algebraic, sub_exponential
from .reaction import (ReactionParams, log_sample_grid, weakly_monostable,
                       verify_hypothesis_bounds)
from .solver import SimulationConfig, run

SUBJECTS = ("hypothesis", "envelope", "sandwich", "convergence")


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (f"{status}  {self.name}: measured {self.measured:.6g} "
                f"vs bound {self.bound:.6g}{extra}")


def verify_hypothesis(alphas=(0.2, 0.4, 0.6), n_grid: int = 10_000) -> list[Check]:
    """Per-capita bounds on a log grid in [1e-12, 1 - 1e-12], zero violations."""
    grid = log_sample_grid(n_grid)
    checks = []
    for alpha in alphas:
        params = ReactionParams(r=1.0, alpha=alpha)
        family = weakly_monostable(alpha=alpha)
        report = verify_hypothesis_bounds(params, family, grid)
        n_bad = (0 if report.upper_ok else 1) + (0 if report.lower_ok else 1)
        checks.append(Check(f"hypothesis_bounds[alpha={alpha}]", report.passed,
                            measured=float(n_bad), bound=0.0,
                            detail=f"{report.n_checked} samples"))
    return checks


def _envelope_profiles():
    return [
        ("subexp_beta0.2", OdeProfile(1.0, 0.4, sub_exponential(mu=5.0, beta=0.2))),
        ("algebraic_beta1", OdeProfile(1.0, 0.4, algebraic(beta=1.0, scale=100.0))),
    ]


def _tail_samples(profile, n_t=10, n_x=110):
    """(t, x) tail points, x spread geometrically from just past the edge."""
    pts = []
    for t in np.linspace(0.5, 10.0, n_t):
        lo = max(plateau_edge(profile, t + 1e-3), profile.data.clamp_point)
        xs = np.geomspace(max(lo * 1.01, lo + 1e-6), max(200.0, lo * 50.0), n_x)
        pts.append((float(t), xs))
    return pts


def verify_envelope() -> list[Check]:
    """ODE residual < 1e-6 and derivative consistency < 1e-5, both relative."""
    checks = []
    ht = 1e-4
    for label, profile in _envelope_profiles():
        worst_t = 0.0
        worst_x = 0.0
        worst_xx = 0.0
        n_points = 0
        for t, xs in _tail_samples(profile):
            w = ode_envelope(profile, t, xs)
            wp = ode_envelope(profile, t + ht, xs)
            wm = ode_envelope(profile, t - ht, xs)
            L = 1.0 - np.log(w)
            rate = profile.rho * w / L ** profile.alpha
            resid = np.abs((wp - wm) / (2.0 * ht) - rate) / rate
            worst_t = max(worst_t, float(resid.max()))

            hx = 1e-3 * xs
            wx, wxx = envelope_derivatives(profile, t, xs)
            wr = ode_envelope(profile, t, xs + hx)
            wl = ode_envelope(profile, t, xs - hx)
            fd_x = (wr - wl) / (2.0 * hx)
            fd_xx = (wr - 2.0 * w + wl) / hx ** 2
            worst_x = max(worst_x, float(np.max(np.abs(fd_x - wx) / np.abs(wx))))
            worst_xx = max(worst_xx, float(np.max(np.abs(fd_xx - wxx) / np.abs(wxx))))
            n_points += xs.size
        checks.append(Check(f"ode_residual[{label}]", worst_t < 1e-6, worst_t, 1e-6,
                            detail=f"{n_points} tail points"))
        checks.append(Check(f"w_x_consistency[{label}]", worst_x < 1e-5, worst_x, 1e-5))
        checks.append(Check(f"w_xx_consistency[{label}]", worst_xx < 1e-5, worst_xx, 1e-5))
    return checks


def sandwich_config() -> SimulationConfig:
    return SimulationConfig(
        reaction=weakly_monostable(alpha=0.4),
        data=algebraic(beta=1.0, scale=100.0),
        dx=0.05,
        dt=0.01,
        t_end=8.0,
        snapshot_times=(2.0, 4.0, 6.0, 8.0),
        lambdas=(0.5,),
    )


def verify_sandwich(result=None, tol: float = 5e-2) -> list[Check]:
    """Barrier ordering v - tol <= u <= m + tol and the rate bracket on x_1/2."""
    config = sandwich_config()
    if result is None:
        result = run(config)
    family = config.reaction
    r = family.params.r
    alpha = family.params.alpha
    x_max = float(result.snapshots[-1].grid[-1])
    t_grid = [s.t for s in result.snapshots]

    up = OdeProfile(r + 0.25, alpha, config.data)
    shift = calibrate_supersolution_shift(up, family, t_grid, x_max)
    low = OdeProfile(0.875 * r, alpha, config.data)
    sub_params = calibrate_subsolution(low, family, t_grid, x_max)

    worst_upper = -math.inf
    worst_lower = -math.inf
    for snap in result.snapshots:
        m = supersolution(up, shift, snap.t, snap.grid)
        v = subsolution(sub_params, low, snap.t, snap.grid)
        worst_upper = max(worst_upper, float(np.max(snap.values - m)))
        worst_lower = max(worst_lower, float(np.max(v - snap.values)))
    checks = [
        Check("upper_barrier: max(u - m)", worst_upper <= tol, worst_upper, tol,
              detail=f"shift {shift}"),
        Check("lower_barrier: max(v - u)", worst_lower <= tol, worst_lower, tol,
              detail=f"M {sub_params.M}"),
    ]

    trace = result.traces[0.5]
    sel = trace.times >= 4.0
    inside = True
    margin = 0.0
    for t, x in zip(trace.times[sel], trace.positions[sel]):
        x_lo, x_hi = predict_level_envelope(alpha, r, config.data, 0.3 * r, t)
        inside = inside and (x_lo <= x <= x_hi)
        margin = max(margin, (x_lo - x) / x, (x - x_hi) / x)
    checks.append(Check("rate_bracket[eps=0.3r, t>=4]", inside, margin, 0.0,
                        detail=f"{int(sel.sum())} trace samples"))
    return checks


def _heat_config(dx: float, dt: float, t_end: float) -> SimulationConfig:
    return SimulationConfig(
        reaction=None,
        data=sub_exponential(mu=5.0, beta=1.0),  # placeholder; values overridden
        dx=dx,
        dt=dt,
        t_end=t_end,
        x_left=-20.0,
        x_right=20.0,
        snapshot_times=(t_end,),
        growth_margin=None,
        floor=0.0,
    )


def _gaussian(x, t, amp=0.8, sigma2=1.0):
    s2 = sigma2 + 2.0 * t
    return amp * math.sqrt(sigma2 / s2) * np.exp(-x ** 2 / (2.0 * s2))


def heat_kernel_error(dx: float, dt: float, t_end: float = 0.25) -> float:
    """L-infinity error of the pure-diffusion run against the exact Gaussian."""
    config = _heat_config(dx, dt, t_end)
    grid = config.x_left + dx * np.arange(int(round((config.x_right - config.x_left) / dx)) + 1)
    result = run(config, initial_values=_gaussian(grid, 0.0))
    snap = result.snapshots[-1]
    return float(np.max(np.abs(snap.values - _gaussian(snap.grid, snap.t))))


def verify_convergence() -> list[Check]:
    """Heat-kernel accuracy O(dt + dx^2) and clean second-order spatial decay."""
    err = heat_kernel_error(dx=0.05, dt=1e-3)
    bound = 1.0 * (1e-3 + 0.05 ** 2)
    checks = [Check("heat_kernel_error[dx=0.05,dt=1e-3]", err < bound, err, bound)]

    coarse = heat_kernel_error(dx=0.2, dt=2e-5)
    fine = heat_kernel_error(dx=0.1, dt=2e-5)
    ratio = coarse / fine
    checks.append(Check("spatial_order[err(2dx)/err(dx)]",
                        3.2 <= ratio <= 4.8, ratio, 4.0,
                        detail=f"coarse {coarse:.3e}, fine {fine:.3e}"))
    return checks


def run_verification(subject: str, log=print):
    """Run one suite; returns (checks, all_passed) and prints per-check lines."""
    if subject == "hypothesis":
        checks = verify_hypothesis()
    elif subject == "envelope":
        checks = verify_envelope()
    elif subject == "sandwich":
        checks = verify_sandwich()
    elif subject == "convergence":
        checks = verify_convergence()
    else:
        raise InputError(f"unknown subject {subject!r}; choose from {', '.join(SUBJECTS)}")
    for check in checks:
        log(check.line())
    return checks, all(c.passed for c in checks)
