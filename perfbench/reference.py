"""Converged reference positions x_lambda(t) for the front workloads.

An integrator of its own, which imports nothing from frontlab: it reads the
physical set-up from ``cases.py`` and solves

    u_t = u_xx + f(u),   f(s) = r s (1 - s) / (1 - ln s)^alpha   (s in (0, 1])

on a static domain and a finer grid than the workloads use.  The scheme
differs from frontlab's on purpose: Strang splitting of a pointwise RK4
reaction step around a Crank-Nicolson diffusion step (second order in time
and space; the first four diffusion steps are backward Euler, which damps the
kink of the initial data at its clamp point).  The left end reflects.  The
right end follows the far-field ODE u' = f(u) from u0(x_right), since far
ahead of the front diffusion is negligible; a pinned edge would hold the
heavy tails back.

Each case is integrated at two resolutions, the coarser one also on a
domain twice as wide.  The finer values are stored; the largest relative
differences, fine against coarse and wide against coarse, are stored with
them as the convergence evidence.

Run from the repository root (about twenty minutes on one core):

    python3 perfbench/reference.py        # rewrites perfbench/reference.json
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from scipy.linalg import lapack

from cases import CASES

OUT = Path(__file__).resolve().parent / "reference.json"
COMMAND = "python3 perfbench/reference.py"

# Domain and the two resolutions (dx divisor, dt divisor) of each case.  The
# finite-speed and algebraic domains are wider than the workloads'.  The
# wide_power level stays below x = 0.4 up to t = 0.8, so its domain is narrow
# instead, which buys the fine grid its near-step data needs: u0 falls from 1
# to 0.04 within dx/4 of the clamp point, and the error there is first order.
DOMAINS = {
    "finite_speed": (-20.0, 240.0),
    "fig7a": (-20.0, 400.0),
    "wide_power": (-20.0, 20.0),
}
RESOLUTIONS = {
    "finite_speed": ((8, 16), (16, 16)),
    "fig7a": ((8, 16), (16, 16)),
    "wide_power": ((64, 32), (128, 32)),
}
BE_START_STEPS = 4


def reaction(s, alpha, r):
    out = np.zeros_like(s)
    live = s > 0.0
    sv = s[live]
    out[live] = r * sv * (1.0 - sv) / (1.0 - np.log(sv)) ** alpha
    return out


def initial_data(case, x):
    u = np.ones_like(x)
    tail = x > 0.0
    xt = x[tail]
    if case["family"] == "sub_exponential":
        u[tail] = np.exp(-case["mu"] * xt ** case["beta"])
    elif case["family"] == "algebraic":
        u[tail] = 1.0 / (1.0 + case["scale"] * xt ** case["beta"])
    else:
        raise ValueError(f"no reference for family {case['family']!r}")
    return u


def rk4(u, h, alpha, r):
    k1 = reaction(u, alpha, r)
    k2 = reaction(u + 0.5 * h * k1, alpha, r)
    k3 = reaction(u + 0.5 * h * k2, alpha, r)
    k4 = reaction(u + h * k3, alpha, r)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class Diffusion:
    """theta-step of u_t = u_xx on nodes 0..m-1; node m is a given value."""

    def __init__(self, m, mu, theta):
        tm = theta * mu
        lower = np.full(m - 1, -tm)
        upper = np.full(m - 1, -tm)
        upper[0] = -2.0 * tm  # reflecting left end (ghost node u[-1] = u[1])
        diag = np.full(m, 1.0 + 2.0 * tm)
        *self.lu, info = lapack.dgttrf(lower, diag, upper)
        if info != 0:
            raise ArithmeticError(f"dgttrf failed with info={info}")
        self.m, self.mu, self.theta = m, mu, theta

    def step(self, u):
        m, mu, theta = self.m, self.mu, self.theta
        rhs = u[:m].copy()
        if theta < 1.0:
            lap = np.empty(m)
            lap[0] = 2.0 * (u[1] - u[0])
            lap[1:] = u[:m - 1] - 2.0 * u[1:m] + u[2:m + 1]
            rhs += (1.0 - theta) * mu * lap
        rhs[m - 1] += theta * mu * u[m]
        sol, info = lapack.dgttrs(*self.lu, rhs)
        if info != 0:
            raise ArithmeticError(f"dgttrs failed with info={info}")
        u[:m] = sol


def level_position(x, v, lam):
    """Rightmost downward crossing of level lam, interpolated linearly."""
    if v[-1] >= lam:
        raise ArithmeticError(f"level {lam} reached the right end of the domain")
    idx = np.nonzero((v[:-1] >= lam) & (v[1:] < lam))[0]
    if idx.size == 0:
        raise ArithmeticError(f"level {lam} is not reached")
    i = int(idx[-1])
    return float(x[i] + (x[i + 1] - x[i]) * (v[i] - lam) / (v[i] - v[i + 1]))


def integrate(case, dx, dt, x_left, x_right):
    """x_lambda at every checkpoint: {lam: [x(t) for t in checkpoints]}."""
    alpha, r = case["alpha"], case["r"]
    n = int(round((x_right - x_left) / dx)) + 1
    x = x_left + dx * np.arange(n)
    u = initial_data(case, x)
    mu = dt / dx ** 2
    be = Diffusion(n - 1, mu, 1.0)
    cn = Diffusion(n - 1, mu, 0.5)
    n_steps = int(round(case["t_end"] / dt))
    check_steps = {int(round(t / dt)) for t in case["checkpoints"]}
    out = {lam: [] for lam in case["lambdas"]}
    u = rk4(u, 0.5 * dt, alpha, r)
    for k in range(1, n_steps + 1):
        (be if k <= BE_START_STEPS else cn).step(u)
        if k in check_steps:
            w = rk4(u, 0.5 * dt, alpha, r)
            for lam in case["lambdas"]:
                out[lam].append(level_position(x, w, lam))
        if k < n_steps:
            u = rk4(u, dt, alpha, r)
    return out


def max_rel_diff(a, b):
    return max(abs(p - q) / abs(q) for lam in a for p, q in zip(a[lam], b[lam]))


def make_case(name):
    case = CASES[name]
    x_left, x_right = DOMAINS[name]
    (cx, ct), (fx, ft) = RESOLUTIONS[name]
    dx, dt = case["dx"], case["dt"]
    t0 = time.perf_counter()
    coarse = integrate(case, dx / cx, dt / ct, x_left, x_right)
    wide = integrate(case, dx / cx, dt / ct, x_left, 2.0 * x_right - x_left)
    fine = integrate(case, dx / fx, dt / ft, x_left, x_right)
    return {
        "domain": [x_left, x_right],
        "dx": dx / fx,
        "dt": dt / ft,
        "checkpoints": list(case["checkpoints"]),
        "x_lambda": {repr(lam): fine[lam] for lam in case["lambdas"]},
        "coarse": {"dx": dx / cx, "dt": dt / ct},
        "refinement_rel_diff": max_rel_diff(coarse, fine),
        "domain_rel_diff": max_rel_diff(wide, coarse),
        "seconds": round(time.perf_counter() - t0, 1),
    }


def main():
    cases = {}
    for name in sorted(DOMAINS):
        cases[name] = make_case(name)
        print(name, json.dumps(cases[name]), flush=True)
    data = {"command": COMMAND, "cases": cases}
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
