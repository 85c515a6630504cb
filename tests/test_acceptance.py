"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with output visible:  pytest -s tests/test_acceptance.py

Each test measures against its published anchor at the stated tolerance.
Three rate anchors (finite-speed slope 1.9, and the two acceleration
exponents at horizons t<=10) are not reachable by a validated solver at the
stated horizons; those asserts carry the measured evidence in their failure
messages and are left to fail rather than retuned.
"""

import math
import time

import numpy as np
import pytest

from frontlab.envelope import Regime, classify_regime, predict_level_envelope
from frontlab.initial_data import logarithmic, sub_exponential
from frontlab.measurement import fit_linear, select_model
from frontlab.reaction import weakly_monostable
from frontlab.solver import SimulationConfig, run
from frontlab.verify import (sandwich_config, verify_convergence,
                             verify_envelope, verify_hypothesis,
                             verify_sandwich)

ALPHA = 0.4
R = 1.0


def report(number, label, clauses):
    """Print the criterion line and assert every clause."""
    ok = all(passed for _, passed in clauses)
    detail = "; ".join(f"{text} [{'ok' if passed else 'FAIL'}]"
                       for text, passed in clauses)
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


@pytest.fixture(scope="module")
def finite_speed_run():
    config = SimulationConfig(
        reaction=weakly_monostable(alpha=ALPHA),
        data=sub_exponential(mu=5.0, beta=1.0),
        dx=0.05, dt=0.01, t_end=30.0, lambdas=(0.5,))
    return run(config)


@pytest.fixture(scope="module")
def power_run():
    config = SimulationConfig(
        reaction=weakly_monostable(alpha=ALPHA),
        data=sub_exponential(mu=5.0, beta=0.2),
        dx=0.05, dt=0.01, t_end=10.0, lambdas=(0.5,))
    return run(config)


@pytest.fixture(scope="module")
def exp_power_run():
    return run(sandwich_config())  # algebraic beta=1, scale=100, t_end=8


def test_criterion_1_hypothesis_bounds():
    t0 = time.perf_counter()
    checks = verify_hypothesis(alphas=(0.2, 0.4, 0.6), n_grid=10_000)
    elapsed = time.perf_counter() - t0
    clauses = [(c.name, c.passed) for c in checks]
    clauses.append((f"runtime {elapsed:.3f}s < 1s", elapsed < 1.0))
    report(1, "hypothesis bounds", clauses)


def test_criterion_2_envelope_residuals():
    t0 = time.perf_counter()
    checks = verify_envelope()
    elapsed = time.perf_counter() - t0
    clauses = [(f"{c.name} {c.measured:.3g} < {c.bound:.0e}", c.passed)
               for c in checks]
    clauses.append((f"runtime {elapsed:.2f}s < 5s", elapsed < 5.0))
    report(2, "envelope residuals", clauses)


def test_criterion_3_finite_speed(finite_speed_run):
    trace = finite_speed_run.traces[0.5]
    fit, _ = select_model(trace, ALPHA, R)
    slope = fit_linear(trace).coeffs["a"]
    early = fit_linear(trace, (10.0, 20.0)).coeffs["a"]
    late = fit_linear(trace, (20.0, 30.0)).coeffs["a"]
    stability = abs(early - late) / abs(late)
    clauses = [
        (f"select_model -> {fit.model} (want linear)", fit.model == "linear"),
        (f"slope {slope:.4f} in [1.7, 2.1]; converged continuum value is "
         f"~1.374 (dx/dt refinement and an independent explicit RK2 oracle "
         f"agree to 3 digits; slope plateaus at 1.3736 by t=120) and the "
         f"comparison principle caps fronts from these data, which decay like "
         f"exp(-5x), faster than exp(-sqrt(sup f(s)/s) x), at "
         f"2*sqrt(sup f(s)/s) = 1.494, below the published fit 1.9 (slower "
         f"tails are not capped: at beta = 1/(alpha+1) fronts run at 3.67 for "
         f"mu = 0.5 and 5.95 for mu = 0.35)",
         1.7 <= slope <= 2.1),
        (f"window slopes {early:.4f}/{late:.4f} differ {stability:.2%} < 5%",
         stability < 0.05),
    ]
    report(3, "finite-speed rate", clauses)


def test_criterion_4_power_acceleration(power_run):
    trace = power_run.traces[0.5]
    fit, _ = select_model(trace, ALPHA, R)
    target = 1.0 / 0.28
    rel = abs(fit.exponent - target) / target if fit.model == "power" else math.inf
    clauses = [
        (f"select_model -> {fit.model} (want power)", fit.model == "power"),
        (f"exponent {fit.exponent:.4f} within 15% of {target:.4f}; at t<=10 "
         f"the plateau-driven front (speed ~1.37) still leads the heavy-tail "
         f"growth mechanism, so the trace shows local slope ~1.3; the same "
         f"solver measures p=3.82 on the window [20,30] of a t_end=30 run, "
         f"inside the 15% band",
         rel <= 0.15),
    ]
    report(4, "power acceleration", clauses)


def test_criterion_5_exp_power_acceleration(exp_power_run):
    trace = exp_power_run.traces[0.5]
    fit, _ = select_model(trace, ALPHA, R)
    rel = abs(fit.exponent - 1.0) if fit.model == "exp_power" else math.inf
    clauses = [
        (f"select_model -> {fit.model} (want exp_power); at t_end=8 the "
         f"trace is still in the traveling/crossover regime (an independent "
         f"RK2 oracle reproduces the same positions to 0.2%); the same "
         f"solver at t_end=20 selects exp_power with slope 1.16",
         fit.model == "exp_power"),
        (f"slope {fit.exponent:.4f} within 15% of 1/beta = 1", rel <= 0.15),
    ]
    report(5, "exp-power acceleration", clauses)


def test_criterion_6_regime_boundary():
    clauses = []
    for alpha in (0.2, 0.4, 0.6):
        threshold = 1.0 / (alpha + 1.0)
        for beta in (0.1, 0.2, 0.3, 1.0):
            cls = classify_regime(alpha, sub_exponential(mu=5.0, beta=beta))
            want = Regime.FINITE_SPEED if beta >= threshold else Regime.POWER
            clauses.append((f"a={alpha} b={beta} -> {cls.regime.value}",
                            cls.regime is want))
    for alpha, thr in ((0.2, 5.0 / 6.0), (0.4, 5.0 / 7.0), (0.6, 5.0 / 8.0)):
        at = classify_regime(alpha, sub_exponential(mu=5.0, beta=thr))
        below = classify_regime(alpha, sub_exponential(mu=5.0, beta=np.nextafter(thr, 0.0)))
        clauses.append((f"threshold {thr:.4g} at alpha={alpha} boundary",
                        at.regime is Regime.FINITE_SPEED
                        and below.regime is Regime.POWER))
    report(6, "regime boundary", clauses)


def test_criterion_7_sandwich(exp_power_run):
    checks = verify_sandwich(result=exp_power_run)
    clauses = []
    for c in checks:
        text = f"{c.name}: {c.measured:.4g} vs {c.bound:.4g}"
        if "rate_bracket" in c.name and not c.passed:
            text += ("; the eps=0.3 bracket drops the barrier time shifts and "
                     "level constants, which dominate until t ~ 8 (the bracket "
                     "holds at t=8 but not over [4,8); the same run's front "
                     "does satisfy the calibrated barrier bounds above)")
        clauses.append((text, c.passed))
    report(7, "barrier sandwich", clauses)


def test_criterion_8_solver_convergence():
    t0 = time.perf_counter()
    checks = verify_convergence()
    elapsed = time.perf_counter() - t0
    clauses = [(f"{c.name} measured {c.measured:.3g}", c.passed) for c in checks]
    clauses.append((f"runtime {elapsed:.1f}s < 30s", elapsed < 30.0))
    report(8, "solver convergence", clauses)


def test_criterion_9_order_and_maximum_principle(finite_speed_run, power_run,
                                                 exp_power_run):
    shared = dict(reaction=weakly_monostable(alpha=ALPHA), dx=0.05, dt=0.01,
                  t_end=3.0, x_left=-10.0, x_right=30.0, growth_margin=None,
                  snapshot_times=(1.0, 2.0, 3.0), lambdas=(0.5,))
    res_small = run(SimulationConfig(data=sub_exponential(mu=5.0, beta=1.0), **shared))
    res_big = run(SimulationConfig(data=sub_exponential(mu=4.0, beta=1.0), **shared))
    order_gap = max(float(np.max(a.values - b.values))
                    for a, b in zip(res_small.snapshots, res_big.snapshots))
    mono_gap = max(float(np.max(np.diff(s.values))) for s in res_small.snapshots)
    clamp_total = (finite_speed_run.diagnostics.clamp_events
                   + power_run.diagnostics.clamp_events
                   + exp_power_run.diagnostics.clamp_events
                   + res_small.diagnostics.clamp_events
                   + res_big.diagnostics.clamp_events)
    clauses = [
        (f"ordered data stay ordered (gap {order_gap:.2e} <= 1e-8)",
         order_gap <= 1e-8),
        (f"monotone data stay monotone (gap {mono_gap:.2e} <= 1e-10)",
         mono_gap <= 1e-10),
        (f"zero clamp events across acceptance runs (got {clamp_total})",
         clamp_total == 0),
    ]
    report(9, "order preservation and maximum principle", clauses)


def test_criterion_10_logarithmic_regime_closed_form():
    beta = 2.0
    spec = logarithmic(beta)
    cls = classify_regime(ALPHA, spec)
    clauses = [
        (f"classified {cls.regime.value}", cls.regime is Regime.LOG_EXP),
        ("ln x ~ exp(outer*(r*(a+1)*t)**inner) with outer=1/beta, inner=1/(a+1)",
         cls.outer_factor == pytest.approx(1.0 / beta)
         and cls.inner_exponent == pytest.approx(1.0 / (ALPHA + 1.0))),
    ]
    # symbolic-substitution oracle: U0(e**-y) = exp(exp(y/beta)) exactly
    worst = 0.0
    for t in np.linspace(0.1, 2.0, 20):
        lo, hi = predict_level_envelope(ALPHA, R, spec, 0.0, float(t))
        y = (R * (ALPHA + 1.0) * t) ** (1.0 / (ALPHA + 1.0))
        oracle = math.exp(math.exp(y / beta))
        worst = max(worst, abs(lo - oracle) / oracle, abs(hi - oracle) / oracle)
    clauses.append((f"composition matches the substitution oracle at 20 times "
                    f"(worst rel {worst:.2e})", worst < 1e-10))
    report(10, "logarithmic regime closed form", clauses)
