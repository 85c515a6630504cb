"""The benchmark's workloads: their operations and the checks on their outputs.

Every operation enters frontlab through a public entry point: ``cli.main``
(``simulate`` and ``preset``), ``verify.run_verification`` or ``solver.run``.
Every check compares an output with a computation made here or with a
property the method must have, never with a stored copy of frontlab's output:

* front runs: no clamp events, no truncation, snapshots in [0, 1] and
  non-increasing in x, and x_lambda within one grid cell of the converged
  reference of ``reference.json`` (made by ``reference.py``);
* finite speed: the fitted front speed at the end of the fit window is at
  most the comparison cap 2 sqrt(sup f(s)/s), computed here;
* ``verify sandwich``: its upper and lower barrier checks hold.  The suite
  exits 1 by design, because its ``rate_bracket`` check is a standing
  acceptance failure, so the exit code is not used;
* heat runs: the L-infinity error against the exact spreading Gaussian,
  computed here, is within dt + dx^2, and halving dx divides it by 3.2 to 4.8;
* bundles: every CSV re-parses to the exact doubles of the run, and
  ``fits.txt`` has one block per tracked level.
"""

from __future__ import annotations

import json
import math
from itertools import repeat
from pathlib import Path

import numpy as np

from frontlab import cli, presets, solver, verify
from frontlab.initial_data import sub_exponential

from cases import CASES

# the elimination rounds plateau values u ~ 1 by an ulp either way, so "non-
# increasing" allows rises below the solver's own clamp tolerance
MONOTONE_TOL = 1e-12
REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


class Workload:
    """``ops`` is a list of (name, function(round_dir, tracer)) in run order.

    ``prepare`` runs once per benchmark run, before any timing.  ``check``
    gets the ops' return values by name and every ``solver.run`` result of
    the round in call order; it returns the problems found and ``ref_err``.
    """

    name: str
    ops: list

    def prepare(self, work_dir: Path) -> None:
        pass

    def check(self, outputs: dict, results: list, round_dir: Path):
        raise NotImplementedError


# --- checks shared by the front workloads ---------------------------------

def config_mismatch(config, case) -> list[str]:
    """Fields of ``config`` that differ from the reference case."""
    data = config.data
    pairs = {
        "alpha": (config.reaction.params.alpha, case["alpha"]),
        "r": (config.reaction.params.r, case["r"]),
        "family": (data.family.value, case["family"]),
        "beta": (data.beta, case["beta"]),
        "mu": (data.mu, case.get("mu")),
        "scale": (data.scale, case.get("scale")),
        "dx": (config.dx, case["dx"]),
        "dt": (config.dt, case["dt"]),
        "t_end": (config.t_end, case["t_end"]),
        "x_left": (config.x_left, case["x_left"]),
        "x_right": (config.x_right, case["x_right"]),
        "lambdas": (tuple(config.lambdas), tuple(case["lambdas"])),
    }
    return [f"{key}: runs {got!r}, reference made for {want!r}"
            for key, (got, want) in pairs.items() if got != want]


def front_problems(label, result) -> list[str]:
    problems = []
    diag = result.diagnostics
    if diag.clamp_events:
        problems.append(f"{label}: {diag.clamp_events} clamp events")
    if diag.truncated:
        problems.append(f"{label}: truncated at t={diag.truncation_time}")
    for snap in result.snapshots:
        v = snap.values
        if v.min() < 0.0 or v.max() > 1.0:
            problems.append(f"{label}: snapshot t={snap.t} leaves [0, 1]")
        if np.any(np.diff(v) > MONOTONE_TOL):
            problems.append(f"{label}: snapshot t={snap.t} increases in x")
    return problems


def reference_error(label, case_name, result):
    """(problems, largest relative error) of x_lambda at the checkpoints."""
    ref = REFERENCE["cases"][case_name]
    problems = config_mismatch(result.config, CASES[case_name])
    if problems:
        return [f"{label}: {p}" for p in problems], math.inf
    dx, dt = result.config.dx, result.config.dt
    worst = 0.0
    for lam_key, ref_x in ref["x_lambda"].items():
        trace = result.traces[float(lam_key)]
        for t, x_ref in zip(ref["checkpoints"], ref_x):
            i = int(np.argmin(np.abs(trace.times - t)))
            if abs(trace.times[i] - t) > 0.5 * dt:
                problems.append(f"{label}: no trace sample at t={t}")
                continue
            err = abs(trace.positions[i] - x_ref)
            if err > dx:
                problems.append(f"{label}: x_{lam_key}({t}) = {trace.positions[i]!r} "
                                f"is more than dx from the reference {x_ref!r}")
            worst = max(worst, err / abs(x_ref))
    return problems, worst


def _csv_rows(path: Path, header: str):
    """The rows of a CSV file as lists of strings, streamed; None for a bad header."""
    with open(path, encoding="ascii") as fh:
        if fh.readline() != header + "\n":
            yield None
            return
        for line in fh:
            yield line.rstrip("\n").split(",")


def _rows_match(rows, expected) -> bool:
    """True when ``rows`` yields one row per tuple of ``expected``, each
    parsing to exactly its doubles.  Both are consumed a row at a time, so
    the check holds no copy of a bundle in memory."""
    for want in expected:
        row = next(rows, None)
        if row is None or len(row) != len(want) or any(
                float(text) != value for text, value in zip(row, want)):
            return False
    return True


def bundle_problems(label, bundle: Path, result) -> list[str]:
    problems = []
    rows = _csv_rows(bundle / "snapshots.csv", "t,x,u")
    for snap in result.snapshots:
        if not _rows_match(rows, zip(repeat(float(snap.t)), snap.grid, snap.values)):
            problems.append(f"{label}: snapshots.csv does not re-parse to snapshot t={snap.t}")
            break
    else:
        if next(rows, None) is not None:
            problems.append(f"{label}: snapshots.csv has extra rows")

    levels = {float(p.name[len("trace_lambda_"):-len(".csv")]): p
              for p in bundle.glob("trace_lambda_*.csv")}
    if set(levels) != set(result.traces):
        problems.append(f"{label}: trace files for {sorted(levels)}, "
                        f"levels tracked {sorted(result.traces)}")
    for lam, path in levels.items():
        trace = result.traces.get(lam)
        if trace is None:
            continue
        rows = _csv_rows(path, "t,x_lambda")
        if not _rows_match(rows, zip(trace.times, trace.positions)) or next(rows, None) is not None:
            problems.append(f"{label}: {path.name} does not re-parse to the trace")

    labels = sorted(label for label, _ in fit_blocks(bundle / "fits.txt"))
    want = sorted(f"lambda_{lam!r}" for lam in result.traces)
    if labels != want:
        problems.append(f"{label}: fits.txt blocks {labels}, want {want}")
    return problems


def fit_blocks(path: Path) -> list[tuple[str, dict[str, str]]]:
    """(label, {key: value}) for each ``[label]`` block of a fit report."""
    blocks: list[tuple[str, dict[str, str]]] = []
    for line in path.read_text(encoding="ascii").splitlines():
        if line.startswith("[") and line.endswith("]"):
            blocks.append((line[1:-1], {}))
        elif " = " in line and blocks:
            key, value = line.split(" = ", 1)
            blocks[-1][1][key] = value
    return blocks


def fitted_speed(block: dict[str, str]) -> float:
    """d/dt of the fitted rate law at the end of its fit window."""
    model = block["model"]
    num = {k: float(v) for k, v in block.items() if k not in ("model", "classification")}
    t = num["window_end"]
    if model == "linear":
        return num["a"]
    if model == "power":
        return num["c"] * num["p"] * t ** (num["p"] - 1.0)
    a1 = num["alpha"] + 1.0
    s = (num["r"] * a1 * t) ** (1.0 / a1)
    ds_dt = (num["r"] * a1) ** (1.0 / a1) * t ** (1.0 / a1 - 1.0) / a1
    return num["c"] * num["slope"] * math.exp(num["slope"] * s) * ds_dt


def speed_cap(alpha: float, r: float) -> float:
    """2 sqrt(sup f(s)/s) for f(s) = r s (1-s) / (1 + |ln s|)^alpha, alpha > 0.

    With s = exp(-y), f(s)/s = r g(y), g(y) = (1 - e^-y) / (1 + y)^alpha, and
    g'(y) = 0 exactly where (1 + y) / (e^y - 1) = alpha.  The left side falls
    strictly from infinity to 0, so that root is g's only maximum.  Plain
    bisection finds it: importing scipy.optimize instead would add about
    45 MB to the peak memory the benchmark reports.
    """
    lo, hi = 0.0, 700.0
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if (1.0 + mid) > alpha * math.expm1(mid):
            lo = mid
        else:
            hi = mid
    y = 0.5 * (lo + hi)
    return 2.0 * math.sqrt(r * -math.expm1(-y) / (1.0 + y) ** alpha)


# --- workloads -------------------------------------------------------------

def _config_text(case) -> str:
    data_keys = "".join(f"{key} = {case[key]!r}\n" for key in ("mu", "scale") if key in case)
    return (
        f"[reaction]\nalpha = {case['alpha']!r}\nr = {case['r']!r}\n\n"
        f"[initial_data]\nfamily = {case['family']}\nbeta = {case['beta']!r}\n{data_keys}\n"
        f"[grid]\ndx = {case['dx']!r}\nx_left = {case['x_left']!r}\n"
        f"x_right = {case['x_right']!r}\n\n"
        f"[time]\ndt = {case['dt']!r}\nt_end = {case['t_end']!r}\n"
        f"snapshot_times = {', '.join(repr(t) for t in case['checkpoints'])}\n\n"
        f"[measurement]\nlambdas = {', '.join(repr(l) for l in case['lambdas'])}\n"
    )


class Simulate(Workload):
    """``frontlab simulate`` on a config file written from a reference case."""

    def __init__(self, name, check_speed_cap):
        self.name = name
        self.case = CASES[name]
        self.check_speed_cap = check_speed_cap
        self.ops = [("simulate", self._simulate)]

    def prepare(self, work_dir):
        self.config_path = work_dir / f"{self.name}.cfg"
        self.config_path.write_text(_config_text(self.case), encoding="ascii")
        if self.check_speed_cap:
            self.cap = speed_cap(self.case["alpha"], self.case["r"])

    def _simulate(self, round_dir, tracer):
        argv = ["simulate", str(self.config_path), "--out", str(round_dir / self.name)]
        return tracer.call("cli.main", cli.main, (argv,))

    def check(self, outputs, results, round_dir):
        if outputs["simulate"] != cli.EXIT_OK:
            return [f"simulate exited {outputs['simulate']}"], math.inf
        if len(results) != 1:
            return [f"simulate made {len(results)} runs, want 1"], math.inf
        result = results[0]
        problems = front_problems(self.name, result)
        bundle = round_dir / self.name
        problems += bundle_problems(self.name, bundle, result)
        if self.check_speed_cap:
            for label, block in fit_blocks(bundle / "fits.txt"):
                speed = fitted_speed(block)
                if not speed <= self.cap:
                    problems.append(f"{label}: fitted speed {speed!r} above the cap {self.cap!r}")
        ref_problems, ref_err = reference_error(self.name, self.name, result)
        return problems + ref_problems, ref_err


class AlgebraicSweep(Workload):
    """``frontlab preset`` fig6, fig7, fig8 (nine panels) and ``verify sandwich``."""

    name = "algebraic_sweep"
    figures = ("fig6", "fig7", "fig8")

    def __init__(self):
        self.ops = [(fig, self._preset(fig)) for fig in self.figures]
        self.ops.append(("sandwich", self._sandwich))

    @staticmethod
    def _preset(fig):
        def op(round_dir, tracer):
            return tracer.call("cli.main", cli.main, (["preset", fig, "--out", str(round_dir)],))
        return op

    @staticmethod
    def _sandwich(round_dir, tracer):
        checks, _ = tracer.call("verify.run_verification", verify.run_verification,
                                ("sandwich",), {"log": lambda line: None})
        return checks

    def check(self, outputs, results, round_dir):
        problems = [f"preset {fig} exited {outputs[fig]}"
                    for fig in self.figures if outputs[fig] != cli.EXIT_OK]
        panels = [name for fig in self.figures for name in presets.PRESETS[fig].members]
        if len(results) != len(panels) + 1:
            problems.append(f"{len(results)} runs, want {len(panels) + 1}")
        for i, result in enumerate(results):
            problems += front_problems(f"run {i}", result)
        for name in panels:
            config = presets.PRESETS[name].config
            match = [r for r in results if r.config == config]
            if not match:
                problems.append(f"{name}: no run")
                continue
            bundle = round_dir / presets.PRESETS[name].figure / name
            problems += bundle_problems(name, bundle, match[0])
        for prefix in ("upper_barrier", "lower_barrier"):
            barrier = [c for c in outputs["sandwich"] if c.name.startswith(prefix)]
            if len(barrier) != 1 or not barrier[0].passed:
                problems.append(f"sandwich: {prefix} does not hold: "
                                + "; ".join(c.line() for c in barrier))
        ref_err = 0.0
        fig7a = [r for r in results if r.config == presets.PRESETS["fig7a"].config]
        for result in fig7a:
            ref_problems, err = reference_error("fig7a", "fig7a", result)
            problems += ref_problems
            ref_err = max(ref_err, err)
        return problems, ref_err if fig7a else math.inf


def gaussian(x, t, amp=0.8, sigma2=1.0):
    """Exact solution of u_t = u_xx from amp * exp(-x^2 / (2 sigma2))."""
    s2 = sigma2 + 2.0 * t
    return amp * math.sqrt(sigma2 / s2) * np.exp(-x ** 2 / (2.0 * s2))


class HeatConvergence(Workload):
    """Pure diffusion from a Gaussian on [-20, 20], three grids, ``solver.run``.

    The configurations are those of ``verify convergence``.  The two runs of
    the spatial-order pair stop at t = 0.05 instead of 0.25, which keeps a
    round to a few seconds; their error ratio is still about 3.95.
    """

    name = "heat_convergence"
    runs = {  # name: (dx, dt, t_end)
        "accuracy": (0.05, 1e-3, 0.25),
        "order_coarse": (0.2, 2e-5, 0.05),
        "order_fine": (0.1, 2e-5, 0.05),
    }

    def __init__(self):
        self.ops = [(name, self._run(*grid)) for name, grid in self.runs.items()]

    @staticmethod
    def _run(dx, dt, t_end):
        config = solver.SimulationConfig(
            reaction=None, data=sub_exponential(mu=5.0, beta=1.0),  # values overridden
            dx=dx, dt=dt, t_end=t_end, x_left=-20.0, x_right=20.0,
            snapshot_times=(t_end,), growth_margin=None, floor=0.0)
        grid = config.x_left + dx * np.arange(int(round(40.0 / dx)) + 1)
        initial = gaussian(grid, 0.0)

        def op(round_dir, tracer):
            return solver.run(config, initial_values=initial)
        return op

    def check(self, outputs, results, round_dir):
        problems = []
        errors = {}
        for name, (dx, dt, t_end) in self.runs.items():
            result = outputs[name]
            if result.diagnostics.clamp_events:
                problems.append(f"{name}: {result.diagnostics.clamp_events} clamp events")
            snap = result.snapshots[-1]
            if abs(snap.t - t_end) > 1e-12:
                problems.append(f"{name}: last snapshot at t={snap.t}, want {t_end}")
            errors[name] = float(np.max(np.abs(snap.values - gaussian(snap.grid, snap.t))))
        dx, dt, _ = self.runs["accuracy"]
        bound = dt + dx ** 2
        if not errors["accuracy"] < bound:
            problems.append(f"accuracy: error {errors['accuracy']!r} not below dt + dx^2 = {bound!r}")
        ratio = errors["order_coarse"] / errors["order_fine"]
        if not 3.2 <= ratio <= 4.8:
            problems.append(f"spatial order ratio {ratio!r} outside [3.2, 4.8]")
        return problems, max(errors.values())


WORKLOADS = {
    "finite_speed": lambda: Simulate("finite_speed", check_speed_cap=True),
    "heat_convergence": HeatConvergence,
    "algebraic_sweep": AlgebraicSweep,
    "wide_power": lambda: Simulate("wide_power", check_speed_cap=False),
}
