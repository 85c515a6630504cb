"""What the benchmark in perfbench/ checks frontlab against, checked here too.

Front positions: ``perfbench/cases.py`` holds the three configurations that
have a converged reference (plain numbers), and ``perfbench/reference.json``
their x_lambda at fixed checkpoints, made by an integrator that imports
nothing from frontlab.  Each test runs one configuration at its production
grid and checks every checkpoint.  A bound is the worst error measured when
the test was written plus a stated margin of about a tenth of it, so a
change that moves the fronts by more than the margin fails; a change that
makes the solver more accurate should lower the bound.

Tracer targets: ``perfbench/tracing.py`` times frontlab by wrapping module
attributes by name, and skips a target whose attribute is gone.  The guard
keeps a refactor from dropping a per-layer span unnoticed.

Both only read the files in perfbench/.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from frontlab import solver
from frontlab.initial_data import algebraic, sub_exponential
from frontlab.reaction import weakly_monostable

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["cases"]


def load(name):
    """The module perfbench/<name>.py, imported without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CASES = load("cases").CASES


def case_config(case) -> solver.SimulationConfig:
    if case["family"] == "sub_exponential":
        data = sub_exponential(mu=case["mu"], beta=case["beta"])
    else:
        data = algebraic(beta=case["beta"], scale=case["scale"])
    return solver.SimulationConfig(
        reaction=weakly_monostable(alpha=case["alpha"], r=case["r"]), data=data,
        dx=case["dx"], dt=case["dt"], t_end=case["t_end"],
        x_left=case["x_left"], x_right=case["x_right"], lambdas=case["lambdas"])


# case: (error scale, bound, measured worst error when written and where).
# wide_power's front stays within 8 cells of the clamp point, where a
# relative error says little, so it is measured in cells.
BOUNDS = {
    "finite_speed": ("relative", 1.0e-4, "-9.23e-5 at x_0.5(1.5)"),
    "fig7a": ("relative", 1.65e-4, "-1.48e-4 at x_0.5(2)"),
    "wide_power": ("dx", 0.0063, "-0.0057 dx at x_0.5(0.4)"),
}


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_front_positions_near_converged_reference(name):
    case, ref = CASES[name], REFERENCE[name]
    scale, bound, measured = BOUNDS[name]
    result = solver.run(case_config(case))
    assert not result.diagnostics.truncated
    assert result.diagnostics.clamp_events == 0
    errors = {}
    for lam_key, ref_x in ref["x_lambda"].items():
        trace = result.traces[float(lam_key)]
        for t, x_ref in zip(ref["checkpoints"], ref_x):
            i = int(np.argmin(np.abs(trace.times - t)))
            assert abs(trace.times[i] - t) < 0.5 * case["dt"]
            err = trace.positions[i] - x_ref
            errors[f"x_{lam_key}({t})"] = err / (abs(x_ref) if scale == "relative" else case["dx"])
    assert len(errors) == len(ref["checkpoints"]) * len(case["lambdas"])
    where = max(errors, key=lambda key: abs(errors[key]))
    worst = errors[where]
    print(f"REFERENCE {name}: worst error {worst:+.3e} ({scale}) at {where}, "
          f"bound {bound} (measured {measured} when the bound was set)")
    assert abs(worst) <= bound


def test_tracer_finds_every_layer_target():
    # today's absent targets: the CLI no longer imports run or select_model,
    # and the solver no longer sizes domains from the regime prediction
    tracing = load("tracing")
    tracer = tracing.Tracer(layers=True)
    try:
        assert set(tracer.absent) == {
            "frontlab.cli.run", "frontlab.cli.select_model",
            "frontlab.solver.classify_regime", "frontlab.solver.predict_level_envelope"}
    finally:
        tracer.uninstall()
