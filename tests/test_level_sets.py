"""The paper's level-set estimates, checked on the two long fig9 panels.

The level sets are located from the decay of the initial data.  Criterion 7
checks the same estimates on the short fig7a run (t <= 8), where the
zero-constant rate bracket does not hold yet; here they are checked where
they do hold:

- fig9b: light sub-exponential data, beta = 0.2, t_end = 30, final domain
  [-10, 230];
- fig9c: algebraic data, beta = 1, t_end = 20, final domain [-10, 470].

The local exponent ``select_model`` fits on the last quarter of each trace
is checked against the paper's 1/(beta(alpha+1)) (fig9b) and 1/beta (fig9c).

Each test prints its measured values (``pytest -s`` shows them).
"""

import math

import numpy as np
import pytest

from frontlab.envelope import (OdeProfile, _edge, calibrate_subsolution,
                               calibrate_supersolution_shift, cutoff_edge,
                               predict_level_envelope, subsolution,
                               supersolution)
from frontlab.measurement import extract_level_position, select_model
from frontlab.presets import PRESETS
from frontlab.solver import run

# the bracket's last miss is at t = 10.34 (fig9b) and 7.92 (fig9c); t* adds
# at least one time unit to it
T_STAR = {"fig9b": 11.5, "fig9c": 9.0}
EPSILON = 0.3  # times r, as criterion 7's bracket
# the local exponents measured 3.708 (+3.8%) and 0.9775 (-2.2%)
EXPONENT_BAND = 0.06


class Panel:
    """One panel's run and its barriers, calibrated as ``verify_sandwich``
    does: rho = r + 0.25 above, 0.875 r below, on the snapshot times, with
    x_max at the final right edge."""

    def __init__(self, name):
        self.name = name
        self.config = PRESETS[name].config
        self.result = run(self.config)
        params = self.config.reaction.params
        self.r, self.alpha = params.r, params.alpha
        t_grid = [snap.t for snap in self.result.snapshots]
        x_max = float(self.result.snapshots[-1].grid[-1])
        self.up = OdeProfile(self.r + 0.25, self.alpha, self.config.data)
        self.low = OdeProfile(0.875 * self.r, self.alpha, self.config.data)
        self.shift = calibrate_supersolution_shift(self.up, self.config.reaction,
                                                   t_grid, x_max)
        self.sub = calibrate_subsolution(self.low, self.config.reaction, t_grid, x_max)


@pytest.fixture(scope="module", params=sorted(T_STAR))
def panel(request):
    return Panel(request.param)


def test_rate_bracket_holds_after_t_star(panel):
    trace = panel.result.traces[0.5]
    t_star = T_STAR[panel.name]
    last_miss = None
    slack = math.inf  # smallest relative distance inside the bracket after t*
    for t, x in zip(trace.times, trace.positions):
        if t <= 0.0:
            continue
        x_lo, x_hi = predict_level_envelope(panel.alpha, panel.r, panel.config.data,
                                            EPSILON * panel.r, t)
        if not x_lo <= x <= x_hi:
            last_miss = t
        elif t > t_star:
            slack = min(slack, (x - x_lo) / x, (x_hi - x) / x)
    steps = int(np.sum(trace.times > t_star))
    print(f"{panel.name}: eps=0.3r bracket last missed at t={last_miss}, t*={t_star}; "
          f"smallest relative slack over {steps} steps after t*: {slack:.4g}")
    assert last_miss is None or last_miss < t_star
    assert steps > 0


def test_calibrated_sandwich_on_final_domain(panel):
    for snap in panel.result.snapshots:
        m = supersolution(panel.up, panel.shift, snap.t, snap.grid)
        v = subsolution(panel.sub, panel.low, snap.t, snap.grid)
        upper = float(np.max(snap.values - m))
        lower = float(np.max(v - snap.values))
        print(f"{panel.name} t={snap.t}: shift {panel.shift}, M {panel.sub.M}, "
              f"{snap.grid.size} cells: max(u - m) = {upper:.3g}, "
              f"max(v - u) = {lower:.3g}")
        assert upper <= 0.0
        assert lower <= 0.0


def test_half_level_under_upper_barrier_edge(panel):
    trace = panel.result.traces[0.5]
    for snap in panel.result.snapshots:
        k = int(np.searchsorted(trace.times, snap.t))
        assert trace.times[k] == snap.t
        x_half = float(trace.positions[k])
        edge = _edge(panel.up, snap.t + panel.shift, 1.0 - math.log(0.5))
        print(f"{panel.name} t={snap.t}: x_0.5 = {x_half:.5g} "
              f"under the upper barrier's 0.5 edge {edge:.5g}")
        assert x_half < edge


def test_quarter_m_level_past_the_cutoff_edge(panel):
    # left of its cutoff edge the lower barrier is its plateau 1/(4M)
    level = 1.0 / (4.0 * panel.sub.M)
    for snap in panel.result.snapshots:
        edge = cutoff_edge(panel.sub, panel.low, snap.t)
        x_level = (f"past x_max = {snap.grid[-1]:.5g}" if snap.values[-1] >= level else
                   f"{extract_level_position(snap.grid, snap.values, level):.5g}")
        left = snap.grid <= edge
        print(f"{panel.name} t={snap.t}: x_1/(4M) = {x_level} (M {panel.sub.M}) "
              f"against the lower barrier's cutoff edge {edge:.5g}, "
              f"{int(np.sum(left))} cells at or left of it")
        assert np.all(snap.values[left] >= level)


def test_local_exponent_near_theory(panel):
    beta = panel.config.data.beta
    if panel.name == "fig9b":  # sub-exponential tail: x ~ c t^p
        model, theory = "power", 1.0 / (beta * (panel.alpha + 1.0))
    else:  # algebraic tail: x ~ c exp(slope s)
        model, theory = "exp_power", 1.0 / beta
    fit, _ = select_model(panel.result.traces[0.5], panel.alpha, panel.r)
    rel = (fit.exponent - theory) / theory
    print(f"{panel.name}: select_model -> {fit.model} on {fit.window}, "
          f"exponent {fit.exponent:.4g} against {theory:.4g} ({rel:+.1%})")
    assert fit.model == model
    assert abs(rel) <= EXPONENT_BAND
