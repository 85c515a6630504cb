"""IMEX solver: domain sizing, stepping, restarts on a wider domain, invariants."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frontlab import kernels, reaction, solver
from frontlab.errors import DomainError, InputError, ParameterError, SolverError
from frontlab.initial_data import algebraic, algebraic_raw, eval_u0, sub_exponential
from frontlab.measurement import extract_level_position
from frontlab.reaction import eval_f, weakly_monostable
from frontlab.solver import (CLAMP_TOL, SimState, SimulationConfig,
                             auto_size_domain, imex_step, initialize_state,
                             maybe_grow_domain, run)


def make_config(**overrides):
    base = dict(
        reaction=weakly_monostable(alpha=0.4),
        data=sub_exponential(mu=5.0, beta=1.0),
        dx=0.05,
        dt=0.01,
        t_end=1.0,
        x_left=-10.0,
        x_right=30.0,
        growth_margin=None,
        lambdas=(0.5,),
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestConfigValidation:
    def test_positivity(self):
        with pytest.raises(ParameterError):
            make_config(dx=0.0)
        with pytest.raises(ParameterError):
            make_config(dt=-0.1)

    def test_levels_inside_unit_interval(self):
        with pytest.raises(ParameterError):
            make_config(lambdas=(0.5, 1.0))

    def test_snapshots_sorted_within_range(self):
        with pytest.raises(ParameterError):
            make_config(snapshot_times=(2.0, 1.0), t_end=3.0)
        with pytest.raises(ParameterError):
            make_config(snapshot_times=(5.0,), t_end=3.0)

    def test_repeated_level_rejected(self):
        # accepted before, it failed after the whole run, when its trace
        # times were no longer strictly increasing
        with pytest.raises(ParameterError, match="level 0.5 is given twice"):
            make_config(lambdas=(0.5, 0.1, 0.5))

    def test_snapshot_times_on_one_step_rejected(self):
        # at dt = 0.1, 0.12 would round to step 1 as 0.1 does: the state at
        # t = 0.1 would be written twice, once labelled 0.12.  Off the step
        # grid, 0.12 is rejected by name; a repeated time is one step twice
        with pytest.raises(ParameterError,
                           match="time 0.12 is not a whole number of steps of dt = 0.1"):
            make_config(snapshot_times=(0.1, 0.12, 0.3), dt=0.1)
        with pytest.raises(ParameterError, match="increasing"):
            make_config(snapshot_times=(0.1, 0.1, 0.3), dt=0.1)
        make_config(snapshot_times=(0.1, 0.2, 0.3), dt=0.1)

    def test_t_end_off_the_step_grid_rejected(self):
        # 2.5 steps: the run would stop at t = 0.2 (round(2.5) is 2) and
        # label its horizon 0.25
        with pytest.raises(ParameterError,
                           match="time 0.25 is not a whole number of steps of dt = 0.1"):
            make_config(dt=0.1, t_end=0.25)

    def test_step_grid_tolerance(self):
        # 30/0.01 and 0.3/0.1 are a few ulps off a whole number in floating
        # point; STEP_TOL accepts them, and 1e-6 past t = 30 (3.3e-8 of its
        # 3000 steps) is rejected
        make_config(dt=0.01, t_end=30.0, snapshot_times=(0.07, 2.5, 30.0))
        make_config(dt=0.1, t_end=0.3, snapshot_times=(0.3,))
        with pytest.raises(ParameterError, match="not a whole number"):
            make_config(dt=0.01, t_end=30.0 + 1e-6)


class TestAutoSizeDomain:
    def test_explicit_bounds_pass_through(self):
        xl, xr = auto_size_domain(make_config(x_left=-3.0, x_right=17.0))
        assert (xl, xr) == (-3.0, 17.0)

    @pytest.mark.parametrize("data", [
        sub_exponential(mu=5.0, beta=1.0), sub_exponential(mu=5.0, beta=0.2),
        algebraic_raw(beta=1.0), algebraic(beta=1.0, scale=100.0)],
        ids=["finite_speed", "power", "algebraic_raw", "algebraic"])
    def test_default_start_for_every_regime(self, data):
        # the same start whatever the regime or horizon: the run restarts
        # on a wider domain when its front needs one
        for t_end in (1.0, 30.0):
            cfg = make_config(data=data, x_left=None, x_right=None, t_end=t_end)
            clamp = data.clamp_point
            assert auto_size_domain(cfg) == (clamp - 10.0, clamp + 20.0)

    def test_explicit_bounds_must_be_ordered(self):
        with pytest.raises(ParameterError, match="x_right must exceed x_left"):
            auto_size_domain(make_config(x_left=25.0, x_right=None))

    def test_left_bound_clears_clamp_point(self):
        cfg = make_config(data=algebraic(beta=1.0, scale=100.0), x_left=None,
                          x_right=None, t_end=2.0)
        xl, _ = auto_size_domain(cfg)
        assert xl <= cfg.data.clamp_point - 10.0


class TestImexStep:
    def test_zero_fixed_point(self):
        cfg = make_config()
        state = initialize_state(cfg)
        state.values = np.zeros_like(state.values)
        imex_step(state, cfg)
        assert np.array_equal(state.values, np.zeros(state.n))

    def test_one_fixed_point(self):
        cfg = make_config()
        state = initialize_state(cfg)
        state.values = np.ones_like(state.values)
        imex_step(state, cfg)
        assert np.allclose(state.values, 1.0, atol=1e-13)
        assert state.clamp_events == 0

    def test_advances_time(self):
        cfg = make_config()
        state = initialize_state(cfg)
        imex_step(state, cfg)
        assert state.t == pytest.approx(cfg.dt)


class TestFusedChecks:
    """imex_step against the former sequence of separate full-array passes."""

    @staticmethod
    def separate_passes(state, config):
        # returns (values, clamp events, minimum before clamping); the
        # pinned last cell takes its own reaction increment
        u = state.values
        if config.reaction is not None:
            f_u = config.dt * eval_f(config.reaction, u)
        else:
            f_u = np.zeros_like(u)
        new = kernels.theta_step(u, f_u, config.dt / config.dx ** 2,
                                 float(u[-1] + f_u[-1]))
        lo = new.min()
        events = int(np.count_nonzero((new < -CLAMP_TOL) | (new > 1.0 + CLAMP_TOL)))
        np.clip(new, 0.0, 1.0, out=new)
        if config.floor > 0.0:
            new[new < config.floor] = 0.0
        return new, events, lo

    CASES = {
        # name: (values on 801 cells, reaction, floor)
        "above_one": (np.linspace(1.2, 0.0, 801), None, 1e-300),
        "below_zero": (np.linspace(1.0, -0.1, 801), None, 1e-300),
        "noise_band": (np.full(801, 1.0 + 5e-13), None, 1e-300),
        "floored_tail": (np.geomspace(1.0, 1e-320, 801), weakly_monostable(0.4), 1e-300),
        "zero_floor": (np.linspace(1.0, -1e-3, 801), None, 0.0),
        "front": (None, weakly_monostable(0.4), 1e-300),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_separate_passes(self, case):
        values, reaction, floor = self.CASES[case]
        cfg = make_config(reaction=reaction, floor=floor)
        state = initialize_state(cfg)
        if values is not None:
            state.values = values.copy()
        want, events, lo = self.separate_passes(state, cfg)
        assert imex_step(state, cfg) == lo
        assert state.values.tobytes() == want.tobytes()
        assert state.clamp_events == events

    def test_counts_values_leaving_the_band(self):
        cfg = make_config(reaction=None)
        state = initialize_state(cfg)
        state.values = np.linspace(1.2, -0.1, state.n)
        imex_step(state, cfg)
        assert state.clamp_events > 100
        assert state.values.min() == 0.0 and state.values.max() == 1.0

    def test_nan_mid_run_raises_with_step_time(self, monkeypatch):
        real = kernels.theta_step
        calls = []

        def theta_step(*args):
            out = real(*args)
            calls.append(None)
            if len(calls) == 7:
                out[100] = np.nan
            return out

        monkeypatch.setattr(kernels, "theta_step", theta_step)
        cfg = make_config(t_end=1.0)
        with pytest.raises(SolverError) as exc_info:
            run(cfg)
        assert exc_info.value.t == 7 * cfg.dt


class TestStoredMinimum:
    """imex_step stores the state's minimum; the next reaction reuses it."""

    @staticmethod
    def record_lo(monkeypatch):
        # each eval_f call's lo, checked against the state it describes
        seen = []
        real = solver.eval_f

        def eval_f(family, u, lo=None):
            assert lo is None or lo == u.min()
            seen.append(lo)
            return real(family, u, lo)
        monkeypatch.setattr(solver, "eval_f", eval_f)
        return seen

    @pytest.mark.parametrize("floor, zeroed", [(1e-200, True), (1e-250, False),
                                               (0.0, False)])
    def test_floor_runs_match_checked_reaction(self, monkeypatch, floor, zeroed):
        # u0 on [-10, 115] falls to 1.9e-250 at the right edge: the 1e-200
        # floor zeroes the tail, where carrying the minimum from before the
        # floor would take log(0); the other two keep every cell above the
        # underflow cutoff, so the log is taken without the clamp
        cfg = make_config(x_right=115.0, t_end=3.0, floor=floor,
                          lambdas=(0.1, 0.5), snapshot_times=(1.0, 3.0))
        seen = self.record_lo(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run(cfg)
        assert seen[0] is None and None not in seen[1:]
        if zeroed:
            assert seen[1] == 0.0
        else:
            assert min(seen[1:]) > reaction.UNDERFLOW_CUTOFF
        monkeypatch.setattr(solver, "eval_f",
                            lambda family, u, lo=None: reaction.eval_f(family, u))
        want = run(cfg)
        for lam in cfg.lambdas:
            assert got.traces[lam].positions.tobytes() == want.traces[lam].positions.tobytes()
        for a, b in zip(got.snapshots, want.snapshots, strict=True):
            assert a.values.tobytes() == b.values.tobytes()

    def test_doubled_domain_is_checked_again(self, monkeypatch):
        # the front enters the right 40% of [-2, 3] before t = 2: the run
        # restarts on [-2, 8], whose first step checks its state again
        cfg = make_config(data=algebraic(beta=1.0, scale=100.0), x_left=-2.0,
                          x_right=3.0, growth_margin=0.4, t_end=2.0)
        seen = self.record_lo(monkeypatch)
        result = run(cfg)
        assert result.diagnostics.growth_events > 0
        assert seen.count(None) == 1 + result.diagnostics.growth_events

    @pytest.mark.parametrize("bad", [1.5, -0.1])
    def test_out_of_range_initial_values_fail_first_step(self, bad):
        cfg = make_config()
        values = initialize_state(cfg).values
        values[300] = bad
        with pytest.raises(DomainError, match="outside"):
            run(cfg, initial_values=values)

    def test_replaced_values_are_checked(self):
        cfg = make_config()
        state = initialize_state(cfg)
        imex_step(state, cfg)
        state.values = state.values.copy()
        state.values[10] = 1.5
        with pytest.raises(DomainError):
            imex_step(state, cfg)


class TestHeatKernel:
    """Pure diffusion against the exact spreading Gaussian."""

    @staticmethod
    def gaussian(x, t, amp=0.8, sigma2=1.0):
        s2 = sigma2 + 2.0 * t
        return amp * math.sqrt(sigma2 / s2) * np.exp(-x ** 2 / (2.0 * s2))

    def error(self, dx, dt, t_end=0.25):
        cfg = make_config(reaction=None, dx=dx, dt=dt, t_end=t_end,
                          x_left=-20.0, x_right=20.0, floor=0.0,
                          snapshot_times=(t_end,))
        grid = -20.0 + dx * np.arange(int(round(40.0 / dx)) + 1)
        result = run(cfg, initial_values=self.gaussian(grid, 0.0))
        snap = result.snapshots[-1]
        return float(np.max(np.abs(snap.values - self.gaussian(snap.grid, snap.t))))

    def test_first_order_in_time_second_in_space(self):
        assert self.error(0.05, 1e-3) < 1.0 * (1e-3 + 0.05 ** 2)

    def test_spatial_order_two(self):
        coarse = self.error(0.2, 2e-5)
        fine = self.error(0.1, 2e-5)
        assert 3.2 <= coarse / fine <= 4.8


class TestOrderAndMonotonicity:
    def test_ordered_data_stay_ordered(self):
        shared = dict(dx=0.05, dt=0.01, t_end=3.0, snapshot_times=(1.0, 2.0, 3.0))
        res_small = run(make_config(data=sub_exponential(mu=5.0, beta=1.0), **shared))
        res_big = run(make_config(data=sub_exponential(mu=4.0, beta=1.0), **shared))
        for a, b in zip(res_small.snapshots, res_big.snapshots):
            assert np.max(a.values - b.values) <= 1e-8

    def test_monotone_data_stay_monotone(self):
        res = run(make_config(t_end=3.0, snapshot_times=(1.0, 2.0, 3.0)))
        for snap in res.snapshots:
            assert np.max(np.diff(snap.values)) <= 1e-10

    def test_zero_clamp_events(self):
        res = run(make_config(t_end=3.0))
        assert res.diagnostics.clamp_events == 0

    def test_grid_refinement_consistency(self):
        coarse = run(make_config(t_end=3.0))
        fine = run(make_config(dx=0.025, dt=0.005, t_end=3.0))
        xc = coarse.traces[0.5].positions[-1]
        xf = fine.traces[0.5].positions[-1]
        assert abs(xc - xf) < 0.05


class TestDomainGrowth:
    def test_front_far_from_boundary_no_growth(self):
        cfg = make_config(data=algebraic(beta=1.0, scale=100.0), x_left=-2.0,
                          x_right=30.0, growth_margin=0.1)
        state = initialize_state(cfg)
        before = state.values.copy()
        front = extract_level_position(state.grid, state.values, 0.5)
        assert maybe_grow_domain(state, cfg, front) == "ok"
        assert np.array_equal(state.values, before)

    def test_growth_doubles_and_fills_with_data(self):
        # the front enters the right 40% of [-2, 3] before t = 2: the run
        # starts again from the initial data on [-2, 8], same spacing
        cfg = make_config(data=algebraic(beta=1.0, scale=100.0), x_left=-2.0,
                          x_right=3.0, growth_margin=0.4, t_end=2.0,
                          snapshot_times=(0.0, 2.0))
        result = run(cfg)
        diag = result.diagnostics
        assert diag.growth_events == 1 and not diag.truncated
        assert diag.final_cells == 2 * 101 - 1
        first, last = result.snapshots
        assert first.grid is last.grid
        assert first.grid[-1] == pytest.approx(8.0)
        assert first.grid[1] - first.grid[0] == pytest.approx(0.05)
        assert np.array_equal(first.values, eval_u0(cfg.data, first.grid))
        assert result.traces[0.5].times[0] == 0.0
        assert diag.n_steps == 200 == result.traces[0.5].times.size - 1

    def test_cell_cap_blocks_growth(self):
        cfg = make_config(data=algebraic(beta=1.0, scale=100.0), x_left=-2.0,
                          x_right=3.0, growth_margin=0.4, cell_cap=120)
        state = initialize_state(cfg)
        assert maybe_grow_domain(state, cfg, 1.0) == "capped"
        assert maybe_grow_domain(state, replace(cfg, cell_cap=201), 1.0) == "grew"

    def test_truncated_run_reports(self):
        cfg = make_config(data=algebraic(beta=0.5, scale=10.0), x_left=-2.0,
                          x_right=2.0, growth_margin=0.3, cell_cap=100,
                          t_end=5.0)
        result = run(cfg)
        assert result.diagnostics.truncated
        assert result.diagnostics.truncation_time is not None
        assert result.diagnostics.truncation_time < 5.0

    def test_initial_values_need_a_static_domain(self):
        cfg = make_config(growth_margin=0.1)
        values = initialize_state(cfg).values
        with pytest.raises(InputError, match="static domain"):
            run(cfg, initial_values=values)


class TestGrowthDecision:
    """The front against the edge of the right-margin fraction."""

    @pytest.mark.parametrize("last, status", [(8, "ok"), (9, "grew")])
    def test_cell_exactly_at_margin_edge(self, last, status):
        # x_right = 5, width 5, margin 0.1: the edge 4.5 is the grid point
        # i = 9; a front on it has entered the margin
        cfg = make_config(growth_margin=0.1)
        state = SimState(t=0.0, x_left=0.0, dx=0.5, values=np.zeros(11))
        assert state.grid[-1] - 0.1 * (10 * 0.5) == state.grid[9] == 4.5
        assert maybe_grow_domain(state, cfg, state.grid[last]) == status
        assert maybe_grow_domain(state, cfg, np.nextafter(4.5, 0.0)) == "ok"

    def test_a_step_that_lifts_the_last_cell_restarts(self, monkeypatch):
        # a step that leaves the last cell at the level: the extraction would
        # raise FrontExitedDomainError; the run restarts on twice the width
        real = solver.imex_step
        calls = []

        def imex_step(state, config):
            lo = real(state, config)
            calls.append(state.n)
            if len(calls) == 3:
                state.values[-1] = 0.5
            return lo

        monkeypatch.setattr(solver, "imex_step", imex_step)
        cfg = make_config(growth_margin=0.1, t_end=0.1)
        result = run(cfg)
        assert result.diagnostics.growth_events == 1
        assert calls[:3] == [801] * 3 and calls[3:] == [1601] * 10
        calls.clear()
        static = run(replace(cfg, growth_margin=None))
        assert static.diagnostics.truncated
        assert static.diagnostics.truncation_time == pytest.approx(2 * cfg.dt)
        assert static.traces[0.5].times.size == 3


class TestRestart:
    """A restarted run is the static run on its final domain."""

    @given(beta=st.sampled_from([0.5, 1.0, 2.0]),
           algebraic_tail=st.booleans(),
           width=st.floats(min_value=1.0, max_value=4.0),
           margin=st.floats(min_value=0.1, max_value=0.6),
           steps=st.integers(min_value=1, max_value=120),
           lambdas=st.sampled_from([(0.5,), (0.1, 0.5), (0.5, 0.05)]))
    @settings(max_examples=30, deadline=None)
    def test_matches_static_run_on_final_domain(self, beta, algebraic_tail, width,
                                               margin, steps, lambdas):
        data = (algebraic(beta=beta, scale=100.0) if algebraic_tail
                else sub_exponential(mu=2.0, beta=beta))
        cfg = make_config(data=data, dx=0.1, dt=0.02, t_end=0.02 * steps,
                          x_left=-2.0, x_right=-2.0 + width, growth_margin=margin,
                          lambdas=lambdas, snapshot_times=(0.02 * steps,))
        grown = run(cfg)
        diag = grown.diagnostics
        assume(diag.growth_events > 0)
        assert not diag.truncated
        # the static run watches the default margin 0.1 <= margin, so the
        # front that stayed left of the grown run's edge stays left of its
        # own, and both watch the same edge slope
        static = run(replace(cfg, x_right=grown.snapshots[-1].grid[-1], growth_margin=None))
        assert static.diagnostics.final_cells == diag.final_cells
        assert not static.diagnostics.truncated and static.diagnostics.growth_events == 0
        for lam in lambdas:
            a, b = grown.traces[lam], static.traces[lam]
            assert a.times.tobytes() == b.times.tobytes()
            assert a.positions.tobytes() == b.positions.tobytes()
        assert grown.snapshots[-1].values.tobytes() == static.snapshots[-1].values.tobytes()
        assert grown.snapshots[-1].grid.tobytes() == static.snapshots[-1].grid.tobytes()


class TestThresholdFront:
    """At beta = 1/(alpha+1), with mu = 0.35, the front is driven by its
    tail: a domain refilled with u0, or a boundary pinned at u0(x_right),
    stalls it (x_0.5(30) = 129.86, -23.6%, with the former envelope sizing
    and u0 fill).  Default sizing must give the static wide run's trace."""

    def test_default_sizing_matches_static_wide(self):
        cfg = SimulationConfig(
            reaction=weakly_monostable(alpha=0.4),
            data=sub_exponential(mu=0.35, beta=1.0 / 1.4),
            dx=0.05, dt=0.01, t_end=30.0)
        grown = run(cfg)
        wide = run(replace(cfg, x_left=-10.0, x_right=600.0, growth_margin=None))
        assert not grown.diagnostics.truncated and not wide.diagnostics.truncated
        x, x_wide = grown.traces[0.5].positions, wide.traces[0.5].positions
        rel = float(np.max(np.abs(x - x_wide) / np.abs(x_wide)))
        # measured: 1.7e-15 relative (the restarts land on [-10, 230], and
        # the front at 170 is far from both right boundaries); the bound
        # 1e-12 leaves room for another numpy build's rounding
        print(f"THRESHOLD x_0.5(30): default {x[-1]:.4f}, static [-10, 600] "
              f"{x_wide[-1]:.4f}, worst relative gap {rel:.1e} over the trace")
        assert x_wide[-1] == pytest.approx(169.95, abs=0.01)
        assert rel <= 1e-12


class TestStaticDomainArrest:
    def test_front_at_static_edge_truncates(self):
        # a static [-2, 3] is too narrow for the algebraic front well before t = 2
        cfg = make_config(data=algebraic(beta=1.0, scale=100.0), x_left=-2.0,
                          x_right=3.0, t_end=2.0)
        result = run(cfg)
        diag = result.diagnostics
        assert diag.truncated
        assert 0.0 < diag.truncation_time < cfg.t_end
        assert diag.n_steps == round(diag.truncation_time / cfg.dt)
        assert result.traces[0.5].times[-1] == diag.truncation_time

    def test_stalled_front_truncates(self):
        # exponentially decaying data: the pinned edge of [-2, 3] holds the
        # front back, and without the edge slope rule it stalls near x = 1.93,
        # short of the right 10%, to t = 12
        cfg = make_config(x_left=-2.0, x_right=3.0, t_end=12.0)
        result = run(cfg)
        diag = result.diagnostics
        assert diag.truncated
        assert 0.0 < diag.truncation_time < 1.0
        assert result.traces[0.5].positions[-1] < 2.5

    def test_stalled_front_restarts(self):
        # the same front with a margin of 0.02 (0.1 units of [-2, 3]): the
        # edge slope restarts the run, which then matches a wide static run
        cfg = make_config(x_left=-2.0, x_right=3.0, t_end=12.0, growth_margin=0.02)
        grown = run(cfg)
        assert grown.diagnostics.growth_events > 0 and not grown.diagnostics.truncated
        wide = run(replace(cfg, x_right=60.0, growth_margin=None))
        x, x_wide = grown.traces[0.5].positions, wide.traces[0.5].positions
        rel = float(np.max(np.abs(x - x_wide) / np.abs(x_wide)))
        # measured 4.7e-15: the final [-2, 38] keeps its edge clear of the
        # front, as [-2, 60] does
        assert rel <= 1e-12

    @pytest.mark.parametrize("drop, status", [(0.0249, "ok"), (0.0251, "capped")])
    def test_edge_slope_truncates_without_the_front(self, drop, status):
        # the front at 0 is far from the margin of [0, 5]; the last cell
        # lies ``drop`` below its neighbour, against EDGE_SLOPE * 0.5 * dx
        cfg = make_config()
        values = np.zeros(11)
        values[-2] = drop * 0.5
        state = SimState(t=0.0, x_left=0.0, dx=0.5, values=values)
        assert solver.EDGE_SLOPE * 0.5 * 0.5 == pytest.approx(0.0125)
        assert maybe_grow_domain(state, cfg, 0.0) == status
        assert maybe_grow_domain(state, replace(cfg, growth_margin=0.1), 0.0) == {
            "ok": "ok", "capped": "grew"}[status]

    def test_matches_growth_test_with_default_margin(self):
        static = make_config(data=algebraic(beta=1.0, scale=100.0), x_left=-2.0,
                             x_right=3.0)
        growing = replace(static, growth_margin=0.1)
        state = initialize_state(static)
        for front, status in ((2.49, "ok"), (2.5, "capped"), (math.inf, "capped")):
            assert maybe_grow_domain(state, static, front) == status
            assert maybe_grow_domain(state, growing, front) == {
                "ok": "ok", "capped": "grew"}[status]

    def test_far_front_runs_to_the_end(self):
        result = run(make_config(t_end=1.0))
        assert not result.diagnostics.truncated
        assert result.diagnostics.n_steps == 100


class TestTracedCallSites:
    """The benchmark times these functions by replacing module attributes;
    ``run`` must keep reaching them through those attributes."""

    def test_run_calls_through_module_attributes(self, monkeypatch):
        counts = {}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("imex_step", "eval_f", "maybe_grow_domain",
                     "extract_level_position", "eval_u0"):
            counting(solver, name)
        counting(kernels, "theta_step")
        cfg = make_config(data=algebraic(beta=1.0, scale=100.0), x_left=-2.0,
                          x_right=3.0, growth_margin=0.4, t_end=2.0)
        result = solver.run(cfg)
        growths = result.diagnostics.growth_events
        assert growths > 0
        # every start from t = 0 checks its initial state and each step's
        steps = counts["imex_step"]
        assert steps > result.diagnostics.n_steps
        assert counts == {
            "imex_step": steps, "eval_f": steps, "theta_step": steps,
            "maybe_grow_domain": steps + 1 + growths,
            "extract_level_position": steps + 1 + growths,
            "eval_u0": 1 + growths,
        }


class TestRun:
    def test_zero_t_end_single_snapshot(self):
        cfg = make_config(t_end=0.0, snapshot_times=())
        result = run(cfg)
        assert len(result.snapshots) == 1
        snap = result.snapshots[0]
        assert snap.t == 0.0
        assert np.array_equal(snap.values, eval_u0(cfg.data, snap.grid))

    def test_snapshots_at_requested_times(self):
        cfg = make_config(t_end=1.0, snapshot_times=(0.0, 0.5, 1.0))
        result = run(cfg)
        assert [s.t for s in result.snapshots] == [0.0, 0.5, 1.0]

    def test_trace_starts_at_zero_and_grows(self):
        cfg = make_config(t_end=2.0)
        trace = run(cfg).traces[0.5]
        assert trace.times[0] == 0.0
        assert trace.times.size == int(round(2.0 / 0.01)) + 1
        assert np.all(np.diff(trace.positions) > -1e-12)

    def test_nan_aborts_with_time(self):
        cfg = make_config(t_end=1.0)
        n = int(round((cfg.x_right - cfg.x_left) / cfg.dx)) + 1
        # a NaN in the last cell is no front beyond the domain
        for cell in (5, n - 1):
            bad = eval_u0(cfg.data, cfg.x_left + cfg.dx * np.arange(n))
            bad[cell] = np.nan
            with pytest.raises(SolverError) as exc_info:
                run(cfg, initial_values=bad)
            assert exc_info.value.t == pytest.approx(0.01)

    def test_deterministic_repetition(self):
        cfg = make_config(t_end=1.0, snapshot_times=(1.0,))
        a, b = run(cfg), run(cfg)
        assert np.array_equal(a.traces[0.5].positions, b.traces[0.5].positions)
        assert np.array_equal(a.snapshots[-1].values, b.snapshots[-1].values)

    def test_initial_values_shape_checked(self):
        cfg = make_config()
        with pytest.raises(InputError):
            run(cfg, initial_values=np.ones(7))
