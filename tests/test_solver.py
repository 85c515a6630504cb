"""IMEX solver: domain sizing, stepping, growth, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontlab import kernels, solver
from frontlab.errors import InputError, ParameterError, SolverError
from frontlab.initial_data import (algebraic, algebraic_raw, eval_u0,
                                   sub_exponential)
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


class TestAutoSizeDomain:
    def test_explicit_bounds_pass_through(self):
        xl, xr = auto_size_domain(make_config(x_left=-3.0, x_right=17.0))
        assert (xl, xr) == (-3.0, 17.0)

    def test_finite_speed_uses_speed_bound(self):
        cfg = make_config(x_left=None, x_right=None, t_end=30.0)
        xl, xr = auto_size_domain(cfg)
        assert xl == -10.0  # clamp point 0 minus 10
        assert xr >= 4.0 * math.sqrt(1.0) * 30.0

    def test_accelerating_uses_envelope(self):
        cfg = make_config(data=algebraic_raw(beta=1.0), x_left=None,
                          x_right=None, t_end=8.0)
        _, xr = auto_size_domain(cfg)
        # at least twice the fast-side envelope, which exceeds e**((1.4*8)**(1/1.4))
        assert xr >= 2.0 * math.exp((1.4 * 8.0) ** (1.0 / 1.4))

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
        state.right_value = 0.0
        imex_step(state, cfg)
        assert np.array_equal(state.values, np.zeros(state.n))

    def test_one_fixed_point(self):
        cfg = make_config()
        state = initialize_state(cfg)
        state.values = np.ones_like(state.values)
        state.right_value = 1.0
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
        # returns (values, clamp events, minimum before clamping)
        u = state.values
        if config.reaction is not None:
            f_u = config.dt * eval_f(config.reaction, u)
        else:
            f_u = np.zeros_like(u)
        new = kernels.theta_step(u, f_u, config.dt / config.dx ** 2,
                                 state.right_value)
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
            state.right_value = float(values[-1])
        want, events, lo = self.separate_passes(state, cfg)
        assert imex_step(state, cfg) == lo
        assert state.values.tobytes() == want.tobytes()
        assert state.clamp_events == events

    def test_counts_values_leaving_the_band(self):
        cfg = make_config(reaction=None)
        state = initialize_state(cfg)
        state.values = np.linspace(1.2, -0.1, state.n)
        state.right_value = -0.1
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
        assert maybe_grow_domain(state, cfg) == "ok"
        assert np.array_equal(state.values, before)

    def test_growth_doubles_and_fills_with_data(self):
        cfg = make_config(data=algebraic(beta=1.0, scale=100.0), x_left=-2.0,
                          x_right=3.0, growth_margin=0.4)
        state = initialize_state(cfg)
        old = state.values.copy()
        old_n, old_right = state.n, state.x_right
        # rightmost point above min(lambda)/10 = 0.05 sits at x ~ 0.19; push it
        # into the margin zone by raising the tail
        state.values[state.values < 0.06] = 0.06
        state.values[-1] = eval_u0(cfg.data, state.x_right)
        assert maybe_grow_domain(state, cfg) == "grew"
        assert state.n == 2 * old_n - 1
        assert state.x_right == pytest.approx(2.0 * old_right - state.x_left)
        new_grid = state.grid[old_n:]
        assert np.array_equal(state.values[old_n:], eval_u0(cfg.data, new_grid))
        assert state.right_value == eval_u0(cfg.data, state.x_right)

    def test_cell_cap_blocks_growth(self):
        cfg = make_config(data=algebraic(beta=1.0, scale=100.0), x_left=-2.0,
                          x_right=3.0, growth_margin=0.4, cell_cap=120)
        state = initialize_state(cfg)
        state.values[:] = np.maximum(state.values, 0.06)
        assert maybe_grow_domain(state, cfg) == "capped"

    def test_truncated_run_reports(self):
        cfg = make_config(data=algebraic(beta=0.5, scale=10.0), x_left=-2.0,
                          x_right=2.0, growth_margin=0.3, cell_cap=100,
                          t_end=5.0)
        result = run(cfg)
        assert result.diagnostics.truncated
        assert result.diagnostics.truncation_time is not None
        assert result.diagnostics.truncation_time < 5.0


class TestGrowthDecision:
    """The right-margin test against the former front-position comparison."""

    @staticmethod
    def front_in_margin(state, margin, thresh):
        above = np.nonzero(state.values > thresh)[0]
        if above.size == 0:
            return False
        x_front = state.x_left + above[-1] * state.dx
        width = (state.n - 1) * state.dx
        return not x_front < state.x_right - margin * width

    @given(n=st.integers(min_value=3, max_value=400),
           x_left=st.floats(min_value=-50.0, max_value=50.0),
           dx=st.floats(min_value=1e-3, max_value=2.0),
           margin=st.floats(min_value=0.01, max_value=0.99),
           data=st.data())
    @settings(max_examples=300)
    def test_matches_front_position(self, n, x_left, dx, margin, data):
        cfg = make_config(growth_margin=margin, cell_cap=10 ** 6)
        edge = x_left + (n - 1) * dx - margin * ((n - 1) * dx)
        first = next(i for i in range(n) if x_left + i * dx >= edge)
        # the rightmost cell above min(lambdas)/10 = 0.05 sits near the edge
        last = data.draw(st.integers(min_value=max(first - 2, -1),
                                     max_value=min(first + 1, n - 1)))
        values = np.zeros(n)
        values[:last + 1] = data.draw(st.sampled_from([0.06, np.nextafter(0.05, 1.0)]))
        state = SimState(t=0.0, x_left=x_left, dx=dx, values=values,
                         right_value=0.0)
        want = self.front_in_margin(state, margin, 0.05)
        assert (maybe_grow_domain(state, cfg) == "grew") == want

    @pytest.mark.parametrize("last, status", [(8, "ok"), (9, "grew")])
    def test_cell_exactly_at_margin_edge(self, last, status):
        # x_right = 5, width 5, margin 0.1: the edge 4.5 is the grid point i = 9
        cfg = make_config(growth_margin=0.1)
        values = np.zeros(11)
        values[:last + 1] = 0.06
        state = SimState(t=0.0, x_left=0.0, dx=0.5, values=values, right_value=0.0)
        assert state.x_right - 0.1 * (10 * 0.5) == state.grid[9] == 4.5
        assert maybe_grow_domain(state, cfg) == status

    @pytest.mark.parametrize("margin_values, status", [
        ([np.nan, 0.0], "ok"), ([np.nan, np.nan], "ok"),
        ([np.nan, 0.06], "grew"), ([0.06, np.nan], "grew")])
    def test_nan_in_margin(self, margin_values, status):
        # cells 9 and 10 form the margin; NaN is never above the threshold
        cfg = make_config(growth_margin=0.1)
        values = np.zeros(11)
        values[:4] = np.nan
        values[9:] = margin_values
        state = SimState(t=0.0, x_left=0.0, dx=0.5, values=values, right_value=0.0)
        assert (values[9:] > 0.05).any() == (status == "grew")
        assert maybe_grow_domain(state, cfg) == status

    def test_margin_recomputed_after_doubling(self):
        # 11 cells on [0, 5] have the margin 9..10; 21 cells on [0, 10] have 18..20
        cfg = make_config(growth_margin=0.1)
        values = np.zeros(11)
        values[9] = 0.06
        state = SimState(t=0.0, x_left=0.0, dx=0.5, values=values, right_value=0.0)
        assert maybe_grow_domain(state, cfg) == "grew"
        assert state.n == 21
        state.values = np.zeros(21)
        state.values[:18] = 0.06
        assert maybe_grow_domain(state, cfg) == "ok"
        state.values[18] = 0.06
        assert maybe_grow_domain(state, cfg) == "grew"


class TestStaticDomainArrest:
    def test_front_at_static_edge_truncates(self):
        # the algebraic front reaches the right 10% of [-2, 3] well before t = 2
        cfg = make_config(data=algebraic(beta=1.0, scale=100.0), x_left=-2.0,
                          x_right=3.0, t_end=2.0)
        result = run(cfg)
        diag = result.diagnostics
        assert diag.truncated
        assert 0.0 < diag.truncation_time < cfg.t_end
        assert diag.n_steps == round(diag.truncation_time / cfg.dt)
        assert result.traces[0.5].times[-1] == diag.truncation_time

    def test_matches_growth_test_with_default_margin(self):
        static = make_config(data=algebraic(beta=1.0, scale=100.0), x_left=-2.0,
                             x_right=3.0)
        growing = make_config(data=algebraic(beta=1.0, scale=100.0), x_left=-2.0,
                              x_right=3.0, growth_margin=0.1)
        for fill, status in ((0.0, "ok"), (0.06, "capped")):
            state = initialize_state(static)
            state.values[state.values < 0.06] = fill
            assert maybe_grow_domain(state, static) == status
            state = initialize_state(growing)
            state.values[state.values < 0.06] = fill
            assert maybe_grow_domain(state, growing) == {"ok": "ok", "capped": "grew"}[status]

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
                          x_right=3.0, growth_margin=0.4, t_end=0.5)
        result = solver.run(cfg)
        steps = result.diagnostics.n_steps
        assert result.diagnostics.growth_events > 0
        assert counts == {
            "imex_step": steps, "eval_f": steps, "theta_step": steps,
            "maybe_grow_domain": steps,
            "extract_level_position": result.traces[0.5].times.size,
            "eval_u0": 1 + result.diagnostics.growth_events,
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
        bad = eval_u0(cfg.data, cfg.x_left + cfg.dx * np.arange(n))
        bad[5] = np.nan
        with pytest.raises(SolverError) as exc_info:
            run(cfg, initial_values=bad)
        assert exc_info.value.t == pytest.approx(0.01)

    def test_deterministic_repetition(self):
        cfg = make_config(t_end=1.0, snapshot_times=(1.0,))
        a, b = run(cfg), run(cfg)
        assert np.array_equal(a.traces[0.5].positions, b.traces[0.5].positions)
        assert np.array_equal(a.snapshots[-1].values, b.snapshots[-1].values)

    def test_mass_monotone_with_reaction(self):
        cfg = make_config(t_end=2.0, snapshot_times=(1.0, 2.0))
        result = run(cfg)
        assert result.diagnostics.mass_monotone

    def test_initial_values_shape_checked(self):
        cfg = make_config()
        with pytest.raises(InputError):
            run(cfg, initial_values=np.ones(7))
