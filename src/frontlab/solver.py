"""IMEX finite-difference integration of u_t = u_xx + f(u) on a growing 1D grid.

Time stepping treats the reaction explicitly and the diffusion with a
backward Euler solve, which is unconditionally monotone.  Boundary
conditions: zero-flux on the left (the solution sits on its plateau there)
and, on the right, a pinned cell that takes the interior's explicit
reaction increment.  A run whose front nears the right edge, or whose
tail that cell holds down, starts again on twice the width, or stops,
truncated, on a static domain (see ``maybe_grow_domain``), as the pinned
boundary would otherwise slow the front silently.  Clamping of the state
into [0, 1] is a diagnostic safety net: production runs must report zero
clamp events, and the CLI exits 3 when a run reports any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .errors import InputError, NumericalError, ParameterError, SolverError
from .initial_data import InitialDataSpec, eval_u0
from .measurement import LevelSetTrace, extract_level_position
from .reaction import ReactionFamily, eval_f

# Values outside [ -CLAMP_TOL, 1 + CLAMP_TOL ] count as clamp events; values
# inside the tolerance band are floating-point noise and are clipped silently.
CLAMP_TOL = 1e-12
# an output time lies on the step grid when t/dt is this close to a whole
# number of steps, relative to that number
STEP_TOL = 1e-9
# the pinned last cell holds the tail down once it lies below its neighbour
# by this slope per unit length, relative to min(lambdas); narrow static runs
# were then within 3e-4 relative of wide ones, and 1e-2 off a little later
EDGE_SLOPE = 0.05


def _step_of(t: float, dt: float) -> int:
    """The step that ends at time ``t``; ``ParameterError`` when ``t`` is not
    a whole multiple of ``dt``."""
    steps = t / dt
    k = round(steps)
    if abs(steps - k) > STEP_TOL * abs(k):
        raise ParameterError(f"time {t} is not a whole number of steps of dt = {dt}")
    return k


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one run.

    ``x_left``/``x_right`` may be None, in which case the domain starts at
    [clamp - 10, clamp + 20] (see ``auto_size_domain``).  The run starts
    again on twice the width whenever the front x_{min(lambdas)} enters the
    right-edge fraction ``growth_margin`` or the pinned edge holds its tail
    down (see ``maybe_grow_domain``); None freezes the domain, and the run
    stops, truncated, under the same test with a 10% margin.  ``t_end``
    and every snapshot time must be whole multiples of ``dt`` (within
    ``STEP_TOL``), so each output is the state of the step it names.
    ``reaction`` of None integrates pure diffusion.
    """

    reaction: ReactionFamily | None
    data: InitialDataSpec
    dx: float
    dt: float
    t_end: float
    x_left: float | None = None
    x_right: float | None = None
    snapshot_times: tuple[float, ...] = ()
    lambdas: tuple[float, ...] = (0.5,)
    growth_margin: float | None = 0.1
    cell_cap: int = 4_000_000
    floor: float = 1e-300

    def __post_init__(self):
        # Python floats: a numpy level's repr, np.float64(0.1), would reach
        # the bundle's trace file names and fit labels
        object.__setattr__(self, "lambdas", tuple(map(float, self.lambdas)))
        if not self.dx > 0:
            raise ParameterError(f"dx must be > 0, got {self.dx}")
        if not self.dt > 0:
            raise ParameterError(f"dt must be > 0, got {self.dt}")
        if self.t_end < 0:
            raise ParameterError(f"t_end must be >= 0, got {self.t_end}")
        if any(not 0 < lam < 1 for lam in self.lambdas):
            raise ParameterError(f"levels must lie in (0, 1), got {self.lambdas}")
        for i, lam in enumerate(self.lambdas):
            if lam in self.lambdas[:i]:
                raise ParameterError(f"level {lam} is given twice")
        n_steps = _step_of(self.t_end, self.dt)
        steps = [_step_of(ts, self.dt) for ts in self.snapshot_times]
        if any(not 0 <= k <= n_steps for k in steps):
            raise ParameterError("snapshot times must lie in [0, t_end]")
        if any(later <= earlier for earlier, later in zip(steps, steps[1:])):
            raise ParameterError("snapshot times must be increasing")
        if self.growth_margin is not None and not 0 < self.growth_margin < 1:
            raise ParameterError(f"growth margin must be in (0, 1), got {self.growth_margin}")
        if self.floor < 0:
            raise ParameterError(f"floor must be >= 0, got {self.floor}")
        if self.cell_cap < 3:
            raise ParameterError("cell cap must allow at least 3 cells")


@dataclass
class SimState:
    t: float
    x_left: float
    dx: float
    values: np.ndarray
    clamp_events: int = 0
    # (values, their minimum) as imex_step stored them: the next step's
    # reaction reuses the minimum while ``values`` is still that array, so a
    # new state (the first step, a restart) is checked again
    _stored_min: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @cached_property
    def grid(self) -> np.ndarray:
        """Cell positions, built once and read-only: a state keeps its size,
        and a run that needs more room starts a new one."""
        return _make_grid(self.x_left, self.dx, self.n)


def _make_grid(x_left: float, dx: float, n: int) -> np.ndarray:
    grid = x_left + dx * np.arange(n)
    grid.flags.writeable = False
    return grid


def auto_size_domain(config: SimulationConfig) -> tuple[float, float]:
    """Resolve (x_left, x_right): explicit bounds pass through, and an unset
    one starts at clamp - 10 or clamp + 20, for every regime.  A run that
    needs more room restarts on twice the width (see ``run``).
    """
    clamp = config.data.clamp_point
    x_left = clamp - 10.0 if config.x_left is None else config.x_left
    x_right = clamp + 20.0 if config.x_right is None else config.x_right
    if x_right <= x_left:
        raise ParameterError("x_right must exceed x_left")
    return x_left, x_right


def initialize_state(config: SimulationConfig,
                     initial_values: np.ndarray | None = None,
                     n: int | None = None) -> SimState:
    """The state at t = 0 on the configured domain, or on ``n`` cells from
    its left edge (a restart on a wider domain)."""
    x_left, x_right = auto_size_domain(config)
    if n is None:
        n = int(round((x_right - x_left) / config.dx)) + 1
    if n < 3:
        raise InputError("domain shorter than 3 cells")
    if n > config.cell_cap:
        raise InputError(f"initial domain of {n} cells exceeds cell cap {config.cell_cap}")
    grid = _make_grid(x_left, config.dx, n)
    if initial_values is not None:
        values = np.asarray(initial_values, dtype=np.float64).copy()
        if values.shape != grid.shape:
            raise InputError("initial values do not match the grid")
    else:
        values = eval_u0(config.data, grid)
    return SimState(t=0.0, x_left=x_left, dx=config.dx, values=values)


def imex_step(state: SimState, config: SimulationConfig) -> float:
    """Advance one step: explicit reaction, backward Euler diffusion, clamp.

    The pinned last cell takes the reaction increment alone, as the
    far-field ODE u' = f(u) would; with no reaction it keeps its value.
    Returns the smallest new value before clamping, NaN when any value is
    NaN.  The clamp count, clip and floor passes run only when that minimum
    or the maximum shows a value for them to change.

    The state is stored with its minimum after the clip and the floor: 0.0
    when they zeroed cells, else the minimum the step reduced.  The next
    step passes it as ``eval_f(family, u, lo)``, which then skips its range
    check; a state this step did not store (the first, or one set by hand)
    is checked.
    """
    u = state.values
    f_u = None
    right = u[-1]
    if config.reaction is not None:
        known = state._stored_min
        lo_u = known[1] if known is not None and known[0] is u else None
        f_u = eval_f(config.reaction, u, lo_u)
        np.multiply(f_u, config.dt, out=f_u)
        right += f_u[-1]
    mu = config.dt / config.dx ** 2
    try:
        new = kernels.theta_step(u, f_u, mu, float(right))
    except ZeroDivisionError as exc:
        raise NumericalError("zero pivot in tridiagonal solve") from exc
    lo, hi = float(np.minimum.reduce(new)), float(np.maximum.reduce(new))
    stored = lo
    if lo < 0.0 or hi > 1.0:
        if lo < -CLAMP_TOL or hi > 1.0 + CLAMP_TOL:
            state.clamp_events += int(np.count_nonzero(
                (new < -CLAMP_TOL) | (new > 1.0 + CLAMP_TOL)))
        np.clip(new, 0.0, 1.0, out=new)
        stored = min(max(lo, 0.0), 1.0)
    if lo < config.floor:
        new[new < config.floor] = 0.0
        stored = 0.0
    state.values = new
    # a NaN minimum stores nothing: the run stops, and a direct caller's
    # next step checks the state again
    state._stored_min = (new, stored) if stored == stored else None
    state.t += config.dt
    return lo


def maybe_grow_domain(state: SimState, config: SimulationConfig,
                      front: float) -> str:
    """Decide whether the run needs a wider domain.

    ``front`` is the tracked x_{min(lambdas)} of the state, or inf when its
    last cell is at or above min(lambdas).  The run needs more room once the
    front enters the right-edge fraction ``growth_margin`` of the width (the
    default 0.1 on a static domain), or once the pinned last cell lies below
    its neighbour by a slope of ``EDGE_SLOPE * min(lambdas)``, as a front
    held back by the boundary may stall short of any margin.  Returns "ok",
    "grew" (the caller restarts from t = 0 on twice the width, same spacing)
    or "capped" when the domain may not grow: it is static, or the cell cap
    refuses the doubling (the caller stops and flags truncation).
    """
    static = config.growth_margin is None
    # a static domain watches the default margin, the class attribute
    margin = SimulationConfig.growth_margin if static else config.growth_margin
    u, width = state.values, (state.n - 1) * state.dx
    pulled = u[-2] - u[-1] > EDGE_SLOPE * min(config.lambdas) * state.dx
    if front < state.x_left + width - margin * width and not pulled:
        return "ok"
    if static or 2 * state.n - 1 > config.cell_cap:
        return "capped"
    return "grew"


@dataclass(frozen=True)
class Snapshot:
    t: float
    grid: np.ndarray
    values: np.ndarray


@dataclass
class Diagnostics:
    clamp_events: int = 0
    growth_events: int = 0
    truncated: bool = False
    truncation_time: float | None = None
    n_steps: int = 0
    final_cells: int = 0


@dataclass
class RunResult:
    config: SimulationConfig
    snapshots: list
    traces: dict
    diagnostics: Diagnostics


def run(config: SimulationConfig,
        initial_values: np.ndarray | None = None) -> RunResult:
    """Integrate from t = 0 to t_end, recording snapshots and, at every
    step, the level traces.

    Before it records a state, the run asks ``maybe_grow_domain`` whether
    the front has room: on "grew" it starts again from the initial data on
    twice the width, so its output is that of a static run on the final
    domain; on "capped" it stops at the last recorded step.
    ``growth_events`` counts the restarts.

    ``initial_values`` overrides the sampled initial data (diagnostic hook
    for convergence tests).  They fix the grid, so such a run must be
    static.
    """
    if initial_values is not None and config.growth_margin is not None:
        raise InputError("initial values fix the grid: use a static domain")
    state = initialize_state(config, initial_values)
    n_steps = _step_of(config.t_end, config.dt)
    snap_steps = {_step_of(ts, config.dt): ts for ts in config.snapshot_times}
    if config.t_end == 0 and not snap_steps:
        snap_steps[0] = 0.0
    lam_front = min(config.lambdas)
    i_front = config.lambdas.index(lam_front)
    diag = Diagnostics()

    k = 0
    while True:
        if k == 0:  # a fresh state at t = 0
            positions, snapshots = [], []
        else:
            lo = imex_step(state, config)
            state.t = k * config.dt  # keep time exact; avoids accumulation drift
            if math.isnan(lo):
                raise SolverError(f"NaN in state at t={state.t}", t=state.t)
        grid, values = state.grid, state.values
        front = math.inf
        if not values[-1] >= lam_front:
            # every level set ends inside the domain (a NaN last cell is
            # measured too, so that the next step reports it)
            xs = [extract_level_position(grid, values, lam) for lam in config.lambdas]
            front = xs[i_front]
        status = maybe_grow_domain(state, config, front)
        if status == "grew":
            diag.growth_events += 1
            state = initialize_state(config, n=2 * state.n - 1)
            k = 0
            continue
        if status == "capped":
            diag.truncated = True
            break
        positions.append(xs)
        if k in snap_steps:
            snapshots.append(Snapshot(snap_steps[k], grid, values.copy()))
        if k == n_steps:
            break
        k += 1

    diag.clamp_events = state.clamp_events
    diag.n_steps = max(len(positions) - 1, 0)
    if diag.truncated:
        diag.truncation_time = diag.n_steps * config.dt
    diag.final_cells = state.n
    times = config.dt * np.arange(len(positions))
    by_level = np.array(positions, dtype=float).reshape(-1, len(config.lambdas)).T.copy()
    traces = {lam: LevelSetTrace(lam=lam, times=times, positions=x)
              for lam, x in zip(config.lambdas, by_level)}
    return RunResult(config=config, snapshots=snapshots, traces=traces,
                     diagnostics=diag)
