"""IMEX finite-difference integration of u_t = u_xx + f(u) on a growing 1D grid.

Time stepping treats the reaction explicitly and the diffusion with a
backward Euler solve, which is unconditionally monotone.  Boundary
conditions: zero-flux on the left (the solution sits on its plateau there)
and Dirichlet on the right, pinned to the undisturbed initial tail value.

The domain is sized from the analytic rate predictions and optionally
doubles its width whenever the front approaches the right boundary, filling
new cells with the initial data.  A static domain gets the same test with
the default margin 0.1: when the front reaches it, the run stops and is
flagged truncated, as the pinned boundary would otherwise arrest the front
silently.  Clamping of the state into [0, 1] is a diagnostic safety net:
production runs must report zero clamp events, and the CLI exits 3 when a
run reports any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .envelope import Regime, classify_regime, predict_level_envelope
from .errors import (DomainError, InputError, NumericalError, ParameterError,
                     SolverError)
from .initial_data import InitialDataSpec, eval_u0
from .measurement import LevelSetTrace, extract_level_position
from .reaction import ReactionFamily, eval_f

# Values outside [ -CLAMP_TOL, 1 + CLAMP_TOL ] count as clamp events; values
# inside the tolerance band are floating-point noise and are clipped silently.
CLAMP_TOL = 1e-12
# right-edge fraction watched on a static domain (growth_margin None)
STATIC_MARGIN = 0.1


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one run.

    ``x_left``/``x_right`` may be None, in which case the domain is sized
    from the regime prediction (see ``auto_size_domain``).  The width
    doubles whenever the region where u exceeds min(lambdas)/10 enters the
    right-edge fraction ``growth_margin``; None freezes the domain, and the
    run stops, truncated, when that region enters its right 10%.
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
        if any(ts < 0 or ts > self.t_end + 1e-9 for ts in self.snapshot_times):
            raise ParameterError("snapshot times must lie in [0, t_end]")
        if tuple(sorted(self.snapshot_times)) != tuple(self.snapshot_times):
            raise ParameterError("snapshot times must be sorted")
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
    right_value: float
    clamp_events: int = 0
    _grid: np.ndarray | None = field(default=None, repr=False, compare=False)
    # (n, margin, first cell of the right-edge fraction margin)
    _margin_start: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def x_right(self) -> float:
        return self.x_left + (self.n - 1) * self.dx

    @property
    def grid(self) -> np.ndarray:
        """Cell positions, built once per domain size and read-only."""
        if self._grid is None or self._grid.shape[0] != self.n:
            self._grid = _make_grid(self.x_left, self.dx, self.n)
        return self._grid

    def margin_start(self, margin: float) -> int:
        """First cell of the right-edge fraction ``margin`` of the width,
        found once per domain size."""
        cached = self._margin_start
        if cached is None or cached[0] != self.n or cached[1] != margin:
            edge = self.x_right - margin * ((self.n - 1) * self.dx)
            # first cell whose position x_left + i*dx (the grid entry) is >= edge
            cached = (self.n, margin, int(np.searchsorted(self.grid, edge)))
            self._margin_start = cached
        return cached[2]


def _make_grid(x_left: float, dx: float, n: int) -> np.ndarray:
    grid = x_left + dx * np.arange(n)
    grid.flags.writeable = False
    return grid


def auto_size_domain(config: SimulationConfig) -> tuple[float, float]:
    """Resolve (x_left, x_right), predicting the needed width when unset.

    Accelerating regimes take twice the fast-side envelope position at t_end
    (epsilon = r/4); the finite-speed regime takes twice the conservative
    KPP-type speed bound 2*sqrt(r).  Explicit bounds pass through unchanged.
    """
    clamp = config.data.clamp_point
    x_left = config.x_left if config.x_left is not None else clamp - 10.0
    if config.x_right is not None:
        if config.x_right <= x_left:
            raise ParameterError("x_right must exceed x_left")
        return x_left, config.x_right

    r = config.reaction.params.r if config.reaction is not None else 1.0
    alpha = config.reaction.params.alpha if config.reaction is not None else 1.0
    fallback = clamp + max(10.0, 4.0 * math.sqrt(r) * config.t_end)
    if config.reaction is None or config.t_end == 0:
        return x_left, fallback

    regime = classify_regime(alpha, config.data)
    if regime.regime is Regime.FINITE_SPEED:
        x_right = clamp + 4.0 * math.sqrt(r) * config.t_end
    else:
        try:
            _, x_fast = predict_level_envelope(alpha, r, config.data,
                                               epsilon=r / 4.0, t=config.t_end)
            x_right = 2.0 * x_fast
        except (DomainError, OverflowError) as exc:
            raise InputError(
                "domain prediction failed and no explicit bounds given") from exc
    x_right = max(x_right, clamp + 10.0)
    if not math.isfinite(x_right):
        raise InputError("predicted domain is not finite; provide explicit bounds")
    return x_left, x_right


def initialize_state(config: SimulationConfig,
                     initial_values: np.ndarray | None = None) -> SimState:
    x_left, x_right = auto_size_domain(config)
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
    return SimState(t=0.0, x_left=x_left, dx=config.dx, values=values,
                    right_value=float(values[-1]), _grid=grid)


def imex_step(state: SimState, config: SimulationConfig) -> float:
    """Advance one step: explicit reaction, backward Euler diffusion, clamp.

    Returns the smallest new value before clamping, NaN when any value is
    NaN.  The clamp count, clip and floor passes run only when that minimum
    or the maximum shows a value for them to change.
    """
    u = state.values
    f_u = None
    if config.reaction is not None:
        f_u = eval_f(config.reaction, u)
        np.multiply(f_u, config.dt, out=f_u)
    mu = config.dt / config.dx ** 2
    try:
        new = kernels.theta_step(u, f_u, mu, state.right_value)
    except ZeroDivisionError as exc:
        raise NumericalError("zero pivot in tridiagonal solve") from exc
    lo, hi = np.minimum.reduce(new), np.maximum.reduce(new)
    if lo < 0.0 or hi > 1.0:
        if lo < -CLAMP_TOL or hi > 1.0 + CLAMP_TOL:
            state.clamp_events += int(np.count_nonzero(
                (new < -CLAMP_TOL) | (new > 1.0 + CLAMP_TOL)))
        np.clip(new, 0.0, 1.0, out=new)
    if lo < config.floor:
        new[new < config.floor] = 0.0
    state.values = new
    state.t += config.dt
    return float(lo)


def maybe_grow_domain(state: SimState, config: SimulationConfig) -> str:
    """Double the domain width when the front nears the right edge.

    The front nears it when u > min(lambdas)/10 somewhere in the right-edge
    fraction ``growth_margin`` of the width (``STATIC_MARGIN`` on a static
    domain).  Returns "ok" (no growth needed), "grew", or "capped" when the
    domain may not grow: it is static, or the cell cap refuses the
    extension (the caller should stop and flag truncation).  New cells are
    filled with the initial data; spacing is unchanged.
    """
    margin = STATIC_MARGIN if config.growth_margin is None else config.growth_margin
    start = state.margin_start(margin)
    # fmax skips NaN unless all are NaN, and NaN compares false: the same
    # verdict as (values[start:] > threshold).any() from one reduction
    if not np.fmax.reduce(state.values[start:]) > min(config.lambdas) / 10.0:
        return "ok"
    if config.growth_margin is None:
        return "capped"
    new_n = 2 * state.n - 1
    if new_n > config.cell_cap:
        return "capped"
    new_grid = state.x_left + state.dx * np.arange(state.n, new_n)
    new_tail = eval_u0(config.data, new_grid)
    state.values = np.concatenate([state.values, new_tail])
    state.right_value = float(state.values[-1])
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
    mass_monotone: bool = True


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

    ``initial_values`` overrides the sampled initial data (diagnostic hook
    for convergence tests); domain growth still fills with the configured
    data, so override runs should use a static domain.
    """
    state = initialize_state(config, initial_values)
    n_steps = int(round(config.t_end / config.dt))
    diag = Diagnostics()

    snap_steps: dict[int, float] = {}
    for ts in config.snapshot_times:
        snap_steps[int(round(ts / config.dt))] = ts
    if config.t_end == 0 and not snap_steps:
        snap_steps[0] = 0.0

    times: dict[float, list] = {lam: [] for lam in config.lambdas}
    positions: dict[float, list] = {lam: [] for lam in config.lambdas}

    def record_trace(t_now: float):
        grid = state.grid
        for lam in config.lambdas:
            x_lam = extract_level_position(grid, state.values, lam)
            times[lam].append(t_now)
            positions[lam].append(x_lam)

    snapshots: list[Snapshot] = []

    def record_snapshot(t_now: float):
        snapshots.append(Snapshot(t_now, state.grid, state.values.copy()))

    record_trace(0.0)
    if 0 in snap_steps:
        record_snapshot(0.0)

    mass = [float(state.values.sum()) * state.dx]
    for k in range(1, n_steps + 1):
        status = maybe_grow_domain(state, config)
        if status == "grew":
            diag.growth_events += 1
        elif status == "capped":
            diag.truncated = True
            diag.truncation_time = state.t
            break
        lo = imex_step(state, config)
        state.t = k * config.dt  # keep time exact; avoids accumulation drift
        if math.isnan(lo):
            raise SolverError(f"NaN in state at t={state.t}", t=state.t)
        record_trace(state.t)
        if k in snap_steps:
            record_snapshot(snap_steps[k])
            mass.append(float(state.values.sum()) * state.dx)

    diag.clamp_events = state.clamp_events
    diag.n_steps = n_steps if not diag.truncated else k - 1
    diag.final_cells = state.n
    mass.append(float(state.values.sum()) * state.dx)
    # domain growth adds tail mass; compare successive totals with a small
    # relative allowance for the pinned-boundary flux
    diag.mass_monotone = bool(np.all(np.diff(mass) >= -1e-8 * max(mass)))

    traces = {lam: LevelSetTrace(lam=lam,
                                 times=np.asarray(times[lam]),
                                 positions=np.asarray(positions[lam]))
              for lam in config.lambdas}
    return RunResult(config=config, snapshots=snapshots, traces=traces,
                     diagnostics=diag)
