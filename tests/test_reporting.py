"""The chunked CSV writers against the per-row writers they replaced."""

import io
import tracemalloc

import numpy as np
import pytest

from frontlab.initial_data import algebraic
from frontlab.measurement import LevelSetTrace
from frontlab.reaction import weakly_monostable
from frontlab.reporting import CHUNK_ROWS, write_snapshots_csv
from frontlab.solver import SimulationConfig, Snapshot, _make_grid, run

EDGE_VALUES = [0.0, 1.0, 5e-324, 1e-300]
SIZES = [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]
TIMES = (0.0, 2.5, 5.0, 7.5)


def oracle_snapshots_csv(path, snapshots) -> None:
    """One f-string and one write per row."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,x,u\n")
        for snap in snapshots:
            t_repr = repr(float(snap.t))
            for x, u in zip(snap.grid, snap.values):
                fh.write(f"{t_repr},{float(x)!r},{float(u)!r}\n")


def oracle_trace_csv(trace) -> str:
    fh = io.StringIO()
    fh.write("t,x_lambda\n")
    for t, x in zip(trace.times, trace.positions):
        fh.write(f"{float(t)!r},{float(x)!r}\n")
    return fh.getvalue()


def profile(n: int, seed: int) -> np.ndarray:
    """Plateau, front and tail values with the edge values mixed in."""
    rng = np.random.default_rng(seed)
    values = np.concatenate([np.ones(n // 3), rng.uniform(0.0, 1.0, n // 3),
                             np.geomspace(1e-3, 1e-320, n - 2 * (n // 3))])
    values[rng.integers(0, n, size=min(n, 8))] = rng.choice(EDGE_VALUES, size=min(n, 8))
    return values


def assert_same_bytes(tmp_path, snapshots):
    write_snapshots_csv(tmp_path / "chunked.csv", snapshots)
    oracle_snapshots_csv(tmp_path / "oracle.csv", snapshots)
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


class TestSnapshotsCsv:
    @pytest.mark.parametrize("n", SIZES)
    def test_four_snapshots_share_one_grid(self, tmp_path, n):
        # negative x on the left, as in every bundle
        grid = _make_grid(-10.0, 0.05, n)
        assert_same_bytes(tmp_path, [Snapshot(t, grid, profile(n, seed))
                                     for seed, t in enumerate(TIMES)])

    @pytest.mark.parametrize("n", SIZES)
    def test_two_grids_as_after_a_doubling(self, tmp_path, n):
        small = _make_grid(-10.0, 0.05, n)
        wide = _make_grid(-10.0, 0.05, 2 * n - 1)
        snapshots = [Snapshot(0.0, small, profile(n, 0)),
                     Snapshot(2.5, small, profile(n, 1)),
                     Snapshot(5.0, wide, profile(2 * n - 1, 2)),
                     Snapshot(7.5, wide, profile(2 * n - 1, 3))]
        assert_same_bytes(tmp_path, snapshots)

    def test_equal_grids_that_are_different_objects(self, tmp_path):
        n = CHUNK_ROWS + 1
        first, second = _make_grid(-10.0, 0.05, n), _make_grid(-3.0, 0.5, n)
        snapshots = [Snapshot(0.0, first, profile(n, 0)),
                     Snapshot(1.0, first.copy(), profile(n, 1)),
                     Snapshot(2.0, second, profile(n, 2)),
                     Snapshot(3.0, first, profile(n, 3))]
        assert_same_bytes(tmp_path, snapshots)

    def test_edge_values_in_every_column(self, tmp_path):
        values = np.array(EDGE_VALUES + [-0.0, 0.1, 1.0 - 2 ** -53])
        snapshots = [Snapshot(t, values, values[::-1].copy()) for t in (0.0, 5e-324, 1e-300)]
        assert_same_bytes(tmp_path, snapshots)

    def test_run_with_domain_growth(self, tmp_path):
        # the algebraic front enters the right 10% of the 1001-cell domain
        # [-7, 3] before t = 6; the run restarts on 2001 cells, so every
        # snapshot shares the one wider grid
        config = SimulationConfig(
            reaction=weakly_monostable(alpha=0.4), data=algebraic(beta=1.0, scale=100.0),
            dx=0.01, dt=0.01, t_end=6.0, x_left=-7.0, x_right=3.0,
            snapshot_times=(0.0, 1.5, 3.0, 4.5, 6.0))
        result = run(config)
        assert result.diagnostics.growth_events == 1
        assert {snap.grid.size for snap in result.snapshots} == {2001} and 2001 > CHUNK_ROWS
        assert len({id(snap.grid) for snap in result.snapshots}) == 1
        assert_same_bytes(tmp_path, result.snapshots)

    def test_shared_grid_formatted_without_a_str_per_value(self, tmp_path):
        # four wide_power-sized snapshots; a cache of one str per grid value
        # alone would take about 1.7 MB
        n = 26_090
        grid = _make_grid(-10.0, 0.05, n)
        snapshots = [Snapshot(t, grid, profile(n, seed)) for seed, t in enumerate(TIMES)]
        tracemalloc.start()
        try:
            write_snapshots_csv(tmp_path / "snapshots.csv", snapshots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20


class TestTraceCsv:
    @staticmethod
    def trace(n: int) -> LevelSetTrace:
        positions = np.linspace(-4.0, 30.0, n)
        positions[: min(n, 4)] = [-0.0, 5e-324, 1e-300, 1.0][: min(n, 4)]
        return LevelSetTrace(0.5, 0.01 * np.arange(n), positions)

    @pytest.mark.parametrize("n", [0] + SIZES)
    def test_to_stringio(self, n):
        trace = self.trace(n)
        fh = io.StringIO()
        trace.to_csv(fh)
        assert fh.getvalue() == oracle_trace_csv(trace)

    @pytest.mark.parametrize("n", SIZES)
    def test_to_path(self, tmp_path, n):
        trace = self.trace(n)
        trace.to_csv(tmp_path / "trace.csv")
        trace.to_csv(str(tmp_path / "trace_str.csv"))
        want = oracle_trace_csv(trace).encode("ascii")
        assert (tmp_path / "trace.csv").read_bytes() == want
        assert (tmp_path / "trace_str.csv").read_bytes() == want
