"""Kernels: the factor-once backward Euler step against a general Thomas solve."""

import numpy as np
import pytest

from frontlab import kernels
from frontlab.errors import NumericalError


def tridiagonal_solve(lower, diag, upper, rhs):
    # Thomas elimination for general bands (lower/upper have length n-1):
    # the oracle the kernel step is checked against
    lower, diag, upper, rhs = (np.asarray(a, dtype=np.float64)
                               for a in (lower, diag, upper, rhs))
    n = diag.shape[0]
    cp = np.empty(n)
    dp = np.empty(n)
    cp[0] = upper[0] / diag[0] if n > 1 else 0.0
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n):
        piv = diag[i] - lower[i - 1] * cp[i - 1]
        cp[i] = upper[i] / piv if i < n - 1 else 0.0
        dp[i] = (rhs[i] - lower[i - 1] * dp[i - 1]) / piv
    x = np.empty(n)
    x[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def explicit_half(u, mu, theta):
    # the explicit (1 - theta) share of a theta-weighted step, reflecting left
    v = u.copy()
    omt = (1.0 - theta) * mu
    v[0] += omt * (2.0 * u[1] - 2.0 * u[0])
    v[1:-1] += omt * (u[:-2] - 2.0 * u[1:-1] + u[2:])
    return v


def step_oracle(u, f_u, mu, right_value):
    # the backward Euler step as one explicit-band Thomas solve
    n = u.shape[0]
    rhs = u + f_u
    rhs[-1] = right_value
    lower = np.full(n - 1, -mu)
    upper = np.full(n - 1, -mu)
    diag = np.full(n, 1.0 + 2.0 * mu)
    upper[0] = -2.0 * mu
    lower[-1] = 0.0
    diag[-1] = 1.0
    return tridiagonal_solve(lower, diag, upper, rhs)


def front_profiles(n):
    # monotone profiles whose tails reach 1e-300: a pure exponential, and a
    # plateau-and-front shape with the same tail
    x = np.linspace(0.0, 1.0, n)
    tail = np.exp(-690.0 * x)
    return [tail, np.minimum(1.0, 1e3 * tail / (1.0 + np.exp(30.0 * (x - 0.3))))]


def row_count(n, mu):
    # rows of the scan's (R, L) view for n cells
    return kernels._factor(n, mu)[3].g.shape[0]


def first_size_with(rows, mu):
    # the smallest grid whose scan has this many rows, by bisection
    lo, hi = 3, 4
    while row_count(hi, mu) < rows:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if row_count(mid, mu) >= rows else (mid, hi)
    return hi


def assert_close_to_oracle(u, mu, theta=1.0):
    # theta < 1: the kernel as the implicit half of a theta-weighted step,
    # solving at theta * mu after the explicit half is added to u
    f_u = 0.01 * u * (1.0 - u)
    v = explicit_half(u, mu, theta)
    out = kernels.theta_step(v, f_u, theta * mu, u[-1])
    expected = step_oracle(v, f_u, theta * mu, u[-1])
    assert out[-1] == u[-1]
    assert np.all(np.abs(out - expected) <= 1e-12 * np.abs(expected))
    return out, expected


class TestThomasSolve:
    def test_identity_system(self):
        v = np.array([3.0, -1.0, 2.5, 0.0])
        out = tridiagonal_solve(np.zeros(3), np.ones(4), np.zeros(3), v)
        assert np.array_equal(out, v)

    def test_three_by_three(self):
        # diag (2,2,2), off (-1,-1), rhs (1,0,1) -> (1,1,1) by direct inversion
        out = tridiagonal_solve([-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0],
                                [1.0, 0.0, 1.0])
        assert np.allclose(out, [1.0, 1.0, 1.0], rtol=1e-14)

    def test_random_against_dense_oracle(self):
        rng = np.random.default_rng(12345)
        n = 50
        lower = rng.uniform(-1.0, 0.0, n - 1)
        upper = rng.uniform(-1.0, 0.0, n - 1)
        diag = 2.5 + rng.uniform(0.0, 1.0, n)  # strictly dominant
        rhs = rng.uniform(-5.0, 5.0, n)
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        expected = np.linalg.solve(dense, rhs)
        out = tridiagonal_solve(lower, diag, upper, rhs)
        assert np.max(np.abs(out - expected) / np.abs(expected)) < 1e-12

    def test_size_one(self):
        out = tridiagonal_solve(np.zeros(0), np.array([4.0]), np.zeros(0),
                                np.array([2.0]))
        assert np.array_equal(out, [0.5])


class TestThetaStep:
    def test_zero_state_fixed_point(self):
        u = np.zeros(40)
        out = kernels.theta_step(u, np.zeros(40), 4.0, 0.0)
        assert np.array_equal(out, u)

    def test_unit_state_fixed_point(self):
        u = np.ones(40)
        out = kernels.theta_step(u, np.zeros(40), 4.0, 1.0)
        assert np.allclose(out, 1.0, atol=1e-14)

    def test_right_boundary_pinned_exactly(self):
        rng = np.random.default_rng(3)
        u = np.sort(rng.uniform(0.0, 1.0, 50))[::-1].copy()
        out = kernels.theta_step(u, np.zeros(50), 2.0, 0.123456)
        assert out[-1] == 0.123456

    def test_mass_conserved_without_reaction(self):
        # zero-flux left, pinned right far from support: diffusion conserves
        x = np.linspace(0.0, 40.0, 801)
        u = np.exp(-((x - 8.0) ** 2))
        out = u.copy()
        for _ in range(50):
            out = kernels.theta_step(out, np.zeros_like(out), 1.0, out[-1])
        assert np.sum(out) == pytest.approx(np.sum(u), rel=1e-10)

    # "edge k": the first grid whose scan carries across k row boundaries
    # (k + 1 rows) and its two neighbours.  "one row": grids at mu = 1e4
    # where no pivot settles, so row 0 is one cumprod over every cell; at
    # theta < 1 an explicit half that large only amplifies the grid mode
    @pytest.mark.parametrize("theta, mu, n", [
        *((theta, mu, n) for theta in (0.5, 0.8, 1.0)
          for mu in (5e-4, 0.4, 4.0, 100.0)
          for n in (3, 4, 5, 257, 2601, "edge 1", "edge 2", "edge 8")),
        (1.0, 1e4, "one row"),
    ])
    def test_matches_thomas_oracle(self, theta, mu, n):
        sizes = [n]
        if n == "one row":
            sizes = [51, 59, 201, 401]
            assert all(row_count(size, theta * mu) == 1 for size in sizes)
        elif isinstance(n, str):
            rows = int(n.split()[1]) + 1
            edge = first_size_with(rows, theta * mu)
            assert row_count(edge - 1, theta * mu) == rows - 1
            sizes = [edge - 1, edge, edge + 1]
        for size in sizes:
            for u in front_profiles(size):
                assert_close_to_oracle(u, mu, theta)

    @pytest.mark.parametrize("mu", [1e-6, 1e4])
    def test_wide_grid_extreme_mu(self, mu):
        # 26 090 cells at the smallest and largest block lengths; under
        # filterwarnings = error this also shows that no factor overflows
        assert_close_to_oracle(front_profiles(26090)[1], mu)

    def test_cache_holds_work_arrays_and_factors(self):
        # beyond its two work arrays a grid's factor keeps the four (R, L)
        # factor arrays: at most 4(n - 1 + R) floats, as the pads number
        # fewer than R
        n = 26090
        d, pad, x, fwd, bwd = kernels._factor(n, 4.0)
        rows, width = fwd.g.shape
        bases = {}
        for arr in (d, pad, x, *fwd, *bwd):
            if isinstance(arr, np.ndarray):
                while arr.base is not None:
                    arr = arr.base
                bases[id(arr)] = arr
        work = {id(d.base): d.base, id(x.base): x.base}
        extra = sum(a.nbytes for key, a in bases.items() if key not in work)
        assert sum(a.nbytes for a in work.values()) == 8 * (2 * rows * width + 1)
        assert pad.size == rows * width - (n - 1) < rows
        assert extra <= 4 * 8 * (n - 1 + rows)

    @pytest.mark.parametrize("mu", [1e-6, 5e-4, 0.4, 4.0, 100.0, 1e4])
    def test_factors_within_scale_bound(self, mu):
        # the design bound s**-L <= 2**600: no factor of a row, pads
        # included, leaves [2**-600, 2**600], on the grids with the longest
        # rows for 1, 2 and 3 rows; the pads get pre = 0
        for rows in (2, 3, 4):
            n = first_size_with(rows, mu) - 1
            _, pad, _, fwd, bwd = kernels._factor(n, mu)
            for sweep in (fwd, bwd):
                assert sweep.pre.max() <= 2.0 ** kernels.SCALE_BITS
                assert sweep.post.min() >= 2.0 ** -kernels.SCALE_BITS
            if pad.size:
                assert not fwd.pre.reshape(-1)[-pad.size:].any()
                assert not bwd.pre.reshape(-1)[:pad.size].any()

    def test_nan_step_leaves_no_trace(self):
        # a NaN state poisons its own step only: the pad cells of the
        # cached factor must not carry it into the next step on the grid
        mu = 5e-4
        n = first_size_with(3, mu) + 1
        assert kernels._factor(n, mu)[1].size
        u = front_profiles(n)[1]
        bad = u.copy()
        bad[n // 2] = np.nan
        assert np.isnan(kernels.theta_step(bad, None, mu, u[-1])).any()
        assert_close_to_oracle(u, mu)

    def test_too_small_mu_reported(self):
        # a coefficient below 2**-600 leaves no room for a row
        with pytest.raises(NumericalError):
            kernels.theta_step(np.ones(10), None, 1e-300, 1.0)

    def test_each_size_gets_its_own_factor(self):
        # domain growth changes n between steps with the same mu;
        # a returned state must not change when later steps run
        results = [assert_close_to_oracle(u, 4.0)
                   for n in (257, 513, 257, 1025) for u in front_profiles(n)]
        for out, expected in results:
            assert np.all(np.abs(out - expected) <= 1e-12 * np.abs(expected))
