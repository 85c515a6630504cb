"""Kernels: the factor-once theta step against a general Thomas solve."""

import numpy as np
import pytest

from frontlab import kernels
from frontlab.errors import NumericalError


def tridiagonal_solve(lower, diag, upper, rhs):
    # Thomas elimination for general bands (lower/upper have length n-1):
    # the oracle the theta step is checked against
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


def step_oracle(u, f_u, mu, theta, right_value):
    # the theta step as one explicit-band Thomas solve
    n = u.shape[0]
    omt, tm = (1.0 - theta) * mu, theta * mu
    rhs = np.empty(n)
    rhs[0] = u[0] + f_u[0] + omt * (2.0 * u[1] - 2.0 * u[0])
    rhs[1:-1] = u[1:-1] + f_u[1:-1] + omt * (u[:-2] - 2.0 * u[1:-1] + u[2:])
    rhs[-1] = right_value
    lower = np.full(n - 1, -tm)
    upper = np.full(n - 1, -tm)
    diag = np.full(n, 1.0 + 2.0 * tm)
    upper[0] = -2.0 * tm
    lower[-1] = 0.0
    diag[-1] = 1.0
    return tridiagonal_solve(lower, diag, upper, rhs)


def front_profiles(n):
    # monotone profiles whose tails reach 1e-300: a pure exponential, and a
    # plateau-and-front shape with the same tail
    x = np.linspace(0.0, 1.0, n)
    tail = np.exp(-690.0 * x)
    return [tail, np.minimum(1.0, 1e3 * tail / (1.0 + np.exp(30.0 * (x - 0.3))))]


def block_count(n, mu, theta):
    # blocks in the scan's block segment for n cells (0: the head segment
    # takes the whole sweep)
    fwd = kernels._factor(n, mu, theta)[2]
    return fwd[-1].g.shape[0] if len(fwd) > 1 else 0


def first_size_with(blocks, mu, theta):
    # the smallest grid whose scan has this many blocks, by bisection
    lo, hi = 3, 4
    while block_count(hi, mu, theta) < blocks:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if block_count(mid, mu, theta) >= blocks else (mid, hi)
    return hi


def assert_close_to_oracle(u, mu, theta):
    f_u = 0.01 * u * (1.0 - u)
    out = kernels.theta_step(u, f_u, mu, theta, u[-1])
    expected = step_oracle(u, f_u, mu, theta, u[-1])
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
        out = kernels.theta_step(u, np.zeros(40), 4.0, 1.0, 0.0)
        assert np.array_equal(out, u)

    def test_unit_state_fixed_point(self):
        u = np.ones(40)
        out = kernels.theta_step(u, np.zeros(40), 4.0, 1.0, 1.0)
        assert np.allclose(out, 1.0, atol=1e-14)

    def test_right_boundary_pinned_exactly(self):
        rng = np.random.default_rng(3)
        u = np.sort(rng.uniform(0.0, 1.0, 50))[::-1].copy()
        out = kernels.theta_step(u, np.zeros(50), 2.0, 0.7, 0.123456)
        assert out[-1] == 0.123456

    def test_mass_conserved_without_reaction(self):
        # zero-flux left, pinned right far from support: diffusion conserves
        x = np.linspace(0.0, 40.0, 801)
        u = np.exp(-((x - 8.0) ** 2))
        out = u.copy()
        for _ in range(50):
            out = kernels.theta_step(out, np.zeros_like(out), 1.0, 1.0, out[-1])
        assert np.sum(out) == pytest.approx(np.sum(u), rel=1e-10)

    # "edge k": the first grid with k blocks and its two neighbours
    @pytest.mark.parametrize("n", [3, 4, 5, 257, 2601, "edge 1", "edge 2", "edge 8"])
    @pytest.mark.parametrize("mu", [5e-4, 0.4, 4.0, 100.0])
    @pytest.mark.parametrize("theta", [0.5, 0.8, 1.0])
    def test_matches_thomas_oracle(self, theta, mu, n):
        sizes = [n]
        if isinstance(n, str):
            blocks = int(n.split()[1])
            edge = first_size_with(blocks, mu, theta)
            assert block_count(edge - 1, mu, theta) == blocks - 1
            sizes = [edge - 1, edge, edge + 1]
        for size in sizes:
            for u in front_profiles(size):
                assert_close_to_oracle(u, mu, theta)

    @pytest.mark.parametrize("mu", [1e-6, 1e4])
    def test_wide_grid_extreme_mu(self, mu):
        # 26 090 cells at the smallest and largest block lengths; under
        # filterwarnings = error this also shows that no factor overflows
        assert_close_to_oracle(front_profiles(26090)[1], mu, 0.5)

    def test_cache_holds_work_arrays_and_block_vectors(self):
        # beyond its two work arrays a grid's factor keeps vectors of about
        # one block length, not of the grid's length
        n = 26090
        d, x, fwd, bwd = kernels._factor(n, 4.0, 1.0)
        block = fwd[-1].g.shape[1]
        bases = {}
        for seg in fwd + bwd:
            for arr in seg:
                if isinstance(arr, np.ndarray):
                    while arr.base is not None:
                        arr = arr.base
                    bases[id(arr)] = arr
        extra = sum(a.nbytes for key, a in bases.items() if key not in (id(d), id(x)))
        assert d.nbytes + x.nbytes == 8 * (2 * n - 1)
        assert extra <= 10 * 8 * block
        assert 10 * block < n / 3

    @pytest.mark.parametrize("mu", [1e-6, 5e-4, 0.4, 4.0, 100.0, 1e4])
    def test_factors_within_scale_bound(self, mu):
        # the design bound s**-B <= 2**600: no factor of a row leaves
        # [2**-600, 2**600], on the grids with the longest head segment
        # for 0, 1 and 2 blocks
        for blocks in (1, 2, 3):
            n = first_size_with(blocks, mu, 1.0) - 1
            _, _, fwd, bwd = kernels._factor(n, mu, 1.0)
            for seg in fwd + bwd:
                assert seg.pre.max() <= 2.0 ** kernels.SCALE_BITS
                assert seg.post.min() >= 2.0 ** -kernels.SCALE_BITS

    def test_too_small_mu_reported(self):
        # a coefficient below 2**-600 leaves no room for a block
        with pytest.raises(NumericalError):
            kernels.theta_step(np.ones(10), None, 1e-300, 1.0, 1.0)

    def test_each_size_gets_its_own_factor(self):
        # domain growth changes n between steps with the same mu and theta;
        # a returned state must not change when later steps run
        results = [assert_close_to_oracle(u, 4.0, 1.0)
                   for n in (257, 513, 257, 1025) for u in front_profiles(n)]
        for out, expected in results:
            assert np.all(np.abs(out - expected) <= 1e-12 * np.abs(expected))
