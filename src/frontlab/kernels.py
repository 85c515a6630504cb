"""Hot numeric kernel: the theta-weighted diffusion step.

Each step solves (I - theta*mu*L) u_new = rhs, mu = dt/dx**2, L the 3-point
Laplacian, with a reflecting (zero-flux) row on the left and a pinned
Dirichlet row on the right.  The matrix is strictly diagonally dominant for
theta in [1/2, 1], so the zero-pivot check is purely defensive.  It depends
only on (n, mu, theta): ``_factor`` computes its Thomas pivots once, and a
step is left with two first-order linear recurrences (the elimination and
the back-substitution).  Each is evaluated by recursive doubling (Stone
1973) in about log2(n) vector passes instead of an n-step Python loop.  The
cache per grid holds two work arrays, a scalar and a short array per pass,
not the O(n log n) coefficient products of every pass.
numpy only: importing scipy.linalg for its banded solvers would double the
resident memory of a small run and add about 0.3 s to start-up.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _plan(coef, s, g, tmp):
    # Passes of the scan g[i] += coef[i] * g[i-1] on the work array g: the
    # pass with stride k adds g[i-k] times the product of the k coefficients
    # ending at i.  Away from row 0 the pivots sit at their fixed point, so
    # that product is the scalar s**k outside a short range [lo, hi), which
    # is kept.  Passes stop once every product has underflowed to exactly 0,
    # as later ones would not change a bit.
    n = coef.shape[0]
    prod = coef.copy()
    passes = []
    k = 1
    while k < n and prod[k:].any():
        off = np.flatnonzero(prod[k:] != s) + k
        lo, hi = (int(off[0]), int(off[-1]) + 1) if off.size else (k, k)
        passes.append((g[:n - k], float(s), tmp[:n - k], g[lo - k:hi - k],
                       prod[lo:hi].copy(), tmp[lo - k:hi - k], g[k:]))
        prod[k:] *= prod[:-k]
        s = s * s
        k *= 2
    return passes


def _scan(passes):
    # Recursive doubling in place; each pass reads only values from before it.
    for src, s, tmp, head_src, head_prod, head_tmp, dst in passes:
        np.multiply(src, s, out=tmp)
        np.multiply(head_src, head_prod, out=head_tmp)
        dst += tmp


@lru_cache(maxsize=4)
def _factor(n, mu, theta):
    # Thomas pivots of the step matrix for n cells.  Returns 1/piv of rows
    # 0..n-2 (row n-1 is the identity) as the first rows' values and the
    # fixed-point value of the rest, then the work array and scan plan of
    # the elimination, coefficient a = tm/piv (a[0] = 0), and of the
    # back-substitution, coefficient c = -cp in reverse row order after a 0.
    tm = theta * mu
    b_in = 1.0 + 2.0 * tm
    piv = np.empty(n - 1, dtype=np.float64)
    cp = np.empty(n - 1, dtype=np.float64)
    piv[0] = b_in
    cp[0] = -2.0 * tm / b_in
    m = n - 1
    for i in range(1, n - 1):
        piv[i] = b_in - (-tm) * cp[i - 1]
        if piv[i] == 0.0:
            raise ZeroDivisionError("zero pivot in tridiagonal solve")
        cp[i] = -tm / piv[i]
        if cp[i] == cp[i - 1]:
            # the pivot recurrence has reached its fixed point exactly
            piv[i:], cp[i:], m = piv[i], cp[i], i
            break
    inv_piv = 1.0 / piv
    a = tm * inv_piv
    a[0] = 0.0
    c = np.empty(n, dtype=np.float64)
    c[0] = 0.0
    c[1:] = -cp[::-1]
    # each sweep's work array is the other sweep's scratch space
    d, x = np.empty(n - 1), np.empty(n)
    return (inv_piv[:m].copy(), float(inv_piv[-1]),
            d, _plan(a, a[-1], d, x), x, _plan(c, c[1], x, d))


def theta_step(u, f_u, mu, theta, right_value):
    """One IMEX step: explicit reaction increment ``f_u`` (already multiplied
    by dt; None for pure diffusion), theta-implicit diffusion, reflecting
    left and pinned right boundary.  Returns a new array whose last entry is
    ``right_value``.

    The step works in buffers kept with its factor, so it is not re-entrant.
    """
    inv_head, inv_tail, d, fwd, x, bwd = _factor(u.shape[0], mu, theta)
    omt = (1.0 - theta) * mu
    if f_u is None:
        d[:] = u[:-1]
    else:
        np.add(u[:-1], f_u[:-1], out=d)
    if omt:
        d[0] += omt * (2.0 * u[1] - 2.0 * u[0])
        d[1:] += omt * (u[:-2] - 2.0 * u[1:-1] + u[2:])
    m = inv_head.shape[0]
    d[:m] *= inv_head
    d[m:] *= inv_tail
    _scan(fwd)
    # back-substitution from the pinned last row down, on a reversed copy:
    # the scan is about twice as fast on contiguous memory
    x[0] = right_value
    x[1:] = d[::-1]
    _scan(bwd)
    return x[::-1].copy()
