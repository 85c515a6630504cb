"""Hot numeric kernel: the theta-weighted diffusion step.

Each step solves (I - theta*mu*L) u_new = rhs, mu = dt/dx**2, L the 3-point
Laplacian, with a reflecting (zero-flux) row on the left and a pinned
Dirichlet row on the right.  The matrix is strictly diagonally dominant for
theta in [1/2, 1], so the zero-pivot check is purely defensive.  It depends
only on (n, mu, theta): ``_factor`` computes its Thomas pivots once, and a
step is left with two first-order linear recurrences g[i] = s*g[i-1] + d[i]
(the elimination and the back-substitution).  Each is a blocked prefix sum
(Blelloch 1990).  Inside a block of B cells g = s**j * cumsum(d * s**-j):
one ``np.add.accumulate`` over an (nb, B) view between two broadcast
multiplies, and nb - 1 scalar steps chain the blocks.  B is computed from
s so that s**-B <= 2**600, which keeps the scaled terms finite and s**B
normal.  The few rows whose pivots have not reached their fixed point get
exact per-row factors in a head segment of their own.  A step makes 13
numpy calls when each sweep is one segment and about 27 with blocks,
whatever n; the cache per grid holds the two work arrays and a few vectors
of one block length.
numpy only: importing scipy.linalg for its banded solvers would double the
resident memory of a small run and add about 0.3 s to start-up.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericalError

# s**-B <= 2**SCALE_BITS bounds the scaled terms of a row of B cells
SCALE_BITS = 600


class _Segment(NamedTuple):
    # rows of one scan segment: row r continues row r-1, row 0 continues
    # the value before the segment
    src: np.ndarray   # (rows, length) view the pre-scale reads
    g: np.ndarray     # (rows, length) view of the work array it writes
    pre: np.ndarray   # 1/post[j], times 1/piv in the elimination
    post: np.ndarray  # coef[1]*...*coef[j] along a row
    k0: float         # coef[0]: the first row's factor on the value before it
    k_row: float      # post[-1]*coef[0]: one row's factor on the next row


def _scan(segments, c_in):
    # g[i] = coef[i]*g[i-1] + pre-scaled src[i], segment after segment from
    # the value c_in before the first.  Within a row that is
    # g = post * cumsum(src * pre, starting from the row's carry); the
    # carries live in the scaled space, where row r's is
    # k_row * (sum of row r-1 + its carry).
    for src, g, pre, post, k0, k_row in segments:
        np.multiply(src, pre, out=g)
        k = k0 * c_in
        if len(g) == 1:
            g[0, 0] += k
        else:
            carries = [k]
            for total in np.add.reduce(g[:-1], axis=1).tolist():
                k = k_row * (total + k)
                carries.append(k)
            g[:, 0] += carries
        np.add.accumulate(g, axis=1, out=g)
        np.multiply(g, post, out=g)
        c_in = float(g[-1, -1])


def _exact_powers(num, den, j):
    # (num/den)**j for the exact quotient of two floats.  With q its
    # rounding and num/den = q*(1 + r), |r| < 2**-53, powers of q alone
    # would drift by j*r: 1.4e-12 relative over 26 000 rows.
    q = num / den
    (a, b), (c, e), (f, h) = (float(v).as_integer_ratio() for v in (num, den, q))
    r = (a * e * h - b * c * f) / (b * c * f)  # num/(den*q) - 1, in exact integers
    return np.power(q, j) * np.exp(j * r)


@lru_cache(maxsize=4)
def _factor(n, mu, theta):
    # Thomas pivots of the step matrix for n cells, then the scan segments
    # of the elimination (over d, the rhs without the pinned row; row i
    # divides by piv[i] and carries tm/piv[i] of row i-1, row 0 carries
    # nothing) and of the back-substitution (over y = x[1:], the rows in
    # reverse order after the pinned x[0]; coefficient -cp).  Rows 0..m-1
    # have not reached the pivots' fixed point.  They open the elimination
    # and close the back-substitution, in a head segment of one row of
    # H >= m cells with per-row factors; the other rows form nb rows
    # (blocks) of the same length.
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
    a = tm * inv_piv  # a[0] is unused: row 0 carries nothing
    c = -cp[::-1]
    # every coefficient but a[0] lies in [s, 1), so a row of up to `limit`
    # cells keeps its factors within 2**-SCALE_BITS..2**SCALE_BITS; the
    # blocks are m cells shorter, so that the head (the m unsettled rows
    # and the remainder) fits one row too
    limit = int(SCALE_BITS / -math.log2(min(a[1:].min(initial=1.0), c.min())))
    block = limit - m
    if block < 1:
        raise NumericalError(f"mu = {mu!r} is too small for a block of the scan")
    nb, rem = divmod(n - 1 - m, block)
    head, tail = m + rem, nb * block
    d, x = np.empty(n - 1), np.empty(n)
    y, d_rev = x[1:], d[::-1]
    # the elimination divides by the settled pivot row after row, so its
    # factors are powers of the exact quotient tm/piv
    post = np.empty(head)
    post[0] = 1.0
    np.cumprod(a[1:m], out=post[1:m])
    post[m:] = post[m - 1] * _exact_powers(tm, piv[-1], np.arange(1.0, rem + 1))
    rows = d[:head].reshape(1, head)
    fwd = [_Segment(rows, rows, inv_piv[:head] / post, post, 0.0, 0.0)]
    # the back-substitution multiplies by the stored -cp, so its factors
    # are products of those floats
    bwd = []
    if nb:
        j = np.arange(float(block))
        post = _exact_powers(tm, piv[-1], j)
        rows = d[head:].reshape(nb, block)
        fwd.append(_Segment(rows, rows, inv_piv[-1] / post, post, float(tm / piv[-1]),
                            float(_exact_powers(tm, piv[-1], float(block)))))
        post = np.power(c[0], j)
        bwd.append(_Segment(d_rev[:tail].reshape(nb, block), y[:tail].reshape(nb, block),
                            1.0 / post, post, float(c[0]), float(c[0]) ** block))
    post = np.empty(head)
    post[0] = 1.0
    np.cumprod(c[tail + 1:], out=post[1:])
    bwd.append(_Segment(d_rev[tail:].reshape(1, head), y[tail:].reshape(1, head),
                        1.0 / post, post, float(c[tail]), 0.0))
    return d, x, fwd, bwd


def theta_step(u, f_u, mu, theta, right_value):
    """One IMEX step: explicit reaction increment ``f_u`` (already multiplied
    by dt; None for pure diffusion), theta-implicit diffusion, reflecting
    left and pinned right boundary.  Returns a new array whose last entry is
    ``right_value``.

    The step works in buffers kept with its factor, so it is not re-entrant.
    """
    d, x, fwd, bwd = _factor(u.shape[0], mu, theta)
    omt = (1.0 - theta) * mu
    if f_u is None:
        d[:] = u[:-1]
    else:
        np.add(u[:-1], f_u[:-1], out=d)
    if omt:
        d[0] += omt * (2.0 * u[1] - 2.0 * u[0])
        d[1:] += omt * (u[:-2] - 2.0 * u[1:-1] + u[2:])
    _scan(fwd, 0.0)
    # back-substitution from the pinned last row down: its pre-scale reads d
    # backwards into x[1:], so the scan runs on contiguous memory
    x[0] = right_value
    _scan(bwd, right_value)
    return x[::-1].copy()
