"""Hot numeric kernel: the backward Euler diffusion step.

Each step solves (I - mu*L) u_new = rhs, mu = dt/dx**2, L the 3-point
Laplacian, with a reflecting (zero-flux) row on the left and a pinned
Dirichlet row on the right.  The matrix is strictly diagonally dominant, so
the zero-pivot check is purely defensive.  It depends only on (n, mu):
``_factor`` computes its Thomas pivots once, and a step is left with two
first-order linear recurrences g[i] = s*g[i-1] + d[i] (the elimination and
the back-substitution).  Each is a blocked prefix sum
(Blelloch 1990) over the n - 1 unpinned cells laid out as one (R, L) view:
R = ceil((n-1)/limit) rows of L = ceil((n-1)/R) cells, where limit is the
longest row whose factors stay within 2**-600..2**600.  Inside a row
g = post * cumsum(d * pre, from the row's carry): one ``np.add.accumulate``
between two multiplies by (R, L) factor arrays, and a Python loop of R - 1
scalar steps chains the rows.  The factors are full arrays, not one (L,) row
broadcast over the view, because numpy runs a broadcast operand through its
buffered iterator at nearly twice the cost.  The row of the first L cells,
which holds the few pivots that have not reached their fixed point, has
exact per-cell factors; every other row repeats the settled powers.  The
R*L - (n-1) < R pad cells sit at the end of the elimination and at the start
of the back-substitution, which reads the elimination's end backwards; they
get pre = 0.  A step makes 15 numpy calls, whatever n and mu: the rhs, six
per sweep (multiply, row sums and their list, the carries, accumulate,
multiply), zeroing the pads and the reversed copy.  A grid that fits one row
skips the row sums and carries, 9 calls in all.  The cache per grid holds
the two work arrays and the four (R, L) factor arrays, about 6n floats.
numpy only: importing scipy.linalg for its banded solvers would double the
resident memory of a small run and add about 0.3 s to start-up.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericalError

# s**-L <= 2**SCALE_BITS bounds the scaled terms of a row of L cells
SCALE_BITS = 600


class _Sweep(NamedTuple):
    # one recurrence as rows of one view: row r continues row r-1, row 0
    # continues the value before the sweep
    src: np.ndarray    # (R, L) view the pre-scale reads
    g: np.ndarray      # (R, L) view of the work array it writes
    pre: np.ndarray    # (R, L): 1/post, times 1/piv in the elimination; 0 on pads
    post: np.ndarray   # (R, L): coef[1]*...*coef[j] along a row
    k_in: float        # coef[0]: the first row's factor on the value before it
    k_rows: list       # [r - 1]: row r's factor post[r-1, -1]*coef[0] on row r-1


def _scan(sweep, c_in):
    # g[i] = coef[i]*g[i-1] + pre-scaled src[i] from the value c_in before
    # the first cell.  Within a row that is g = post * cumsum(src * pre,
    # starting from the row's carry); the carries live in the scaled space,
    # where row r's is k_rows[r - 1] * (sum of row r-1 + its carry).
    src, g, pre, post, k, k_rows = sweep
    np.multiply(src, pre, out=g)
    k *= c_in
    if k_rows:
        carries = [k]
        for k_row, total in zip(k_rows, np.add.reduce(g[:-1], axis=1).tolist()):
            k = k_row * (total + k)
            carries.append(k)
        g[:, 0] += carries
    else:
        g[0, 0] += k
    np.add.accumulate(g, axis=1, out=g)
    np.multiply(g, post, out=g)


def _exact_powers(num, den, j):
    # (num/den)**j for the exact quotient of two floats.  With q its
    # rounding and num/den = q*(1 + r), |r| < 2**-53, powers of q alone
    # would drift by j*r: 1.4e-12 relative over 26 000 rows.
    q = num / den
    (a, b), (c, e), (f, h) = (float(v).as_integer_ratio() for v in (num, den, q))
    r = (a * e * h - b * c * f) / (b * c * f)  # num/(den*q) - 1, in exact integers
    return np.power(q, j) * np.exp(j * r)


@lru_cache(maxsize=4)
def _factor(n, mu):
    # Thomas pivots of the step matrix for n cells, then the two sweeps: the
    # elimination over d, the rhs without the pinned row (cell i divides by
    # piv[i] and carries mu/piv[i] of cell i-1, cell 0 carries nothing), and
    # the back-substitution over y = x[1:], the cells in reverse order after
    # the pinned x[0] (coefficient -cp).  Cells 0..m-1 have not reached the
    # pivots' fixed point; they open the elimination's first row and close
    # the back-substitution's last.
    b_in = 1.0 + 2.0 * mu
    cells = n - 1
    piv = np.empty(cells, dtype=np.float64)
    cp = np.empty(cells, dtype=np.float64)
    piv[0] = b_in
    cp[0] = -2.0 * mu / b_in
    m = cells
    for i in range(1, cells):
        piv[i] = b_in - (-mu) * cp[i - 1]
        if piv[i] == 0.0:
            raise ZeroDivisionError("zero pivot in tridiagonal solve")
        cp[i] = -mu / piv[i]
        if cp[i] == cp[i - 1]:
            # the pivot recurrence has reached its fixed point exactly
            piv[i:], cp[i:], m = piv[i], cp[i], i
            break
    inv_piv = 1.0 / piv
    a = mu * inv_piv  # a[0] is unused: cell 0 carries nothing
    c = -cp[::-1]
    # every coefficient but a[0] lies in [s, 1), so a row of up to `limit`
    # cells keeps its factors within 2**-SCALE_BITS..2**SCALE_BITS; the
    # first row must hold the m unsettled cells
    limit = int(SCALE_BITS / -math.log2(min(a[1:].min(initial=1.0), c.min())))
    rows = -(-cells // max(limit, 1))
    width = -(-cells // rows)
    if limit < 1 or width < m:
        raise NumericalError(f"mu = {mu!r} is too small for a row of the scan")
    pads = rows * width - cells
    d_buf, x_buf = np.zeros(rows * width), np.zeros(1 + rows * width)
    # the elimination divides by the settled pivot cell after cell, so its
    # factors are powers of the exact quotient mu/piv
    powers = _exact_powers(mu, piv[-1], np.arange(width + 1.0))
    post = np.empty((rows, width))
    post[1:] = powers[:-1]
    post[0, 0] = 1.0
    np.cumprod(a[1:m], out=post[0, 1:m])
    post[0, m:] = post[0, m - 1] * powers[1:width - m + 1]
    pre = inv_piv[-1] / post
    pre[0] = inv_piv[:width] / post[0]
    pre.reshape(-1)[cells:] = 0.0
    rows_d = d_buf.reshape(rows, width)
    fwd = _Sweep(rows_d, rows_d, pre, post, 0.0, (powers[1] * post[:-1, -1]).tolist())
    # the back-substitution multiplies by the stored -cp, so its factors
    # are products of those floats; its first row starts with the pads
    powers = np.power(c[0], np.arange(float(width)))
    post = np.empty((rows, width))
    post[:] = powers
    post[0, :pads] = 1.0
    post[0, pads:] = powers[:width - pads]
    post[-1, 0] = 1.0
    np.cumprod(c[cells - width + 1:], out=post[-1, 1:])
    pre = 1.0 / post
    pre[0, :pads] = 0.0
    first = c[np.arange(1, rows) * width - pads]
    bwd = _Sweep(d_buf[::-1].reshape(rows, width), x_buf[1:].reshape(rows, width),
                 pre, post, float(c[0]), (first * post[:-1, -1]).tolist())
    return d_buf[:cells], d_buf[cells:], x_buf[pads:], fwd, bwd


def theta_step(u, f_u, mu, right_value):
    """One IMEX step: explicit reaction increment ``f_u`` (already multiplied
    by dt; None for pure diffusion), backward Euler diffusion, reflecting
    left and pinned right boundary.  Returns a new array whose last entry is
    ``right_value``.

    The benchmark (``perfbench/tracing.py``) times this function by its
    name, ``frontlab.kernels.theta_step``, and counts its cells from
    argument 0, so both the name and ``u`` as the first argument stay.  The
    step works in buffers kept with its factor, so it is not re-entrant.
    """
    d, pad, x, fwd, bwd = _factor(u.shape[0], mu)
    if f_u is None:
        d[:] = u[:-1]
    else:
        np.add(u[:-1], f_u[:-1], out=d)
    _scan(fwd, 0.0)
    # back-substitution from the pinned last cell down: its pre-scale reads
    # d backwards into x[1:], so the scan runs on contiguous memory.  It
    # reads the elimination's pad cells first; zeroed, a NaN left there by
    # an earlier step cannot reach a cell through pre = 0
    pad.fill(0.0)
    _scan(bwd, right_value)
    x[0] = right_value
    return x[::-1].copy()
