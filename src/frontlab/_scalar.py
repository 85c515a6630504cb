"""Scalar-in, scalar-out support for the array evaluators."""

from __future__ import annotations


def scalar_or_array(query, *values):
    """Return ``values`` as Python floats when ``query`` is 0-d, else as given.

    ``query`` is the evaluator's input after ``np.asarray``: a scalar
    argument arrives as a 0-d array.  One value comes back bare, several
    as a tuple.
    """
    if query.ndim == 0:
        values = tuple(float(v) for v in values)
    return values[0] if len(values) == 1 else values
