"""Scalar-or-array helpers for the analytic chain.

The closed forms in :mod:`psqkd.gaussian`, :mod:`psqkd.subtraction` and
:mod:`psqkd.analysis` take Python floats or NumPy arrays of one shape and
run the same code on both.  These helpers keep a scalar evaluation on
Python floats, which are several times cheaper than NumPy scalars, and
let a range check fire when any element of an array fails it.
"""

from __future__ import annotations

import math

import numpy as np

# all_set and any_set reduce with count_nonzero, a few times cheaper than
# ndarray.all()/any() on the short arrays of a tap grid.


def all_set(mask) -> bool:
    """True iff every element of a boolean mask (or a plain bool) is set."""
    if isinstance(mask, np.ndarray):
        return np.count_nonzero(mask) == mask.size
    return bool(mask)


def any_set(mask) -> bool:
    """True iff any element of a boolean mask (or a plain bool) is set."""
    if isinstance(mask, np.ndarray):
        return np.count_nonzero(mask) > 0
    return bool(mask)


def first_where(mask, *values) -> tuple:
    """The values at the first set element of mask, for error messages.

    Scalars pass through unchanged; arrays are broadcast to the mask's shape.
    """
    if not isinstance(mask, np.ndarray):
        return values
    i = int(np.flatnonzero(mask)[0])
    return tuple(np.broadcast_to(v, mask.shape).flat[i] for v in values)


def select(mask, a, b):
    """np.where(mask, a, b), or a plain conditional for a scalar mask."""
    if isinstance(mask, np.ndarray):
        return np.where(mask, a, b)
    return a if mask else b


def at_least(x, floor):
    """Elementwise max(x, floor)."""
    return np.maximum(x, floor) if isinstance(x, np.ndarray) else max(x, floor)


def sqrt(x):
    """Square root of a non-negative scalar or array.

    Both branches are correctly rounded, so they give the same bits.
    """
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)
