"""The input rules of the package, each written once: a real number, a real
number in an interval, a sequence of them, and an integer with a lower bound.

A value of the wrong kind raises TypeError; NaN or a value outside the
interval raises ValueError as ``<name> must be in <interval>, got <value>``
(entry i of a sequence as ``<name>[i]``). This module imports nothing from
the package, so that every module, `ntf` included, takes its rules here.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def _label(name: str, at: float | None) -> str:
    """``name``, or ``name(at)`` for the value of a function of time at ``at``."""
    return name if at is None else f"{name}({at})"


def check_real(name: str, value, at: float | None = None) -> float:
    """``value`` as a float, or TypeError unless it is a real number: a str,
    a bool (numpy's too), a complex value or None is not. With ``at`` the
    value is a function of time read at ``at``, named ``name(at)``."""
    if type(value) is float:  # a plain float needs no type check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{_label(name, at)} must be a real number, got {value!r}")
    return float(value)


def _inside(x: float, lo: float, hi: float, ends: str) -> bool:
    return (lo <= x if ends[0] == "[" else lo < x) and (x <= hi if ends[1] == "]" else x < hi)


def check_interval(name: str, value, lo: float, hi: float, ends: str = "[]",
                   at: float | None = None) -> float:
    """`check_real` of ``value``, or ValueError unless it lies between ``lo``
    and ``hi``: ``ends`` is "[]", "()", "[)" or "(]", a bracket taking its
    end in. NaN lies in no interval."""
    x = check_real(name, value, at)
    if not _inside(x, lo, hi, ends):
        raise ValueError(f"{_label(name, at)} must be in {ends[0]}{lo:g}, {hi:g}{ends[1]}, "
                         f"got {x!r}")
    return x


def check_reals(name: str, values, lo: float = -math.inf, hi: float = math.inf,
                ends: str = "()", length: int | None = None) -> np.ndarray:
    """``values``, one-dimensional and of ``length`` entries when given (else
    ValueError), as a float array, entry i checked by `check_interval` as
    ``name[i]``. An integer or float ndarray whose extremes lie inside needs
    no more; any other sequence is checked entry by entry, so that a str or
    a bool in a list is refused as it is alone."""
    arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if arr.ndim != 1 or length not in (None, arr.shape[0]):
        want = "one-dimensional" if length is None else f"of shape ({length},)"
        raise ValueError(f"{name} must be {want}, got shape {arr.shape}")
    if arr.dtype.kind in "iuf" and (arr.size == 0 or _inside(arr.min(), lo, hi, ends)
                                    and _inside(arr.max(), lo, hi, ends)):
        return arr.astype(float, copy=False)
    return np.array([check_interval(f"{name}[{i}]", v, lo, hi, ends)
                     for i, v in enumerate(arr)], dtype=float)


def check_integer(name: str, value, lo: int) -> int:
    """``value`` as an int, or TypeError unless it is an integer (numpy's
    pass, a bool does not) and ValueError below ``lo``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    n = int(value)
    if n < lo:
        raise ValueError(f"{name} must be in [{lo}, inf), got {n}")
    return n
