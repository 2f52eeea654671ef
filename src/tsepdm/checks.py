"""The input rules of the package, each written once: a real number, a real
number in an interval, and an integer with a lower bound.

A value of the wrong kind raises TypeError; NaN or a value outside the
interval raises ValueError as ``<name> must be in <interval>, got <value>``.
This module imports nothing from the package, so that every module, `ntf`
at the bottom included, takes its rules from here.
"""

from __future__ import annotations

import numbers


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


def check_interval(name: str, value, lo: float, hi: float, ends: str = "[]",
                   at: float | None = None) -> float:
    """`check_real` of ``value``, or ValueError unless it lies between ``lo``
    and ``hi``: ``ends`` is "[]", "()", "[)" or "(]", a bracket taking its
    end in. NaN lies in no interval."""
    x = check_real(name, value, at)
    if not ((lo <= x if ends[0] == "[" else lo < x)
            and (x <= hi if ends[1] == "]" else x < hi)):
        raise ValueError(f"{_label(name, at)} must be in {ends[0]}{lo:g}, {hi:g}{ends[1]}, "
                         f"got {x!r}")
    return x


def check_integer(name: str, value, lo: int) -> int:
    """``value`` as an int, or TypeError unless it is an integer (numpy's
    pass, a bool does not) and ValueError below ``lo``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    n = int(value)
    if n < lo:
        raise ValueError(f"{name} must be in [{lo}, inf), got {n}")
    return n
