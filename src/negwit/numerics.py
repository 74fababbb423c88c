"""Exact and floating-point combinatorial / special-function kernels.

Everything here is pure and deterministic.  The exact layer works on
``fractions.Fraction`` (arbitrary-precision rationals, always reduced,
positive denominator); the floating layer uses binary64 with stable
recurrences.  The four binomial identity families behind the analytic
sum-of-squares certificates are evaluated verbatim in exact arithmetic:
we verify the identities' two sides, we do not re-derive the recurrences
that prove them.

SciPy's LP solver loads on first use: ``linprog`` imports
``scipy.optimize`` inside its body.  A process that solves no LP never
loads it, and the SDP commands start with numpy and ``scipy.linalg``
alone.  ``contextuality`` and ``torpedo`` bind ``linprog`` as a module
attribute and call it by its global name, so that a tracer or a test can
patch it there.
"""

from __future__ import annotations

import math
from fractions import Fraction


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient, 0 when k > n or k < 0."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def laguerre_poly(k: int, x):
    """Laguerre polynomial L_k(x) by the three-term recurrence.

    Works for floats and Fractions alike; the recurrence is numerically
    stable where the explicit alternating sum is not.
    """
    if k < 0:
        raise ValueError("k must be a natural number")
    prev = 1 * (x * 0 + 1)  # one, in the arithmetic of x
    if k == 0:
        return prev
    cur = 1 - x
    for j in range(1, k):
        prev, cur = cur, ((2 * j + 1 - x) * cur - j * prev) / (j + 1)
    return cur


def laguerre_fn(k: int, x: float) -> float:
    """Orthonormal Laguerre basis function (-1)^k L_k(x) exp(-x/2) on x >= 0."""
    if x < 0:
        raise ValueError("laguerre_fn defined on x >= 0")
    sign = -1.0 if k % 2 else 1.0
    return sign * laguerre_poly(k, float(x)) * math.exp(-x / 2.0)


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported at its first call (a dict lookup after)."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


# ---------------------------------------------------------------------------
# Binomial identity families certifying the sum-of-squares decompositions.
# Each case evaluates both printed sides exactly; a term whose binomial
# factor vanishes is zero even when a companion denominator vanishes too
# (the removable singularities always co-occur with a zero binomial).
# ---------------------------------------------------------------------------

ZEILBERGER_CASES = ("even-even", "even-odd", "odd-even", "odd-odd")


def _ee_sides(s: int, t: int):
    lhs = sum(
        Fraction(
            binomial(2 * k, 2 * s) * binomial(2 * k, k) * binomial(2 * t - 2 * k, t - k),
            2 ** (2 * t) * math.factorial(2 * s),
        )
        for k in range(s, t + 1)
    )
    rhs = Fraction(0)
    for i in range(2 * t - 2 * s + 1):
        c = binomial(t, i) ** 2 * binomial(t, 2 * t - 2 * s - i) ** 2
        if c == 0:
            continue
        rhs += Fraction(
            math.factorial(i) * math.factorial(2 * t - 2 * s - i) * binomial(2 * t, t) * c,
            2 ** (2 * s) * math.factorial(2 * t),
        )
    return lhs, rhs


def _eo_sides(s: int, t: int):
    lhs = sum(
        Fraction(
            binomial(2 * k, 2 * s + 1) * binomial(2 * k, k) * binomial(2 * t - 2 * k, t - k),
            2 ** (2 * t) * math.factorial(2 * s + 1),
        )
        for k in range(s + 1, t + 1)
    )
    rhs = Fraction(0)
    for i in range(2 * t - 2 * s):
        c = binomial(t, i) ** 2 * binomial(t, 2 * t - 2 * s - i - 1) ** 2
        if c == 0:
            continue
        rhs += Fraction(
            math.factorial(i)
            * math.factorial(2 * t - 2 * s - i - 1)
            * binomial(2 * t, t)
            * c,
            2 ** (2 * s + 1) * math.factorial(2 * t),
        )
    return lhs, rhs


def _oe_sides(s: int, t: int):
    pref = Fraction(math.factorial(2 * t + 1), math.factorial(2 * s))
    lhs = Fraction(0)
    for k in range(t - s + 1):
        b = binomial(2 * k + 2 * s, 2 * s) * binomial(t, k + s) ** 2
        if b == 0:
            continue
        lhs += (
            Fraction(b, binomial(2 * t + 1, 2 * k + 2 * s))
            * (
                1
                - Fraction(
                    (2 * k + 2 * s + 1) ** 2,
                    (2 * k + 1) * (2 * t - 2 * s - 2 * k + 1),
                )
            )
        )
    lhs *= pref
    rhs = Fraction(0)
    for i in range(2 * t + 1 - 2 * s + 1):
        c = binomial(t, i) ** 2 * binomial(t, 2 * t - 2 * s - i + 1) ** 2
        if c == 0:
            continue
        rhs += Fraction(
            2 ** (2 * t - 2 * s + 1)
            * (2 * t + 2) ** 2
            * math.factorial(i)
            * math.factorial(2 * t + 1 - 2 * s - i)
            * c,
            (2 * t - 2 * i + 2) * (4 * s + 2 * i - 2 * t),
        )
    return lhs, -rhs


def _oo_sides(s: int, t: int):
    # The factorised print has a removable 0/0 at k=0; this two-term form
    # is the line it was factorised from and is defined everywhere.
    pref = Fraction(math.factorial(2 * t + 1), math.factorial(2 * s + 1))
    lhs = Fraction(0)
    for k in range(t - s + 1):
        w = binomial(t, k + s) ** 2
        if w == 0:
            continue
        term = Fraction(0)
        b1 = binomial(2 * k + 2 * s, 2 * s + 1)
        if b1:
            term -= Fraction(b1, binomial(2 * t + 1, 2 * k + 2 * s))
        b2 = binomial(2 * k + 2 * s + 1, 2 * s + 1)
        if b2:
            term += Fraction(b2, binomial(2 * t + 1, 2 * k + 2 * s + 1))
        lhs += w * term
    lhs *= pref
    rhs = Fraction(0)
    for i in range(2 * t - 2 * s + 1):
        c = binomial(t, i) ** 2 * binomial(t, 2 * t - 2 * s - i) ** 2
        if c == 0:
            continue
        rhs += Fraction(
            2 ** (2 * t - 2 * s)
            * (2 * t + 2) ** 2
            * math.factorial(i)
            * math.factorial(2 * t - 2 * s - i)
            * c,
            (2 * t - 2 * i + 2) * (4 * s + 2 * i - 2 * t + 2),
        )
    return lhs, rhs


_ZEIL_DISPATCH = {
    "even-even": _ee_sides,
    "even-odd": _eo_sides,
    "odd-even": _oe_sides,
    "odd-odd": _oo_sides,
}


def zeilberger_identity_check(case: str, s: int, t: int):
    """Evaluate both sides of one identity family; returns (lhs, rhs, equal)."""
    if case not in _ZEIL_DISPATCH:
        raise ValueError(f"unknown case {case!r}, expected one of {ZEILBERGER_CASES}")
    if not 0 <= s <= t:
        raise ValueError("need 0 <= s <= t")
    lhs, rhs = _ZEIL_DISPATCH[case](s, t)
    return lhs, rhs, lhs == rhs
