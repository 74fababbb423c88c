"""Exact and floating-point combinatorial / special-function kernels.

Everything here is pure and deterministic.  The exact layer works on
``fractions.Fraction`` (arbitrary-precision rationals, always reduced,
positive denominator); the floating layer uses binary64 with stable
recurrences.  The four binomial identity families behind the analytic
sum-of-squares certificates are evaluated verbatim in exact arithmetic:
we verify the identities' two sides, we do not re-derive the recurrences
that prove them.

Two SciPy modules load on first use, inside the functions that call them:
``scipy.special`` in ``gauss_laguerre`` and ``scipy.optimize`` in
``linprog``, the LP solver wrapper.  A process that never integrates or
solves an LP so loads neither, and the SDP commands start with numpy and
``scipy.linalg`` alone.  ``contextuality`` and ``torpedo`` bind ``linprog``
as a module attribute and call it by its global name, so that a tracer or
a test can patch it there.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

QUADRATURE_NODES = 200  # default Gauss-Laguerre rule for orthonormality checks


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


def laguerre_poly_series(k: int, x):
    """L_k(x) from the explicit sum; exact when x is int/Fraction."""
    return sum(
        Fraction((-1) ** l, math.factorial(l)) * binomial(k, l) * x**l
        for l in range(k + 1)
    )


def laguerre_fn(k: int, x: float) -> float:
    """Orthonormal Laguerre basis function (-1)^k L_k(x) exp(-x/2) on x >= 0."""
    if x < 0:
        raise ValueError("laguerre_fn defined on x >= 0")
    sign = -1.0 if k % 2 else 1.0
    return sign * laguerre_poly(k, float(x)) * math.exp(-x / 2.0)


def gauss_laguerre(nodes: int = QUADRATURE_NODES):
    """Nodes and weights for integrating f(x) e^{-x} on [0, inf)."""
    from scipy.special import roots_laguerre

    x, w = roots_laguerre(nodes)
    return x, w


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported at its first call (a dict lookup after)."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def laguerre_overlap(p: int, q: int, nodes: int = QUADRATURE_NODES) -> float:
    """Quadrature value of the inner product of basis functions p and q.

    The weight e^{-x} of the rule absorbs the two e^{-x/2} factors, so the
    integrand is the plain polynomial product with the sign prefactors.
    """
    x, w = gauss_laguerre(nodes)
    sign = -1.0 if (p + q) % 2 else 1.0
    return sign * float(np.sum(w * laguerre_poly(p, x) * laguerre_poly(q, x)))


def change_of_basis(nu: Sequence, m: int):
    """Map power moments nu to Laguerre-basis moments mu, degrees 0..m.

    mu_k = sum_{l<=k} nu_l (-1)^{k+l}/l! C(k,l).  Exact on rational input.
    """
    if len(nu) < m + 1:
        raise ValueError("sequence shorter than m+1")
    nu = [Fraction(v) for v in nu[: m + 1]]
    return [
        sum(
            nu[l] * Fraction((-1) ** (k + l), math.factorial(l)) * binomial(k, l)
            for l in range(k + 1)
        )
        for k in range(m + 1)
    ]


def change_of_basis_inverse(mu: Sequence, m: int):
    """Inverse map: nu_l = sum_{k<=l} mu_k C(l,k) l!."""
    if len(mu) < m + 1:
        raise ValueError("sequence shorter than m+1")
    mu = [Fraction(v) for v in mu[: m + 1]]
    return [
        sum(mu[k] * binomial(l, k) * math.factorial(l) for k in range(l + 1))
        for l in range(m + 1)
    ]


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


def laguerre_at_two_bounded(k_max: int = 1000) -> bool:
    """Finite check that |L_k(2)| <= 1 for all k <= k_max.

    Supports the analytic dual solution at index 2; only the finite range
    is checked (the general statement is conjectural).
    """
    prev, cur = 1.0, -1.0  # L_0(2), L_1(2)
    if abs(prev) > 1 or abs(cur) > 1:
        return False
    for j in range(1, k_max):
        prev, cur = cur, ((2 * j - 1) * cur - j * prev) / (j + 1)
        if abs(cur) > 1.0 + 1e-12:
            return False
    return True


# ---------------------------------------------------------------------------
# Multi-index helpers (tuples of naturals)
# ---------------------------------------------------------------------------


def mi_norm(k: Iterable[int]) -> int:
    return sum(k)


def mi_pi(k: Iterable[int]) -> int:
    """pi_k = prod (k_i + 1), the box volume below k."""
    out = 1
    for v in k:
        out *= v + 1
    return out


def simplex_size(modes: int, m: int) -> int:
    """Number of multi-indices k with |k| <= m, i.e. C(modes+m, m)."""
    return binomial(modes + m, m)
