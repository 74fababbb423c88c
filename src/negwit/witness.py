"""Single-mode negativity-witness thresholds via converging SDP hierarchies.

Fidelity-based witnesses (weights a_1..a_n over Fock projectors, optional
displacement) have a threshold value over states with nonnegative Wigner
function.  Level m of the lower hierarchy restricts the radial profile to a
degree-m expansion; level m of the upper hierarchy relaxes pointwise
nonnegativity to a moment-matrix condition.  Both are finite SDPs built
here in exact rational arithmetic, in the Laguerre parity blocks G_k of
:func:`_upper_gram`, before conversion to floats.  Every exact certificate
is checked in those blocks with three operations: the rows <G_k, Q> = F_k,
the combination sum_k c_k G_k and :func:`exact_psd`.  They prove the
closed-form level-n optimum (:func:`certify_level_n_value`) and the
enclosures of solved values at any level.

Displacement never enters the programs; thresholds are displacement
invariant, so builders take only the weight vector.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import conic
from .numerics import binomial


@dataclass(frozen=True)
class WitnessSpec:
    """Weighted displaced-Fock-projector witness: sum_k a_k |k><k| displaced."""

    a: tuple
    alpha: complex = 0j

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        if not a:
            raise ValueError("weight vector must be nonempty")
        if any(not 0 <= v <= 1 for v in a):  # NaN fails both comparisons
            raise ValueError("weights must lie in [0, 1]")
        if abs(max(a) - 1.0) > 1e-12:
            raise ValueError("largest weight must equal 1")
        alpha = complex(self.alpha)
        if not cmath.isfinite(alpha):
            raise ValueError("displacement must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "alpha", alpha)

    @property
    def n(self) -> int:
        return len(self.a)

    @staticmethod
    def fock(n: int, alpha: complex = 0j) -> "WitnessSpec":
        try:
            n = operator.index(n)  # numpy ints pass; 1.5 is refused
        except TypeError:
            raise ValueError(f"witness index {n!r} must be an integer") from None
        if n < 1:
            raise ValueError("witness index must be >= 1")
        return WitnessSpec(a=(0.0,) * (n - 1) + (1.0,), alpha=alpha)


@dataclass(frozen=True)
class FockDiagonal:
    """Nonnegative unit-sum photon-number distribution (finite support)."""

    F: tuple

    def __post_init__(self):
        F = tuple(self.F)
        if any(not v >= 0 for v in F):  # NaN fails the comparison
            raise ValueError("entries must be nonnegative")
        total = sum(F)
        err = abs(float(total) - 1.0)
        if not err <= 1e-9:
            raise ValueError("entries must sum to 1")
        object.__setattr__(self, "F", F)


@dataclass(frozen=True)
class ThresholdBounds:
    level: int
    lower: float
    upper: float
    detail: dict = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------------------
# exact construction helpers
# ---------------------------------------------------------------------------


def _weights_exact(a: Sequence[float], m: int):
    """Objective weights on F_0..F_m as Fractions (index 0 is vacuum)."""
    w = [Fraction(0)] * (m + 1)
    for k, v in enumerate(a, start=1):
        w[k] = Fraction(v)  # floats convert bit-exactly
    return w


def _pairings(G, V):
    """<G_k, V> for every k, V one matrix per block of G."""
    return [sum((g * v).sum() for g, v in zip(gk, V)) for gk in G]


def _combine(c, G):
    """The blocks of sum_k c_k G_k."""
    return [sum(ck * g[b] for ck, g in zip(c, G)) for b in range(len(G[0]))]


# ---------------------------------------------------------------------------
# hierarchy builders
# ---------------------------------------------------------------------------


def _upper_gram(m: int):
    """Exact Gram blocks of the level-m moment matrix: (even, odd) per F_k.

    Entry (i, j) of the moment matrix of F = e_k is the pseudo-moment of
    x^i x^j: C(l, k) l! where i + j = 2l, and zero off parity.  The basis
    is split by parity and changed, by an exact triangular congruence, to
    L_a(x^2) and x L_a(x^2) with L_a(t) = sum_c (-1)^c C(a,c) t^c / c!; the
    vacuum's even block is then the identity and every entry is an integer.
    The blocks are read-only, so that one level's blocks can be shared.
    """
    out = [[] for _ in range(m + 1)]
    for p in (0, 1):
        s = (m - p) // 2 + 1
        # T_ac = (-1)^c C(a,c)/c! takes t^c to L_a, and T H T^T = A W A^T
        # with W_cd = H_{c+d}/(c! d!): the pseudo-moment's (c+d+p)! makes
        # W an integer matrix
        A = _pascal(s)
        for k in range(m + 1):
            W = np.array(
                [
                    [
                        binomial(c + d, c)
                        * (c + d + 1 if p else 1)
                        * binomial(c + d + p, k)
                        for d in range(s)
                    ]
                    for c in range(s)
                ],
                dtype=object,
            ).reshape(s, s)  # level 0 has an empty odd block
            g = A @ W @ A.T
            g.setflags(write=False)
            out[k].append(g)
    return tuple(tuple(g) for g in out)


def _pascal(s: int):
    """A_ac = (-1)^c C(a, c) for a, c < s: the integer part of the
    congruence of :func:`_upper_gram`.  A is an involution."""
    return np.array(
        [[(-1) ** c * binomial(a, c) for c in range(s)] for a in range(s)],
        dtype=object,
    ).reshape(s, s)


def _laguerre_blocks(m: int, mono):
    """The level-m Laguerre parity blocks of the Gram matrix whose entry at
    the monomials x^i, x^j is mono(i, j), which must vanish off parity.

    A profile with monomial Gram matrix M has Gram matrix T^-T M T^-1 in
    the basis of :func:`_upper_gram`, and T^-1 = diag(c!) A since A is an
    involution; pairings with G_k are unchanged, <G_k, Q> = <H_k, M>.
    """
    out = []
    for p in (0, 1):
        s = (m - p) // 2 + 1
        A = _pascal(s)
        fact = [math.factorial(c) for c in range(s)]
        M = np.array(
            [
                [fact[c] * fact[d] * Fraction(mono(2 * c + p, 2 * d + p)) for d in range(s)]
                for c in range(s)
            ],
            dtype=object,
        ).reshape(s, s)
        out.append(A.T @ M @ A)
    return tuple(out)


def _gram_stacks(G):
    """The exact Gram blocks rounded once: for each block j, the read-only
    stack of block j of every G[k]."""
    stacks = tuple(np.array([gk[j] for gk in G], dtype=float) for j in range(len(G[0])))
    for s in stacks:
        s.setflags(write=False)
    return stacks


def _level_stacks(m: int):
    """The Gram stacks of level m: :func:`_gram_stacks` of :func:`_upper_gram`.

    Both sides of every witness at level m are built from them.  A driver
    shares them by passing the builders ``functools.cache(_level_stacks)``,
    a cache that lives for its one call.
    """
    return _gram_stacks(_upper_gram(m))


def _compact_upper(S, w) -> conic.SdpProblem:
    """The moment-eliminated upper program from Gram stacks and weights.

    Variable k carries block k of every stack in ``S`` (see
    :func:`_gram_stacks`) and the weight ``w[k]``; variable 0 is
    eliminated by the unit sum.  Encoded in the "min" reading, so the
    solved value is -omega.
    """
    w = np.array(w, dtype=float)
    e = np.eye(len(w))
    return conic.SdpProblem(
        blocks=(-len(w), *(len(s[0]) for s in S)),
        # 0.0 - s, not -s: a zero entry is +0.0 in every block
        C=(-e[0], *(0.0 - s[0] for s in S)),
        A=(e[1:] - e[0], *(s[1:] - s[0] for s in S)),
        b=-(w[1:] - w[0]),
        sense="min",
    )


def build_upper_compact(
    spec: WitnessSpec, m: int, stacks=_level_stacks
) -> conic.SdpProblem:
    """Level-m upper relaxation with the moment variable eliminated.

    Variables are F_1..F_m only (F_0 = 1 - sum), constrained by the linear
    matrix inequality diag(F) (+) A(F) >= 0, with A(F) in the Laguerre
    parity blocks of :func:`_upper_gram`, whose stacks ``stacks(m)`` gives.
    """
    if m < spec.n:
        raise ValueError("level m must be at least the top witness index n")
    return _compact_upper(stacks(m), _weights_exact(spec.a, m))


def _compact_lower(S, w) -> conic.SdpProblem:
    """The lower program from Gram stacks and weights.

    Maximise sum w_k F_k over F >= 0 (one diagonal block) with sum F = 1,
    one PSD block Q_p per stack in ``S`` (see :func:`_gram_stacks`) and one
    row <G_k, Q> = F_k per variable k.
    """
    nvar = len(w)
    return conic.SdpProblem(
        blocks=(-nvar, *(len(s[0]) for s in S)),
        C=(np.array(w, dtype=float), *(np.zeros_like(s[0]) for s in S)),
        A=(
            np.vstack([np.ones(nvar), -np.eye(nvar)]),
            *(np.concatenate([np.zeros_like(s[:1]), s]) for s in S),
        ),
        b=[1.0] + [0.0] * nvar,
        sense="max",
    )


def build_lower(spec: WitnessSpec, m: int, stacks=_level_stacks) -> conic.SdpProblem:
    """Level-m lower-bound program: a sum-of-squares radial profile.

    Variables F_0..F_m >= 0 with unit sum and a PSD Gram matrix Q in the
    Laguerre parity blocks of :func:`_upper_gram`, tied by <G_k, Q> = F_k;
    ``stacks(m)`` gives the blocks' stacks.
    This is the coefficient-matching program (the profile's coefficients of
    odd powers of x vanish, those of x^{2l} match the signed binomial
    transform of F) reduced by the sign flip x -> -x, whose averaging kills
    the cross-parity entries and the odd rows.
    """
    if m < spec.n:
        raise ValueError("level m must be at least the top witness index n")
    return _compact_lower(stacks(m), _weights_exact(spec.a, m))


# the name of an earlier layout of the lower program, kept only because
# perfbench/tracing.py patches witness functions by name and looks it up
build_lower_dual = build_lower


# ---------------------------------------------------------------------------
# analytic solutions and certificates
# ---------------------------------------------------------------------------


def strictly_feasible_pair(m: int):
    """The interior point certifying strong duality at every level m.

    Q: the monomial Gram matrix diag(1/i!)/(2^{m+1}-1) in the Laguerre
    parity blocks, each positive definite; F: its rows, exactly
    F_k = C(m+1, k+1)/(2^{m+1}-1) > 0.
    """
    denom = 2 ** (m + 1) - 1
    Q = _laguerre_blocks(m, lambda i, j: Fraction(i == j, math.factorial(i) * denom))
    F = [Fraction(binomial(m + 1, k + 1), denom) for k in range(m + 1)]
    return Q, F


def lower_feasibility_residuals(G, Q, F):
    """Exact residuals [sum F - 1, <G_k, Q> - F_k, ...] of (Q, F) in the
    lower program on Gram blocks G, in one mode or several; Q holds one
    matrix per block of G."""
    return [sum(F) - 1, *(g - f for g, f in zip(_pairings(G, Q), F, strict=True))]


def _lower_feasible(G, Q, F) -> bool:
    """Exact: (Q, F) meets every row, F >= 0 and every block of Q is psd."""
    return (
        not any(lower_feasibility_residuals(G, Q, F))
        and min(F) >= 0
        and all(exact_psd(q.tolist()) for q in Q)
    )


def exact_sandwich(G, w, Q, F, mu) -> bool:
    """Exact proof that the lower program on Gram blocks G and weights w has
    the value sum_k w_k F_k.

    (Q, F) is feasible, so the value is at least that.  sum_k mu_k G_k is
    psd, so for y = max_k (w_k + mu_k) every feasible point has
    sum w_k F_k <= y - <sum mu_k G_k, Q> <= y.  So y must equal the value.
    """
    w = [Fraction(v) for v in w]
    return (
        _lower_feasible(G, Q, F)
        and all(exact_psd(c.tolist()) for c in _combine(mu, G))
        and max(a + d for a, d in zip(w, mu, strict=True))
        == sum(a * f for a, f in zip(w, F, strict=True))
    )


def analytic_primal(n: int) -> FockDiagonal:
    """Closed-form optimum of the level-n lower program (exact rationals)."""
    if n < 1:
        raise ValueError("need n >= 1")
    F = [Fraction(0)] * (n + 1)
    if n % 2 == 0:
        for k in range(0, n + 1, 2):
            F[k] = Fraction(
                binomial(k, k // 2) * binomial(n - k, (n - k) // 2), 2**n
            )
    else:
        top = binomial(n, n // 2)
        for k in range(n + 1):
            F[k] = Fraction(top * binomial(n // 2, k // 2) ** 2, 2**n * binomial(n, k))
    return FockDiagonal(F=tuple(F))


def analytic_value(n: int) -> Fraction:
    """binom(n, floor(n/2)) / 2^n, the exact level-n lower optimum."""
    return Fraction(binomial(n, n // 2), 2**n)


def sos_certificate(n: int):
    """Coefficients squaring to the analytic radial profile.

    Returns (ratios, s): the polynomial sum_i ratios[i] sqrt(s) x^i squared
    equals sum_k (-1)^k F^n_k L_k(x^2) identically.  ratios and s are exact;
    verification compares squared forms so no irrational square roots enter.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    s = Fraction(binomial(n, n // 2), 2**n * math.factorial(n))
    ratios = [Fraction(0)] * (n + 1)
    ratios[n] = Fraction(1)
    for k in range(2, n + 1, 2):
        if n % 2 == 0:
            ratios[n - k] = (
                Fraction((-1) ** (k // 2) * 2 ** (k // 2) * math.factorial(k // 2))
                * binomial(n // 2, k // 2) ** 2
            )
        else:
            if k == n + 1:
                continue
            ratios[n - k] = (
                Fraction((-1) ** (k // 2) * 2 ** (k // 2) * math.factorial(k // 2))
                * Fraction(n + 1, n - k + 1)
                * binomial(n // 2, k // 2) ** 2
            )
    return ratios, s


def sos_identity_holds(n: int) -> bool:
    """Exact check of the squared-polynomial identity: the square of the
    :func:`sos_certificate` polynomial meets every row <G_k, Q> = F^n_k of
    level n.  These functionals are independent on the even polynomials of
    degree 2n, so they fix its coefficients."""
    Q, F = primal_certificate(n, n)
    return not any(lower_feasibility_residuals(_upper_gram(n), Q, F))


def primal_certificate(n: int, m: int):
    """Exact feasible (Q, F) for the level-m lower program with value F^n_n.

    Q is the square of the closed-form polynomial in the Laguerre parity
    blocks: the polynomial has the parity of n, so Q is rank one in block
    n % 2 and zero in the other.  F is the analytic primal, padded to m+1.
    """
    if m < n:
        raise ValueError("need m >= n")
    ratios, s = sos_certificate(n)
    c = ratios + [Fraction(0)] * (m - n)
    Q = _laguerre_blocks(m, lambda i, j: s * c[i] * c[j])
    F = list(analytic_primal(n).F) + [Fraction(0)] * (m - n)
    return Q, F


def certify_level_n_value(n: int) -> bool:
    """Exact sandwich at level n: the closed-form primal and the dual vector
    (f, ..., f, f - 1) both give the value f = F^n_n."""
    Q, F = primal_certificate(n, n)
    f = analytic_value(n)
    return exact_sandwich(_upper_gram(n), [0] * n + [1], Q, F, [f] * n + [f - 1])


def exact_psd(M) -> bool:
    """Exact LDL^T positive-semidefiniteness test for a rational matrix.

    Zero pivots force the whole pivot row to vanish (true of any psd
    matrix), so no pivoting is needed beyond that check.
    """
    size = len(M)
    A = [[Fraction(M[i][j]) for j in range(size)] for i in range(size)]
    for k in range(size):
        if A[k][k] < 0:
            return False
        if A[k][k] == 0:
            if any(A[k][j] != 0 for j in range(k, size)):
                return False
            continue
        piv = A[k][k]
        for i in range(k + 1, size):
            f = A[i][k] / piv
            if f == 0:
                continue
            row_i, row_k = A[i], A[k]
            for j in range(k + 1, size):
                row_i[j] -= f * row_k[j]
    return True


def _float_down(q: Fraction) -> float:
    f = float(q)
    return math.nextafter(f, -math.inf) if f > q else f


def _float_up(q: Fraction) -> float:
    f = float(q)
    return math.nextafter(f, math.inf) if f < q else f


def _rational(v):
    """The float array v as an exact object array of Fractions."""
    return np.array([Fraction(float(x)) for x in np.ravel(v)], dtype=object).reshape(
        np.shape(v)
    )


def _raise(B, P):
    """The t, found by doubling from twice its float estimate plus 1e-25,
    for which every B_j + t P_j is exactly psd; None after eight tries.
    Each P_j is positive definite: adding t P_j lifts the smallest
    eigenvalue of B_j by at least t times that of P_j."""
    def least(a):
        return np.linalg.eigvalsh(np.array(a, dtype=float))[0]

    t = Fraction(max(0.0, *(-least(b) / least(p) for b, p in zip(B, P))))
    for _ in range(8):
        t = 2 * t + Fraction(1, 10**25)
        if all(exact_psd((b + t * p).tolist()) for b, p in zip(B, P)):
            return t
    return None


def _psd_pairings(G, X):
    """<G_k, V> for every k, V the blocks X made exactly psd; None when
    that fails.  Each block is symmetrised, rationalised and raised by
    :func:`_raise` along the identity."""
    V = []
    for x in X:
        v = _rational((x + x.T) / 2.0)
        t = _raise([v], [np.identity(len(v), dtype=object)])
        if t is None:
            return None
        v[np.diag_indices(len(v))] += t
        V.append(v)
    return _pairings(G, V)


def _raise_vacuum(c, G):
    """c with c_0 raised by :func:`_raise` along G_0, the vacuum's blocks,
    until sum_k c_k G_k is exactly psd; None when that fails."""
    t = _raise(_combine(c, G), G[0])
    return None if t is None else [c[0] + t, *c[1:]]


def _enclosure(w, F, d):
    """Exact ends of a program value, rounded outward to floats.

    A feasible F >= 0 gives lo = sum w_k F_k / sum F_k, and a dual vector
    d, for which the value is at most max_k (w_k + d_k), gives hi.  A None
    F or d leaves its end None.
    """
    w = [Fraction(v) for v in w]
    lo = None if F is None else sum(wk * fk for wk, fk in zip(w, F)) / sum(F)
    hi = None if d is None else max(wk + dk for wk, dk in zip(w, d))
    return (
        None if lo is None else _float_down(lo),
        None if hi is None else _float_up(hi),
    )


def _upper_enclosure(G, w, sol):
    """:func:`_enclosure` of the upper program on Gram blocks G and weights
    w, from its solution ``sol``.

    F: the solved one, clipped at zero, with F_0 raised by
    :func:`_raise_vacuum` until sum F_k G_k is exactly psd.  d: <G_k, V>
    for the solved dual matrix V made exactly psd; any psd V bounds the
    value by max_k (w_k + <G_k, V>).
    """
    y = _rational(sol.y)
    F = _raise_vacuum([max(v, Fraction(0)) for v in [1 - sum(y), *y]], G)
    return _enclosure(w, F, _psd_pairings(G, sol.X[1:]))


def _lower_enclosure(G, w, sol):
    """:func:`_enclosure` of the lower program on Gram blocks G and weights
    w, from its solution ``sol``.

    F: <G_k, Q> for the solved Q made exactly psd; where some F_k < 0,
    Q + sI with s = max_k (-F_k / tr G_k) gives F_k + s tr G_k instead.
    d: the multipliers z_k of the rows <G_k, Q> = F_k, with z_0 raised by
    :func:`_raise_vacuum` until sum z_k G_k is exactly psd.

    Every tr G_k >= 1.  G_k pairs as phi_k(p) = (-1)^k int p L_k e^-t dt,
    so the even diagonal entry phi_k(L_a^2) = e_k(a) is the coefficient of
    x^a y^a z^k in 1 / (1 - xy - yz - zx - 2xyz), the generating function
    of (-1)^(a+b+k) int L_a L_b L_k e^-t dt; the odd one is (2k+1) e_k(a)
    + (k+1) e_{k+1}(a) + k e_{k-1}(a) by the recurrence of t L_k; and at
    a = floor(k/2) in block k mod 2 it is C(k, a) or k C(k-1, a).  A
    multimode block keeps index k's row of a Kronecker product of these.
    """
    F = _psd_pairings(G, sol.X[1:])
    if F is not None and min(F) < 0:
        tr = [sum(np.trace(g) for g in gk) for gk in G]
        s = max(-f / t for f, t in zip(F, tr))
        F = [f + s * t for f, t in zip(F, tr)]
    return _enclosure(w, F, _raise_vacuum(list(_rational(sol.y[1:])), G))


def certified_upper_interval(spec: WitnessSpec, m: int):
    """Exactly certified enclosure (lo, hi) of the level-m upper-hierarchy
    value: :func:`_upper_enclosure` of one :func:`solve_upper` at 1e-9."""
    _, sol = solve_upper(spec, m, tol=1e-9)
    return _upper_enclosure(_upper_gram(m), _weights_exact(spec.a, m), sol)


def certified_lower_interval(spec: WitnessSpec, m: int):
    """Exactly certified enclosure (lo, hi) of the level-m lower-hierarchy
    value: :func:`_lower_enclosure` of the solve :func:`solve_lower` reports
    at 1e-8."""
    _, sol = solve_lower(spec, m, tol=1e-8)
    return _lower_enclosure(_upper_gram(m), _weights_exact(spec.a, m), sol)


# ---------------------------------------------------------------------------
# solve drivers
# ---------------------------------------------------------------------------


def _solve_with_policy(prob: conic.SdpProblem, tol: float):
    """The one precision policy: solve ``prob`` in double, and when that
    solve does not end optimal, solve it again in extended and keep that.

    Deep levels stall in binary64, but which programs do cannot be read
    off their data, so double is always tried first.  The kept solution's
    ``info["precision"]`` names its attempt.
    """
    sol = conic.solve(prob, tol=tol, precision="double")
    if sol.status == "optimal":
        return sol
    return conic.solve(prob, tol=tol, precision="extended")


QUALITY_FLOOR = 1e-4  # largest complementarity of a stalled solve that is kept


def _trusted(sol: conic.SdpSolution) -> bool:
    """Whether a sweep or table keeps ``sol``: it ended optimal, or it stalled
    with a best iterate whose complementarity (not NaN) is <= QUALITY_FLOOR."""
    return sol.status == "optimal" or sol.info.get("comp", math.inf) <= QUALITY_FLOOR


def solve_lower(spec: WitnessSpec, m: int, tol: float = 1e-8, stacks=_level_stacks):
    """Level-m lower bound; returns (value, solution).  ``stacks`` is
    :func:`build_lower`'s."""
    sol = _solve_with_policy(build_lower(spec, m, stacks=stacks), tol)
    return sol.primal_value, sol


def solve_upper(spec: WitnessSpec, m: int, tol: float = 1e-8, stacks=_level_stacks):
    """Level-m upper bound via the compact encoding; (value, solution).
    ``stacks`` is :func:`build_upper_compact`'s."""
    sol = _solve_with_policy(build_upper_compact(spec, m, stacks=stacks), tol)
    return -sol.primal_value, sol


def threshold_bounds(spec: WitnessSpec, m_max: int, tol: float = 1e-8) -> list:
    """Both hierarchies from level n to m_max.

    A solve that is not :func:`_trusted` is recorded as a NaN bound and
    the sweep continues; surviving levels keep the hierarchy monotone
    within solver tolerance.
    """
    if m_max < spec.n:
        raise ValueError("level m must be at least the top witness index n")
    stacks = functools.cache(_level_stacks)  # one build per level, this call only
    rows = []
    for m in range(spec.n, m_max + 1):
        lo, lo_sol = solve_lower(spec, m, tol=tol, stacks=stacks)
        up, up_sol = solve_upper(spec, m, tol=tol, stacks=stacks)
        if not _trusted(lo_sol):
            lo = math.nan
        if not _trusted(up_sol):
            up = math.nan
        rows.append(
            ThresholdBounds(
                level=m,
                lower=lo,
                upper=up,
                detail={
                    "lower_status": lo_sol.status,
                    "upper_status": up_sol.status,
                    "lower_quality": lo_sol.info.get("comp"),
                    "upper_quality": up_sol.info.get("comp"),
                },
            )
        )
    return rows


TABLE_TOL = 1e-8  # solver tolerance of the Fock table


def fock_bounds_table(n_values: Sequence[int], m_max: int = 30) -> dict:
    """Threshold bounds for single-Fock witnesses, table conventions.

    Indices 1 and 2 carry the analytic value 1/2 on both sides.  Higher
    indices report the deepest hierarchy level at or below m_max whose solve
    is :func:`_trusted`; both hierarchies are monotone in the level, so the
    deepest trustworthy level is the best bound.
    Returns {n: (lower, upper)}; the "detail" entry holds, per index and
    side, (value, level used, kept solution).
    """
    stacks = functools.cache(_level_stacks)  # one build per level, this call only
    table = {}
    details = {}
    for n in n_values:
        if n in (1, 2):
            table[n] = (0.5, 0.5)
            details[n] = {"analytic": True}
            continue
        spec = WitnessSpec.fock(n)
        if m_max < spec.n:
            raise ValueError("level m must be at least the top witness index n")
        row = {}
        for side, solver in (("lower", solve_lower), ("upper", solve_upper)):
            row[side] = (math.nan, None, None)
            for m in range(m_max, spec.n - 1, -2):
                v, sol = solver(spec, m, tol=TABLE_TOL, stacks=stacks)
                if _trusted(sol):
                    row[side] = (v, m, sol)
                    break
        table[n] = (row["lower"][0], row["upper"][0])
        details[n] = row
    table["detail"] = details
    return table
