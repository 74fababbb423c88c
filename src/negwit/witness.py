"""Single-mode negativity-witness thresholds via converging SDP hierarchies.

Fidelity-based witnesses (weights a_1..a_n over Fock projectors, optional
displacement) have a threshold value over states with nonnegative Wigner
function.  Level m of the lower hierarchy restricts the radial profile to a
degree-m expansion; level m of the upper hierarchy relaxes pointwise
nonnegativity to a moment-matrix condition.  Both are finite SDPs built
here in exact rational arithmetic before conversion to floats; the known
closed-form feasible points and their rank-one certificates are exposed for
exact (Fraction-level) optimality proofs at m = n.

Displacement never enters the programs; thresholds are displacement
invariant, so builders take only the weight vector.
"""

from __future__ import annotations

import math
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
        if any(v < 0 or v > 1 for v in a):
            raise ValueError("weights must lie in [0, 1]")
        if abs(max(a) - 1.0) > 1e-12:
            raise ValueError("largest weight must equal 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "alpha", complex(self.alpha))

    @property
    def n(self) -> int:
        return len(self.a)

    @staticmethod
    def fock(n: int) -> "WitnessSpec":
        if n < 1:
            raise ValueError("witness index must be >= 1")
        return WitnessSpec(a=(0.0,) * (n - 1) + (1.0,))


@dataclass(frozen=True)
class FockDiagonal:
    """Nonnegative unit-sum photon-number distribution (finite support)."""

    F: tuple

    def __post_init__(self):
        F = tuple(self.F)
        if any(v < 0 for v in F):
            raise ValueError("entries must be nonnegative")
        total = sum(F)
        err = abs(float(total) - 1.0)
        if err > 1e-9:
            raise ValueError("entries must sum to 1")
        object.__setattr__(self, "F", F)

    def as_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.F])


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

def lower_even_coeff(l: int, k: int) -> Fraction:
    """Coefficient of F_k in the even-antidiagonal constraint at level l."""
    return Fraction((-1) ** (k + l) * binomial(k, l), math.factorial(l))


def moment_coeff(l: int, k: int) -> int:
    """Coefficient of s_k in the moment-matrix entry on antidiagonal 2l."""
    return binomial(l, k) * math.factorial(l)


# ---------------------------------------------------------------------------
# hierarchy builders
# ---------------------------------------------------------------------------


def _upper_gram(m: int):
    """Exact Gram blocks of the level-m moment matrix: (even, odd) per F_k.

    Entry (i, j) of the moment matrix of F = e_k is the pseudo-moment of
    x^i x^j, C(l, k) l! on antidiagonal 2l and zero off parity.  The basis
    is split by parity and changed, by an exact triangular congruence, to
    L_a(x^2) and x L_a(x^2) with L_a(t) = sum_c (-1)^c C(a,c) t^c / c!; the
    vacuum's even block is then the identity and every entry is an integer.
    """
    out = [[] for _ in range(m + 1)]
    for p in (0, 1):
        s = (m - p) // 2 + 1
        # T_ac = (-1)^c C(a,c)/c! takes t^c to L_a, and T H T^T = A W A^T
        # with W_cd = H_{c+d}/(c! d!): the pseudo-moment's (c+d+p)! makes
        # W an integer matrix
        A = np.array(
            [[(-1) ** c * binomial(a, c) for c in range(s)] for a in range(s)],
            dtype=object,
        )
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
            )
            out[k].append(A @ W @ A.T)
    return [tuple(g) for g in out]


def _compact_upper(G, w, shrink: float = 0.0) -> conic.SdpProblem:
    """The moment-eliminated upper program from exact Gram blocks and weights.

    Variable k carries the Gram blocks ``G[k]`` and the weight ``w[k]``;
    variable 0 is eliminated by the unit sum.  Each block is rounded once.
    Encoded in the "min" reading, so the solved value is -omega.
    """
    nvar = len(G)
    G = [tuple(np.array(g, dtype=float) for g in gk) for gk in G]
    w = [float(v) for v in w]
    e = np.eye(nvar)
    objective = (-e[0],) + tuple(-g + shrink * np.eye(len(g)) for g in G[0])
    cons = tuple(
        (
            (e[k] - e[0],) + tuple(gk - g0 for gk, g0 in zip(G[k], G[0])),
            -(w[k] - w[0]),
        )
        for k in range(1, nvar)
    )
    return conic.SdpProblem(
        blocks=(-nvar,) + tuple(len(g) for g in G[0]),
        objective=objective,
        constraints=cons,
        sense="min",
    )


def build_upper_compact(
    spec: WitnessSpec, m: int, shrink: float = 0.0
) -> conic.SdpProblem:
    """Level-m upper relaxation with the moment variable eliminated.

    Variables are F_1..F_m only (F_0 = 1 - sum), constrained by the linear
    matrix inequality diag(F) (+) A(F) >= 0, with A(F) in the Laguerre
    parity blocks of :func:`_upper_gram`.  ``shrink`` tightens the
    inequality to A(F) >= shrink*I (in that basis), used to round iterates
    to exactly feasible certificates.
    """
    if m < spec.n:
        raise ValueError("level m must be at least the top witness index n")
    return _compact_upper(_upper_gram(m), _weights_exact(spec.a, m), shrink)


def _compact_lower(G, w) -> conic.SdpProblem:
    """The lower program from exact Gram blocks and weights.

    Maximise sum w_k F_k over F >= 0 (one diagonal block) with sum F = 1,
    one PSD block Q_p per parity block of ``G`` and one row <G_k, Q> = F_k
    per variable k.  Each block is rounded once.
    """
    nvar = len(G)
    G = [tuple(np.array(g, dtype=float) for g in gk) for gk in G]
    e = np.eye(nvar)
    zero = tuple(np.zeros_like(g) for g in G[0])
    cons = [((np.ones(nvar),) + zero, 1.0)]
    cons += [((-e[k],) + gk, 0.0) for k, gk in enumerate(G)]
    return conic.SdpProblem(
        blocks=(-nvar,) + tuple(len(g) for g in G[0]),
        objective=(np.array([float(v) for v in w]),) + zero,
        constraints=tuple(cons),
        sense="max",
    )


def build_lower(spec: WitnessSpec, m: int) -> conic.SdpProblem:
    """Level-m lower-bound program: a sum-of-squares radial profile.

    Variables F_0..F_m >= 0 with unit sum and a PSD Gram matrix Q in the
    Laguerre parity blocks of :func:`_upper_gram`, tied by <G_k, Q> = F_k.
    This is the coefficient-matching program (odd antidiagonal sums of the
    monomial Gram matrix vanish, even ones match the signed binomial
    transform of F) reduced by the sign flip x -> -x, whose averaging kills
    the cross-parity entries and the odd rows.
    """
    if m < spec.n:
        raise ValueError("level m must be at least the top witness index n")
    return _compact_lower(_upper_gram(m), _weights_exact(spec.a, m))


# the name of an earlier layout of the lower program, kept only because
# perfbench/tracing.py patches witness functions by name and looks it up
build_lower_dual = build_lower


def strictly_feasible_pair(m: int):
    """The interior point certifying strong duality at every level m.

    Q = diag(1/k!)/(2^{m+1}-1), F_k = C(m+1, k+1)/(2^{m+1}-1), both exact.
    """
    denom = 2 ** (m + 1) - 1
    Q = [
        [Fraction(1, math.factorial(k) * denom) if i == k else Fraction(0) for i in range(m + 1)]
        for k in range(m + 1)
    ]
    F = [Fraction(binomial(m + 1, k + 1), denom) for k in range(m + 1)]
    return Q, F


def lower_feasibility_residuals(Q, F, m: int):
    """Exact residuals of (Q, F) in the level-m lower program constraints."""
    res = []
    res.append(sum(F) - 1)
    for l in range(1, m + 1):
        res.append(
            sum(
                Q[i][2 * l - 1 - i]
                for i in range(max(0, 2 * l - 1 - m), min(m, 2 * l - 1) + 1)
            )
        )
    for l in range(m + 1):
        sQ = sum(
            Q[i][2 * l - i] for i in range(max(0, 2 * l - m), min(m, 2 * l) + 1)
        )
        sF = sum(lower_even_coeff(l, k) * F[k] for k in range(l, m + 1))
        res.append(sQ - sF)
    return res


# ---------------------------------------------------------------------------
# analytic solutions and certificates
# ---------------------------------------------------------------------------


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
    """Exact coefficientwise check of the squared-polynomial identity."""
    ratios, s = sos_certificate(n)
    F = analytic_primal(n).F
    for l in range(n + 1):
        lhs = sum(
            ratios[i] * ratios[2 * l - i] * s
            for i in range(max(0, 2 * l - n), min(n, 2 * l) + 1)
        )
        rhs = sum(lower_even_coeff(l, k) * F[k] for k in range(l, n + 1))
        if lhs != rhs:
            return False
    return True


def primal_certificate(n: int, m: int):
    """Exact feasible (Q, F) for the level-m lower program with value F^n_n.

    Q is the rank-one square of the closed-form polynomial, padded to m+1.
    """
    if m < n:
        raise ValueError("need m >= n")
    ratios, s = sos_certificate(n)
    c = ratios + [Fraction(0)] * (m - n)
    Q = [[c[i] * c[j] * s for j in range(m + 1)] for i in range(m + 1)]
    F = list(analytic_primal(n).F) + [Fraction(0)] * (m - n)
    return Q, F


def cholesky_factor_products(n: int):
    """A = L L^T for the analytic dual, assembled from exact cross products.

    The printed lower-triangular factor mixes square roots, but every product
    l_ik l_jk is rational; columns are returned as exact rank-one matrices.
    """
    size = n + 1
    terms = []
    # even columns 2k
    for k in range(0, size, 2):
        R = [[Fraction(0)] * size for _ in range(size)]
        kk = k // 2
        for i in range(0, size, 2):
            for j in range(0, size, 2):
                ii, jj = i // 2, j // 2
                if (i == n and n % 2 == 0 and ii == kk) or (
                    j == n and n % 2 == 0 and jj == kk
                ):
                    continue  # l_nn = 0 override
                val = (
                    Fraction(2 ** (ii + jj))
                    * math.factorial(ii)
                    * math.factorial(jj)
                    * binomial(ii, kk)
                    * binomial(jj, kk)
                )
                R[i][j] = val
        terms.append(R)
    # odd columns 2k+1
    for k in range(1, size, 2):
        R = [[Fraction(0)] * size for _ in range(size)]
        kk = (k - 1) // 2
        for i in range(1, size, 2):
            for j in range(1, size, 2):
                ii, jj = (i - 1) // 2, (j - 1) // 2
                if (i == n and n % 2 == 1 and ii == kk) or (
                    j == n and n % 2 == 1 and jj == kk
                ):
                    continue
                val = (
                    Fraction(2 ** (ii + jj + 1), kk + 1)
                    * math.factorial(ii + 1)
                    * math.factorial(jj + 1)
                    * binomial(ii, kk)
                    * binomial(jj, kk)
                )
                R[i][j] = val
        terms.append(R)
    A = [[sum(t[i][j] for t in terms) for j in range(size)] for i in range(size)]
    return A, terms


def analytic_dual(n: int):
    """The printed closed-form dual data: (mu, y, A) with A = L L^T.

    mu is returned exactly as stated, (F^n_n, ..., F^n_n, 1 - F^n_n); the
    feasible certificate with the signed last entry lives in
    :func:`dual_certificate`.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    f = analytic_value(n)
    mu = [f] * n + [1 - f]
    A, _ = cholesky_factor_products(n)
    return mu, f, A


def dual_certificate(n: int):
    """Exact dual-feasible point (y, mu, A) with objective value F^n_n.

    A = F^n_n L L^T; mu matches the printed vector up to the sign of the
    last entry, which feasibility of y >= 1 + mu_n forces to F^n_n - 1.
    """
    f = analytic_value(n)
    mu = [f] * n + [f - 1]
    A_raw, terms = cholesky_factor_products(n)
    A = [[f * v for v in row] for row in A_raw]
    scaled_terms = [[[f * v for v in row] for row in t] for t in terms]
    return f, mu, A, scaled_terms


def verify_rank1_psd(R) -> bool:
    """Exact check that a rational symmetric matrix is psd of rank <= 1."""
    size = len(R)
    pivot = next((i for i in range(size) if R[i][i] != 0), None)
    if pivot is None:
        return all(R[i][j] == 0 for i in range(size) for j in range(size))
    if R[pivot][pivot] < 0:
        return False
    p = R[pivot][pivot]
    for i in range(size):
        for j in range(size):
            if R[i][j] * p != R[i][pivot] * R[j][pivot]:
                return False
    return True


def dual_feasibility_residuals(n: int):
    """Exact residuals of the analytic dual certificate; all must vanish."""
    y, mu, A, terms = dual_certificate(n)
    res = []
    a = [Fraction(0)] * (n + 1)
    a[n] = Fraction(1)
    for k in range(n + 1):
        slack = y - a[k] - mu[k]
        res.append(slack if slack < 0 else Fraction(0))
    for i in range(n + 1):
        for j in range(i, n + 1):
            if (i + j) % 2 == 1:
                res.append(A[i][j])
            else:
                l = (i + j) // 2
                want = sum(
                    mu[k] * moment_coeff(l, k) for k in range(min(l, n) + 1)
                )
                res.append(A[i][j] - want)
    psd_ok = all(verify_rank1_psd(t) for t in terms)
    return res, psd_ok


def certify_level_n_value(n: int) -> bool:
    """Exact sandwich: primal and dual certificates agree at F^n_n."""
    Q, F = primal_certificate(n, n)
    if any(r != 0 for r in lower_feasibility_residuals(Q, F, n)):
        return False
    if not verify_rank1_psd(Q):
        return False
    if F[n] != analytic_value(n):
        return False
    res, psd_ok = dual_feasibility_residuals(n)
    return psd_ok and all(r == 0 for r in res)


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


def _shifted_psd(X):
    """X symmetrised and rationalised, its diagonal raised by twice its most
    negative float eigenvalue and 1e-25, to be checked by :func:`exact_psd`."""
    X = (X + X.T) / 2.0
    ev = float(np.min(np.linalg.eigvalsh(X)))
    shift = Fraction(max(0.0, -ev)) * 2 + Fraction(1, 10**25)
    return _rational(X) + np.diag([shift] * len(X))


def certified_upper_interval(spec: WitnessSpec, m: int, tol: float = 1e-9):
    """Exactly certified enclosure of the level-m upper-hierarchy value.

    Both ends are checked in exact rationals against the Laguerre-basis Gram
    blocks G_k of the compact program.  Lower end: the F of a margin-shrunk
    solve, clipped at zero and renormalised, whose moment matrix sum F_k G_k
    passes :func:`exact_psd` (value >= sum w_k F_k).  Upper end: the dual
    matrix V, rationalised and shifted to be exactly psd, which bounds the
    value by max_k (w_k + <G_k, V>).  Returns (lo, hi) as floats rounded
    outward; a side is None when its rounding fails.
    """
    w = _weights_exact(spec.a, m)
    G = _upper_gram(m)

    # --- lower end: an exactly feasible F.  Solve with the inequality
    # shrunk so the iterate carries real margin through the rounding.
    lo = None
    for eps in (1e-7, 1e-5, 1e-3):
        ps = build_upper_compact(spec, m, shrink=eps)
        ss = conic.solve(ps, tol=tol, precision="extended", max_iterations=300)
        y = _rational(ss.y)
        F = [max(v, Fraction(0)) for v in [1 - sum(y), *y]]
        tot = sum(F)
        F = [f / tot for f in F]
        blocks = [sum(f * g[b] for f, g in zip(F, G)) for b in range(len(G[0]))]
        if all(exact_psd(A.tolist()) for A in blocks):
            lo = sum(wk * fk for wk, fk in zip(w, F))
            break

    # --- upper end: any psd V, with the diagonal slack chosen to match
    sol = conic.solve(
        build_upper_compact(spec, m), tol=tol, precision="extended", max_iterations=300
    )
    V = [_shifted_psd(X) for X in sol.X[1:]]
    hi = None
    if all(exact_psd(v.tolist()) for v in V):
        hi = max(
            wk + sum((g * v).sum() for g, v in zip(gk, V)) for wk, gk in zip(w, G)
        )
    return (
        None if lo is None else _float_down(lo),
        None if hi is None else _float_up(hi),
    )


def certified_lower_interval(spec: WitnessSpec, m: int, tol: float = 1e-8):
    """Exactly certified enclosure of the level-m lower-hierarchy value.

    Both ends are checked in exact rationals against the Gram blocks G_k of
    :func:`build_lower`, from the solve that :func:`solve_lower` reports.
    Lower end: the solved Q, rationalised and shifted to be exactly psd,
    with F_k = <G_k, Q> renormalised to unit sum, is a feasible point of
    value sum a_k F_k; the end is None when the shift fails or some F_k < 0.
    Upper end: the multipliers z_k of the rows <G_k, Q> = F_k, rationalised,
    with z_0 raised until sum z_k G_k is exactly psd, bound the value by
    max_k (a_k + z_k).  Returns (lo, hi) as floats rounded outward.
    """
    w = _weights_exact(spec.a, m)
    G = _upper_gram(m)
    _, sol, _ = solve_lower(spec, m, tol=tol)

    lo = None
    Q = [_shifted_psd(X) for X in sol.X[1:]]
    if all(exact_psd(q.tolist()) for q in Q):
        F = [sum((g * q).sum() for g, q in zip(gk, Q)) for gk in G]
        if all(f >= 0 for f in F):
            lo = sum(wk * fk for wk, fk in zip(w, F)) / sum(F)

    # G_0, the vacuum's blocks, is positive definite: raising z_0 by t adds
    # t G_0, which lifts the smallest eigenvalue of each block by at least
    # t times that of G_0
    z = list(_rational(sol.y[1:]))
    Z = [sum(zk * g[b] for zk, g in zip(z, G)) for b in range(len(G[0]))]
    t = Fraction(
        max(
            0.0,
            *(
                -np.linalg.eigvalsh(np.array(zb, dtype=float))[0]
                / np.linalg.eigvalsh(np.array(g0, dtype=float))[0]
                for zb, g0 in zip(Z, G[0])
            ),
        )
    )
    hi = None
    for _ in range(8):
        t = 2 * t + Fraction(1, 10**25)
        if all(exact_psd((zb + t * g0).tolist()) for zb, g0 in zip(Z, G[0])):
            z[0] += t
            hi = max(wk + zk for wk, zk in zip(w, z))
            break
    return (
        None if lo is None else _float_down(lo),
        None if hi is None else _float_up(hi),
    )


# ---------------------------------------------------------------------------
# solve drivers
# ---------------------------------------------------------------------------


def _solve_with_policy(prob: conic.SdpProblem, tol: float, precision: str):
    """Solve ``prob`` in double or extended; under "auto" a double solve that
    fails is retried in extended.

    Returns (solution, precision): the optimal attempt, else the one with
    the smaller complementarity.
    """
    plans = {
        "double": ("double",),
        "extended": ("extended",),
        "auto": ("double", "extended"),
    }
    if precision not in plans:
        raise ValueError(
            f"precision must be 'double', 'extended' or 'auto', not {precision!r}"
        )
    best = None
    for prec in plans[precision]:
        sol = conic.solve(prob, tol=tol, precision=prec)
        if sol.status == "optimal":
            return sol, prec
        if best is None or sol.info.get("comp", math.inf) < best[0].info.get(
            "comp", math.inf
        ):
            best = (sol, prec)
    return best


def solve_lower(
    spec: WitnessSpec, m: int, tol: float = 1e-8, precision: str = "auto",
):
    """Level-m lower bound; returns (value, solution, run info)."""
    sol, prec = _solve_with_policy(build_lower(spec, m), tol, precision)
    return sol.primal_value, sol, {"precision": prec}


def solve_upper(
    spec: WitnessSpec, m: int, tol: float = 1e-8, precision: str = "auto",
):
    """Level-m upper bound via the compact encoding; (value, solution, info)."""
    sol, prec = _solve_with_policy(build_upper_compact(spec, m), tol, precision)
    return -sol.primal_value, sol, {"precision": prec}


def threshold_bounds(
    spec: WitnessSpec,
    m_max: int,
    tol: float = 1e-8,
    precision: str = "auto",
    m_min: int | None = None,
) -> list:
    """Both hierarchies from level n (or m_min) to m_max.

    Solver failures at a level are recorded (NaN bound) and the sweep
    continues; surviving levels keep the hierarchy monotone within solver
    tolerance.
    """
    rows = []
    for m in range(max(spec.n, m_min or spec.n), m_max + 1):
        lo, lo_sol, lo_info = solve_lower(spec, m, tol=tol, precision=precision)
        up, up_sol, up_info = solve_upper(spec, m, tol=tol, precision=precision)
        # a stalled solve still carries its best iterate; keep it only when
        # the residual quality supports the sweep tolerance scale
        if lo_sol.status != "optimal" and lo_sol.info.get("comp", 1.0) > 1e-4:
            lo = math.nan
        if up_sol.status != "optimal" and up_sol.info.get("comp", 1.0) > 1e-4:
            up = math.nan
        rows.append(
            ThresholdBounds(
                level=m,
                lower=lo,
                upper=up,
                detail={
                    "lower_status": lo_sol.status,
                    "upper_status": up_sol.status,
                    "lower_run": lo_info,
                    "upper_run": up_info,
                    "lower_quality": lo_sol.info.get("comp"),
                    "upper_quality": up_sol.info.get("comp"),
                },
            )
        )
    return rows


def final_bounds(rows: Sequence[ThresholdBounds]):
    """Best finite bounds over a hierarchy sweep."""
    lows = [r.lower for r in rows if not math.isnan(r.lower)]
    ups = [r.upper for r in rows if not math.isnan(r.upper)]
    return (max(lows) if lows else math.nan, min(ups) if ups else math.nan)


def fock_bounds_table(
    n_values: Sequence[int],
    m_max: int = 30,
    tol: float = 1e-8,
    quality_floor: float = 1e-3,
) -> dict:
    """Threshold bounds for single-Fock witnesses, table conventions.

    Indices 1 and 2 carry the analytic value 1/2 on both sides.  Higher
    indices report the deepest hierarchy level at or below m_max whose
    solve meets the residual quality floor; both hierarchies are monotone
    in the level, so the deepest trustworthy level is the best bound.
    Returns {n: (lower, upper)}; per-run details in the "detail" entry.
    """
    table = {}
    details = {}
    for n in n_values:
        if n in (1, 2):
            table[n] = (0.5, 0.5)
            details[n] = {"analytic": True}
            continue
        spec = WitnessSpec.fock(n)
        row = {}
        for side, solver in (("lower", solve_lower), ("upper", solve_upper)):
            val, m_used, info_used = math.nan, None, None
            for m in range(m_max, spec.n - 1, -2):
                v, sol, info = solver(spec, m, tol=tol, precision="auto")
                q = sol.info.get("comp", math.inf)
                if sol.status == "optimal" or q <= quality_floor:
                    val, m_used, info_used = v, m, {**info, "quality": q}
                    break
            row[side] = (val, m_used, info_used)
        table[n] = (row["lower"][0], row["upper"][0])
        details[n] = row
    table["detail"] = details
    return table
