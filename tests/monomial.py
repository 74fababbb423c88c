"""Test-side reference: the hierarchy programs in the monomial basis.

The moment matrix of F = e_k has entry prod_t C(l_t, k_t) l_t! at the
monomials x^i, x^j with i + j = 2l, and zero off parity.  These plain loops
over exact integers are written apart from the Laguerre-basis builders of
the package; they check those builders against the paper's definitional
coefficient-matching rows and supply the ill-conditioned monomial programs
that the solver tests need.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from negwit import conic


def scales(m, mode):
    """Per-monomial congruence weights: "none", or "balanced" 1/sqrt(u! 2^u).

    Moment entries on antidiagonal 2l grow like 2^l l!, so the balanced
    congruence keeps the moment matrix O(1).  Irrational weights are
    snapped to the exact binary value of their float.
    """
    if mode == "none":
        return [Fraction(1)] * (m + 1)
    if mode == "balanced":
        return [
            Fraction(1.0 / math.sqrt(math.factorial(u) * 2.0**u))
            for u in range(m + 1)
        ]
    raise ValueError(f"unknown scale mode {mode!r}")


def gram(idx, k):
    """Exact monomial Gram matrix of F = e_k over the multi-indices idx."""
    G = np.zeros((len(idx), len(idx)), dtype=object)
    for i, ki in enumerate(idx):
        for j, kj in enumerate(idx):
            r = [a + b for a, b in zip(ki, kj)]
            if any(v % 2 for v in r):
                continue
            l = [v // 2 for v in r]
            if any(c > lv for c, lv in zip(k, l)):
                continue
            G[i, j] = math.prod(
                math.comb(lv, c) * math.factorial(lv) for c, lv in zip(k, l)
            )
    return G


def coefficient_residuals(Q, F, levels):
    """Exact residuals of the coefficient-matching rows on the box k <= levels.

    Q maps monomial index pairs (i, j) to Gram entries and F maps each k in
    the box to F_k.  The entries of Q with i + j = r sum to zero where some
    r_t is odd, and to sum_k prod_t (-1)^(k_t + l_t) C(k_t, l_t) / l_t! F_k
    where r = 2l.  Returns [sum F - 1, then one residual per r].
    """
    res = [sum(F.values()) - 1]
    sums = {}
    for (ki, kj), v in Q.items():
        r = tuple(a + b for a, b in zip(ki, kj))
        sums[r] = sums.get(r, 0) + v
    for r in itertools.product(*(range(2 * m + 1) for m in levels)):
        want = 0
        if not any(v % 2 for v in r):
            want = sum(
                math.prod(
                    Fraction((-1) ** (a + b // 2) * math.comb(a, b // 2), math.factorial(b // 2))
                    for a, b in zip(k, r)
                )
                * f
                for k, f in F.items()
            )
        res.append(sums.get(r, 0) - want)
    return res


def compact_program(G, w):
    """The compact "min" upper program; G[k] holds the exact blocks of F_k.

    Variable k's data is row k of each block's stack: e_k in the diagonal
    block and G[k][j] in PSD block j.  F_0 = 1 - sum is eliminated.
    """
    stacks = [np.eye(len(G))]
    for j in range(len(G[0])):
        stacks.append(np.stack([np.array(gk[j], dtype=float) for gk in G]))
    return conic.SdpProblem(
        blocks=(-len(G), *(len(g) for g in G[0])),
        C=tuple(-s[0] for s in stacks),
        A=tuple(s[1:] - s[0] for s in stacks),
        b=[-(w[i] - w[0]) for i in range(1, len(G))],
        sense="min",
    )


def lower_program(G, w):
    """The lower program; G[k] holds the exact blocks of F_k.

    Maximise sum w_k F_k over F >= 0 (one diagonal block) and one PSD block
    per block of G, subject to sum F = 1 and <G_k, Q> - F_k = 0 for every k.
    """
    n = len(G)
    rows = [np.ones(n), *(-np.eye(n))]
    stacks = []
    for j in range(len(G[0])):
        size = len(G[0][j])
        stack = [np.zeros((size, size))]  # the unit-sum row leaves Q out
        stack += [np.array(gk[j], dtype=float) for gk in G]
        stacks.append(np.stack(stack))
    return conic.SdpProblem(
        blocks=(-n, *(len(s[0]) for s in stacks)),
        C=(np.array(w, dtype=float), *(np.zeros_like(s[0]) for s in stacks)),
        A=(np.array(rows), *stacks),
        b=[1.0] + [0.0] * n,
        sense="max",
    )


def upper_compact(spec, m, scale="none"):
    """Single-mode level-m upper program in the monomial basis, one block.

    ``scale`` names a diagonal congruence of :func:`scales`.
    """
    idx = [(i,) for i in range(m + 1)]
    s = np.array(scales(m, scale), dtype=object)
    G = [(gram(idx, k) * np.outer(s, s),) for k in idx]
    return compact_program(G, [0.0, *spec.a, *[0.0] * (m - spec.n)])


def lower_dual(spec, m, scale="none"):
    """Dual of the single-mode level-m lower program, in the monomial basis.

    Minimise y over (y, mu, odd-antidiagonal values nu of A) subject to
    y >= a_k + mu_k, one 1x1 PSD slack block per k, and the psd matrix A
    whose even antidiagonals carry sum_k mu_k C(l, k) l!.  ``scale`` applies
    a congruence of :func:`scales` to A and renormalises each nu column,
    which leaves the optimal value unchanged.  Encoded in the "min" reading.
    Under "balanced" the deep levels stall in both precisions.
    """
    d = np.array([float(v) for v in scales(m, scale)])
    rows = 1 + (m + 1) + m  # y, mu_0..mu_m, nu_1..nu_m
    slack = np.zeros((m + 1, rows, 1, 1))  # the 1x1 blocks, one stack each
    A = np.zeros((rows, m + 1, m + 1))
    slack[:, 0] = 1.0
    for k in range(m + 1):
        slack[k, 1 + k] = -1.0
        for l in range(k, m + 1):
            c = float(math.comb(l, k) * math.factorial(l))
            for i in range(max(0, 2 * l - m), min(m, 2 * l) + 1):
                A[1 + k, i, 2 * l - i] = c * d[i] * d[2 * l - i]
    for l in range(1, m + 1):
        pairs = [
            (i, 2 * l - 1 - i)
            for i in range(max(0, 2 * l - 1 - m), min(m, 2 * l - 1) + 1)
        ]
        ref = max(d[i] * d[j] for i, j in pairs)
        for i, j in pairs:
            A[m + 1 + l, i, j] = d[i] * d[j] / ref
    a = [0.0, *spec.a, *[0.0] * (m - spec.n)]
    return conic.SdpProblem(
        blocks=(1,) * (m + 1) + (m + 1,),
        C=(*(np.array([[v]]) for v in a), np.zeros((m + 1, m + 1))),
        A=(*slack, A),
        b=np.eye(rows)[0],
        sense="min",
    )
