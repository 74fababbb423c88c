"""Test-side reference: the hierarchy programs in the monomial basis.

The moment matrix of F = e_k has entry prod_t C(l_t, k_t) l_t! at the
monomials x^i, x^j with i + j = 2l, and zero off parity.  These plain loops
over exact integers are written apart from the Laguerre-basis builders of
the package; they check those builders and supply the ill-conditioned
monomial programs that the solver tests need.
"""

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


def compact_program(G, w):
    """The compact "min" upper program; G[k] holds the exact blocks of F_k."""
    G = [[np.array(g, dtype=float) for g in gk] for gk in G]
    e = np.eye(len(G))
    cons = tuple(
        ((e[i] - e[0], *(gi - g0 for gi, g0 in zip(G[i], G[0]))), -(w[i] - w[0]))
        for i in range(1, len(G))
    )
    return conic.SdpProblem(
        blocks=(-len(G), *(len(g) for g in G[0])),
        objective=(-e[0], *(-g for g in G[0])),
        constraints=cons,
        sense="min",
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
    blocks = [1] * (m + 1) + [m + 1]
    cons = []
    for var in range(1 + (m + 1) + m):  # y, mu_0..mu_m, nu_1..nu_m
        mats = [np.zeros((b, b)) for b in blocks]
        A = mats[-1]
        if var == 0:
            for k in range(m + 1):
                mats[k][0, 0] = 1.0
        elif var <= m + 1:
            k = var - 1
            mats[k][0, 0] = -1.0
            for l in range(k, m + 1):
                c = float(math.comb(l, k) * math.factorial(l))
                for i in range(max(0, 2 * l - m), min(m, 2 * l) + 1):
                    A[i, 2 * l - i] = c * d[i] * d[2 * l - i]
        else:
            l = var - (m + 1)
            pairs = [
                (i, 2 * l - 1 - i)
                for i in range(max(0, 2 * l - 1 - m), min(m, 2 * l - 1) + 1)
            ]
            ref = max(d[i] * d[j] for i, j in pairs)
            for i, j in pairs:
                A[i, j] = d[i] * d[j] / ref
        cons.append((tuple(mats), 1.0 if var == 0 else 0.0))
    a = [0.0, *spec.a, *[0.0] * (m - spec.n)]
    objective = [np.array([[v]]) for v in a] + [np.zeros((m + 1, m + 1))]
    return conic.SdpProblem(
        blocks=tuple(blocks), objective=tuple(objective), constraints=tuple(cons),
        sense="min",
    )
