"""Test-side reference: the upper program in the monomial basis.

The moment matrix of F = e_k has entry prod_t C(l_t, k_t) l_t! at the
monomials x^i, x^j with i + j = 2l, and zero off parity.  These plain loops
over exact integers are written apart from the Laguerre-basis builders of
the package; they check those builders and supply the ill-conditioned
monomial programs that the solver tests need.
"""

import math

import numpy as np

from negwit import conic
from negwit import witness as W


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

    ``scale`` names a diagonal congruence of ``W._scales``: "none" or
    "balanced".
    """
    idx = [(i,) for i in range(m + 1)]
    s = np.array(W._scales(m, scale), dtype=object)
    G = [(gram(idx, k) * np.outer(s, s),) for k in idx]
    return compact_program(G, [0.0, *spec.a, *[0.0] * (m - spec.n)])
