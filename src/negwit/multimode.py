"""Multimode threshold hierarchies, product certificates, robust fidelity.

Levels are indexed either by total degree ("triangle", indices |k| <= m) or
by componentwise degree ("rectangle", k <= m*1).  The rectangle family is
closed under tensor products of single-mode feasible points, which gives
exact product certificates; the two families interleave, so either brackets
the same limits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import conic
from .numerics import mi_binomial, mi_factorial, mi_leq, mi_norm
from .witness import _compact_lower, _compact_upper, _solve_with_policy, _upper_gram

INDEX_CAP = 10_000


@dataclass(frozen=True)
class MultiWitnessSpec:
    """Weighted multimode displaced-Fock witness; weights indexed 1 <= k <= n."""

    n: tuple
    a: dict = None  # multi-index -> weight; default one-hot at n
    alpha: tuple = None

    def __post_init__(self):
        n = tuple(int(v) for v in self.n)
        if not n or all(v == 0 for v in n):
            raise ValueError("target index must be nonzero")
        if any(v < 0 for v in n):
            raise ValueError("target index must be componentwise nonnegative")
        a = self.a
        if a is None:
            a = {n: 1.0}
        a = {tuple(k): float(v) for k, v in a.items()}
        if abs(max(a.values()) - 1.0) > 1e-12 or any(
            v < 0 or v > 1 for v in a.values()
        ):
            raise ValueError("weights must lie in [0,1] with maximum 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(
            self, "alpha", tuple(self.alpha) if self.alpha else (0j,) * len(n)
        )

    @property
    def modes(self) -> int:
        return len(self.n)


def iterate_indices(mode: str, level: int, modes: int) -> list:
    """All multi-indices of the level set, lexicographically.

    mode "triangle": |k| <= level (count C(modes+level, level));
    mode "rectangle": k <= level*1 (count (level+1)^modes).
    """
    if level < 0:
        raise ValueError("level must be a natural number")
    if mode == "rectangle":
        count = (level + 1) ** modes
        if count > INDEX_CAP:
            raise ValueError("index enumeration exceeds the cap")
        return list(itertools.product(range(level + 1), repeat=modes))
    if mode == "triangle":
        out = []
        for k in itertools.product(range(level + 1), repeat=modes):
            if sum(k) <= level:
                out.append(k)
            if len(out) > INDEX_CAP:
                raise ValueError("index enumeration exceeds the cap")
        return out
    raise ValueError("mode must be 'triangle' or 'rectangle'")


def _mi_lower_even_coeff(l, k) -> Fraction:
    """Coefficient of F_k in the even constraint at multi-level l (k >= l)."""
    sign = (-1) ** ((mi_norm(k) + mi_norm(l)) % 2)
    return Fraction(sign * mi_binomial(k, l), mi_factorial(l))


def _level_indices(spec: MultiWitnessSpec, mode: str, level: int) -> list:
    """The index set of a level that covers the target index n."""
    if mode == "rectangle":
        if level < max(spec.n):
            raise ValueError("rectangle level must cover max(n)")
    elif level < mi_norm(spec.n):
        raise ValueError("triangle level must cover |n|")
    return iterate_indices(mode, level, spec.modes)


def build_lower_multi(
    spec: MultiWitnessSpec, mode: str, level: int
) -> conic.SdpProblem:
    """Multimode restriction: sum-of-squares radial profile, value <= threshold.

    Maximise sum a_k F_k over F >= 0 with sum F = 1, one PSD block Q_p per
    parity class of the tensor Laguerre basis and one row <G_k, Q> = F_k per
    index, G_k the upper side's blocks (:func:`_upper_gram_multi`): the
    coefficient-matching program reduced by the sign flips x_t -> -x_t.
    """
    idx = _level_indices(spec, mode, level)
    w = [spec.a.get(k, 0.0) for k in idx]
    return _compact_lower(_upper_gram_multi(idx, level), w)


def _upper_gram_multi(idx: list, level: int) -> list:
    """Exact Gram blocks of the moment matrix over the index set ``idx``.

    Moments factorise over modes, so in the tensor Laguerre basis
    prod_t x_t^{p_t} L_{a_t}(x_t^2) the block of F_k on parity vector p is
    the Kronecker product of the single-mode blocks _upper_gram(level)[k_t][p_t].
    The congruence is lower triangular in each mode, so a downward-closed
    ``idx`` keeps exactly the rows whose exponents 2a + p lie in it.
    Returns one tuple of blocks per k in ``idx``; empty classes are dropped.
    """
    modes = len(idx[0])
    single = _upper_gram(level)
    members = set(idx)
    classes = []
    for p in itertools.product((0, 1), repeat=modes):
        halves = [range((level - q) // 2 + 1) for q in p]
        rows = [
            i
            for i, a in enumerate(itertools.product(*halves))
            if tuple(2 * v + q for v, q in zip(a, p)) in members
        ]
        if rows:
            classes.append((p, np.ix_(rows, rows)))
    out = []
    for k in idx:
        blocks = []
        for p, keep in classes:
            g = np.ones((1, 1), dtype=object)
            for kt, q in zip(k, p):
                g = np.kron(g, single[kt][q])
            blocks.append(g[keep])
        out.append(tuple(blocks))
    return out


def build_upper_multi_compact(
    spec: MultiWitnessSpec, mode: str, level: int
) -> conic.SdpProblem:
    """Moment-eliminated multimode relaxation in the "min" reading.

    One PSD block per parity class of the tensor Laguerre basis (see
    :func:`_upper_gram_multi`).  Every weight must lie in the index set: a
    dropped weight would not bound the threshold from above.
    """
    idx = _level_indices(spec, mode, level)
    members = set(idx)
    if any(v and k not in members for k, v in spec.a.items()):
        raise ValueError("every nonzero weight must lie in the level's index set")
    w = [spec.a.get(k, 0.0) for k in idx]
    return _compact_upper(_upper_gram_multi(idx, level), w)


def solve_lower_multi(spec, mode, level, tol=1e-8, precision="auto"):
    """Lower bound at this level; returns (value, solution)."""
    sol, _ = _solve_with_policy(build_lower_multi(spec, mode, level), tol, precision)
    return sol.primal_value, sol


def solve_upper_multi(spec, mode, level, tol=1e-8, precision="auto"):
    """Upper bound at this level; returns (value, solution)."""
    prob = build_upper_multi_compact(spec, mode, level)
    sol, _ = _solve_with_policy(prob, tol, precision)
    return -sol.primal_value, sol


# ---------------------------------------------------------------------------
# product certificates and robust fidelity
# ---------------------------------------------------------------------------


def product_feasible(singles: Sequence, levels: Sequence[int]):
    """Tensor product of single-mode feasible pairs for the rectangle program.

    singles: list of (Q, F) with exact rational entries, Q of size m_i+1 and
    F of length m_i+1 feasible for the level-m_i single-mode restriction.
    Returns (Q, F) dictionaries keyed by multi-indices, exactly rational.
    Raises when a factor fails its own feasibility residuals.
    """
    from .witness import lower_feasibility_residuals

    for (Q, F), m in zip(singles, levels):
        res = lower_feasibility_residuals(Q, F, m)
        if any(r != 0 for r in res):
            raise ValueError("input pair is not feasible for its level")
    modes = len(singles)
    idx = list(itertools.product(*(range(m + 1) for m in levels)))
    Fout = {}
    for k in idx:
        val = Fraction(1)
        for mode_i, ki in enumerate(k):
            val *= Fraction(singles[mode_i][1][ki])
        Fout[k] = val
    Qout = {}
    for ki in idx:
        for kj in idx:
            val = Fraction(1)
            for mode_i, (a, b) in enumerate(zip(ki, kj)):
                val *= Fraction(singles[mode_i][0][a][b])
            if val:
                Qout[(ki, kj)] = val
    return Qout, Fout


def product_feasibility_residuals(Qout, Fout, levels):
    """Exact residuals of a product pair in the rectangle constraints."""
    idx = list(itertools.product(*(range(m + 1) for m in levels)))
    res = [sum(Fout.values()) - 1]
    sums = {}
    for (ki, kj), v in Qout.items():
        r = tuple(a + b for a, b in zip(ki, kj))
        sums[r] = sums.get(r, Fraction(0)) + v
    for r in itertools.product(*(range(2 * m + 1) for m in levels)):
        sQ = sums.get(r, Fraction(0))
        if all(v % 2 == 0 for v in r):
            l = tuple(v // 2 for v in r)
            sF = sum(
                _mi_lower_even_coeff(l, k) * Fout[k]
                for k in idx
                if mi_leq(l, k)
            )
            res.append(sQ - sF)
        else:
            res.append(sQ)
    return res


def robust_fidelity_bound(single_fidelities: Sequence[float]) -> float:
    """1 - sum(1 - F_i): a lower bound on the multimode fidelity."""
    fs = [float(f) for f in single_fidelities]
    if any(f < 0 or f > 1 for f in fs):
        raise ValueError("fidelities must lie in [0, 1]")
    return 1.0 - sum(1.0 - f for f in fs)
