"""Multimode threshold hierarchies, product certificates, robust fidelity.

Levels are indexed either by total degree ("triangle", indices |k| <= m) or
by componentwise degree ("rectangle", k <= m*1); the two families
interleave, so either brackets the same limits.  Every program lives in the
tensor Laguerre parity blocks, Kronecker products of the single-mode blocks
of :func:`negwit.witness._upper_gram`.  So the Kronecker product of
single-mode feasible points, one block per parity vector, is an exact
feasible point of the lower program on a box of indices.  When swapping two
modes fixes the weights, both programs keep only swap-invariant points,
which splits and pairs those blocks (:func:`_swap_gram`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import conic
from .witness import (
    _compact_lower,
    _compact_upper,
    _gram_stacks,
    _lower_feasible,
    _solve_with_policy,
    _upper_gram,
)

INDEX_CAP = 10_000


@dataclass(frozen=True)
class MultiWitnessSpec:
    """Weighted multimode Fock-projector witness; weights indexed 1 <= k <= n.

    It carries no displacement: thresholds are displacement invariant.
    """

    n: tuple
    a: dict = None  # multi-index -> weight; default one-hot at n

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
        for k in a:  # as in one mode, the vacuum carries no weight
            if len(k) != len(n) or any(i < 0 for i in k) or not any(k):
                raise ValueError(
                    f"weight index {k} must have {len(n)} nonnegative entries,"
                    " not all zero"
                )
        values = list(a.values())  # NaN fails both range comparisons
        if any(not 0 <= v <= 1 for v in values) or abs(max(values) - 1.0) > 1e-12:
            raise ValueError("weights must lie in [0,1] with maximum 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)

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


def _level_indices(spec: MultiWitnessSpec, mode: str, level: int) -> list:
    """The index set of a level that covers the target index n."""
    if mode == "rectangle":
        if level < max(spec.n):
            raise ValueError("rectangle level must cover max(n)")
    elif level < sum(spec.n):
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
    A mode swap that fixes the weights reduces it further
    (:func:`_swap_gram`): F_o is the sum of F_k over an orbit o, and its
    row carries sum_{k in o} G_k.
    """
    orbits, G = _swap_gram(spec, _level_indices(spec, mode, level), level)
    return _compact_lower(_gram_stacks(G), [spec.a.get(o[0], 0.0) for o in orbits])


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


def _swap_gram(spec: MultiWitnessSpec, idx: list, level: int):
    """Orbits and exact Gram blocks of the program over ``idx``, reduced by
    the first transposition tau = (i j) of the modes, in lexicographic
    order, that leaves ``spec.a`` unchanged (Gatermann & Parrilo 2004).

    Averaging a point over tau keeps it feasible and its value, so the
    program may keep tau-invariant points only.  Its variables are the
    orbits {k, tau k}, vacuum first; orbit o carries sum_{k in o} G_k of
    :func:`_upper_gram_multi`, taken through an integer congruence.  Index
    the basis of class p by the exponents x in ``idx`` of parity p; tau
    maps class p onto class tau p.  A class with tau p = p splits, by the
    columns e_x (tau x = x) and e_x + e_{tau x}, then e_x - e_{tau x}
    (x < tau x), into a symmetric and an antisymmetric block.  A pair
    p < tau p keeps one block, by the columns e_x + e_{tau x} (x in p);
    the antisymmetric one is the same.  Without such a tau, every orbit is
    a single index and the blocks are those of :func:`_upper_gram_multi`.
    """
    G = _upper_gram_multi(idx, level)
    modes = len(idx[0])
    for i, j in itertools.combinations(range(modes), 2):
        order = [*range(modes)]
        order[i], order[j] = j, i

        def swap(k):
            return tuple(k[t] for t in order)

        if all(spec.a.get(swap(k), 0.0) == v for k, v in spec.a.items()):
            break
    else:
        return [(k,) for k in idx], G
    at = {k: r for r, k in enumerate(idx)}
    orbits = [(k,) if swap(k) == k else (k, swap(k)) for k in idx if swap(k) >= k]
    parity = [tuple(v % 2 for v in e) for e in idx]
    classes = [p for p in itertools.product((0, 1), repeat=modes) if p in parity]
    blocks = []
    for c, p in enumerate(classes):
        if swap(p) < p:
            continue
        rows = [e for e, q in zip(idx, parity) if q == p]
        n = len(rows)
        # the orbit sums, with a zero row and column n for "no partner"
        X = np.zeros((len(orbits), n + 1, n + 1), dtype=object)
        for r, o in enumerate(orbits):
            X[r, :n, :n] = sum(G[at[k]][c] for k in o)
        if swap(p) > p:  # G_o[p] + swap(G_o[tau p]), and G_o is invariant
            blocks.append(2 * X[:, :n, :n])
            continue
        pos = {e: r for r, e in enumerate(rows)}
        sym = [(pos[e], pos[swap(e)] if swap(e) != e else n) for e in rows if swap(e) >= e]
        anti = [(x, t) for x, t in sym if t != n]
        for cols, sign in ((sym, 1), (anti, -1)):
            if cols:
                I, J = np.array(cols).T
                ends = X[:, I[:, None], I] + X[:, J[:, None], J]
                cross = X[:, I[:, None], J]
                cross = cross + cross.transpose(0, 2, 1)
                blocks.append(ends + cross if sign > 0 else ends - cross)
    return orbits, list(zip(*blocks))


def build_upper_multi_compact(
    spec: MultiWitnessSpec, mode: str, level: int
) -> conic.SdpProblem:
    """Moment-eliminated multimode relaxation in the "min" reading.

    One PSD block per parity class of the tensor Laguerre basis (see
    :func:`_upper_gram_multi`).  Every weight must lie in the index set: a
    dropped weight would not bound the threshold from above.  A mode swap
    that fixes the weights reduces it (:func:`_swap_gram`): the variable of
    an orbit o is the sum of F_k over o and carries the mean of its G_k.
    """
    idx = _level_indices(spec, mode, level)
    members = set(idx)
    if any(v and k not in members for k, v in spec.a.items()):
        raise ValueError("every nonzero weight must lie in the level's index set")
    orbits, G = _swap_gram(spec, idx, level)
    size = np.array([len(o) for o in orbits], dtype=float).reshape(-1, 1, 1)
    return _compact_upper(
        tuple(s / size for s in _gram_stacks(G)), [spec.a.get(o[0], 0.0) for o in orbits]
    )


def solve_lower_multi(spec, mode, level):
    """Lower bound at this level, solved to 1e-8; returns (value, solution)."""
    sol = _solve_with_policy(build_lower_multi(spec, mode, level), 1e-8)
    return sol.primal_value, sol


def solve_upper_multi(spec, mode, level):
    """Upper bound at this level, solved to 1e-8; returns (value, solution)."""
    sol = _solve_with_policy(build_upper_multi_compact(spec, mode, level), 1e-8)
    return -sol.primal_value, sol


# ---------------------------------------------------------------------------
# product certificates and robust fidelity
# ---------------------------------------------------------------------------


def product_feasible(singles: Sequence, levels: Sequence[int]):
    """Tensor product of single-mode feasible pairs: an exact feasible point
    of the lower program on the box of indices k <= levels.

    singles: one exact (Q, F) per mode, feasible for the level-m_t
    single-mode program, Q in its Laguerre parity blocks.  Returns (Q, F):
    the blocks kron_t Q_t[p_t], one per parity vector p in the order of
    :func:`_upper_gram_multi` on the box, and F_k = prod_t F_t[k_t] over the
    box in lexicographic order.  These meet the rows of
    ``_upper_gram_multi(box, max(levels))``: a level-m single-mode block is
    the leading principal submatrix of every deeper one, and pairings of
    Kronecker products factorise.  Raises when a factor is not exactly
    feasible for its level.
    """
    for (Q, F), m in zip(singles, levels, strict=True):
        if not _lower_feasible(_upper_gram(m), Q, F):
            raise ValueError("input pair is not feasible for its level")
    blocks = []
    for p in itertools.product((0, 1), repeat=len(singles)):
        q = np.ones((1, 1), dtype=object)
        for (Qt, _), pt in zip(singles, p):
            q = np.kron(q, Qt[pt])
        if q.size:
            blocks.append(q)
    box = itertools.product(*(range(m + 1) for m in levels))
    F = [math.prod(Ft[kt] for (_, Ft), kt in zip(singles, k)) for k in box]
    return tuple(blocks), F


def robust_fidelity_bound(single_fidelities: Sequence[float]) -> float:
    """1 - sum(1 - F_i): a lower bound on the multimode fidelity."""
    fs = [float(f) for f in single_fidelities]
    if any(not 0 <= f <= 1 for f in fs):
        raise ValueError("fidelities must lie in [0, 1]")
    return 1.0 - sum(1.0 - f for f in fs)
