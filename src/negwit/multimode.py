"""Multimode threshold hierarchies, product certificates, robust fidelity.

Levels are indexed either by total degree ("triangle", indices |k| <= m) or
by componentwise degree ("rectangle", k <= m*1); the two families
interleave, so either brackets the same limits.  Every program lives in the
tensor Laguerre parity blocks, Kronecker products of the single-mode blocks
of :func:`negwit.witness._upper_gram`.  So the Kronecker product of
single-mode feasible points, one block per parity vector, is an exact
feasible point of the lower program on a box of indices.
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
    """
    idx = _level_indices(spec, mode, level)
    w = [spec.a.get(k, 0.0) for k in idx]
    return _compact_lower(_gram_stacks(_upper_gram_multi(idx, level)), w)


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
    return _compact_upper(_gram_stacks(_upper_gram_multi(idx, level)), w)


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
