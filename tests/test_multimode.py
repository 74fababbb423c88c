import itertools
import math
import types
from fractions import Fraction

import numpy as np
import pytest

from negwit import conic
from negwit import multimode as MM
from negwit import witness as W

import monomial


def test_iterate_indices_counts():
    assert len(MM.iterate_indices("triangle", 2, 2)) == math.comb(4, 2) == 6
    assert len(MM.iterate_indices("rectangle", 1, 3)) == 8
    with pytest.raises(ValueError):
        MM.iterate_indices("hexagon", 2, 2)
    with pytest.raises(ValueError):
        MM.iterate_indices("rectangle", 120, 3)  # cap


def test_index_inclusion_chain():
    t_m = set(MM.iterate_indices("triangle", 2, 2))
    r_m = set(MM.iterate_indices("rectangle", 2, 2))
    t_Mm = set(MM.iterate_indices("triangle", 4, 2))
    assert t_m <= r_m <= t_Mm


def test_spec_validation():
    with pytest.raises(ValueError):
        MM.MultiWitnessSpec(n=(0, 0))
    spec = MM.MultiWitnessSpec(n=(1, 1))
    assert spec.modes == 2 and spec.a == {(1, 1): 1.0}


@pytest.mark.parametrize(
    "a",
    [
        {(1, 1): 1.0, (2,): 0.5},
        {(1, 1): 1.0, (0, 1, 0): 0.5},
        {(1, 1): 1.0, (-1, 3): 0.7},
        {(1, 1): 1.0, (2,): 0.5, (-1, 3): 0.7},
        {(1, 1): 1.0, (0, 0): 0.5},
    ],
    ids=["short", "long", "negative", "both", "vacuum"],
)
def test_spec_rejects_malformed_weight_keys(a):
    # a short, long or negative key names no monomial of a two-mode witness:
    # the lower builder would drop it, and the upper one would blame the
    # level's index set.  A vacuum key, which one mode cannot express, made
    # the rectangle-2 upper value 0.25, below the vacuum's own 0.5.
    with pytest.raises(ValueError, match="weight index"):
        MM.MultiWitnessSpec(n=(1, 1), a=a)


@pytest.mark.parametrize(
    "a",
    [{(1, 1): 1.0, (1, 0): math.nan}, {(1, 0): math.nan, (1, 1): 1.0}, {(1, 1): math.nan}],
    ids=["after", "before", "alone"],
)
def test_spec_rejects_nan_weights(a):
    with pytest.raises(ValueError, match="weights must lie"):
        MM.MultiWitnessSpec(n=(1, 1), a=a)


def test_single_mode_reduction():
    spec = MM.MultiWitnessSpec(n=(1,))
    v, sol = MM.solve_lower_multi(spec, "rectangle", 3)
    assert sol.status == "optimal" and abs(v - 0.5) < 1e-6
    v, sol = MM.solve_upper_multi(spec, "rectangle", 8)
    assert sol.status == "optimal" and abs(v - 0.5766504) < 1e-5


# a witness that no mode swap fixes
WEIGHTED = MM.MultiWitnessSpec(n=(1, 2), a={(1, 2): 1.0, (0, 1): 0.5, (2, 0): 0.25})


@pytest.mark.parametrize(
    "tol,attempts",
    # double cannot reach 1e-12 on these programs; extended can
    [(1e-8, ["double"]), (1e-12, ["double", "extended"])],
    ids=["double", "retry"],
)
@pytest.mark.parametrize(
    "build",
    [MM.build_lower_multi, MM.build_upper_multi_compact],
    ids=["solve_lower_multi", "solve_upper_multi"],  # the drivers of these builders
)
def test_policy_retries_only_a_failed_double_solve(build, tol, attempts, solve_calls):
    # one double solve when it ends optimal; otherwise one extended retry,
    # which is the solution kept
    prob = build(WEIGHTED, "rectangle", 2)
    sol = W._solve_with_policy(prob, tol)
    assert [s.info["precision"] for s in solve_calls] == attempts
    assert sol is solve_calls[-1] and sol.status == "optimal"
    assert all(s.status != "optimal" for s in solve_calls[:-1])


def _box_residuals(Q, F, levels):
    # the rows of the lower program on the box k <= levels
    box = list(itertools.product(*(range(m + 1) for m in levels)))
    return W.lower_feasibility_residuals(MM._upper_gram_multi(box, max(levels)), Q, F)


def test_product_feasible_value_and_residuals():
    pair = W.primal_certificate(1, 1)
    Qp, Fp = MM.product_feasible([pair, pair], [1, 1])
    assert Fp[-1] == Fraction(1, 4)  # F at (1, 1)
    assert not any(_box_residuals(Qp, Fp, [1, 1]))
    # and the paper's coefficient-matching rows, in the monomial basis
    box = MM.iterate_indices("rectangle", 1, 2)
    Qm = _monomial_gram(box, Qp)
    assert not any(monomial.coefficient_residuals(Qm, dict(zip(box, Fp)), [1, 1]))


def test_product_feasible_exact_up_to_three_modes():
    pairs = [W.primal_certificate(n, m) for n, m in ((1, 2), (2, 3), (1, 4))]
    Qp, Fp = MM.product_feasible(pairs, [2, 3, 4])
    assert not any(_box_residuals(Qp, Fp, [2, 3, 4]))
    assert all(W.exact_psd(q.tolist()) for q in Qp)


def test_product_strict_feasibility():
    # level 0, the vacuum alone, has an empty odd block
    for levels in ([2, 3], [0, 3]):
        Qp, Fp = MM.product_feasible([W.strictly_feasible_pair(m) for m in levels], levels)
        assert all(v > 0 for v in Fp)
        assert not any(_box_residuals(Qp, Fp, levels))


def test_product_single_mode_is_identity():
    Q1, F1 = W.primal_certificate(2, 2)
    Qp, Fp = MM.product_feasible([(Q1, F1)], [2])
    assert Fp == F1
    assert len(Qp) == len(Q1) and all((a == b).all() for a, b in zip(Qp, Q1))


def test_product_rejects_infeasible_input():
    Q1, F1 = W.primal_certificate(1, 1)
    bad_F = [Fraction(1, 3), Fraction(2, 3)]
    with pytest.raises(ValueError):
        MM.product_feasible([(Q1, bad_F)], [1])
    # rows that hold do not suffice: monomial Gram entries 1 at (x^0, x^2)
    # and (x^2, x^0) and -2 at (x^1, x^1) pair to zero with every G_k, and
    # added to the interior point they make the odd block indefinite
    Q2, F2 = W.strictly_feasible_pair(2)
    null = (np.array([[2, -1], [-1, 0]]), np.array([[-2]]))
    bad_Q = tuple(q + v for q, v in zip(Q2, null))
    assert not any(W.lower_feasibility_residuals(W._upper_gram(2), bad_Q, F2))
    with pytest.raises(ValueError):
        MM.product_feasible([(bad_Q, F2)], [2])


def test_robust_fidelity_bound():
    assert MM.robust_fidelity_bound([1 - 0.2, 1 - 0.2]) == pytest.approx(0.6)
    assert MM.robust_fidelity_bound([1.0, 1.0, 1.0]) == 1.0
    assert MM.robust_fidelity_bound([0.7]) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        MM.robust_fidelity_bound([1.2])
    with pytest.raises(ValueError):
        MM.robust_fidelity_bound([0.9, math.nan])


def test_two_mode_interleaving_upper_and_lower():
    spec = MM.MultiWitnessSpec(n=(1, 1))
    tri2, _ = MM.solve_upper_multi(spec, "triangle", 2)
    rect2, _ = MM.solve_upper_multi(spec, "rectangle", 2)
    tri4, _ = MM.solve_upper_multi(spec, "triangle", 4)
    assert tri2 >= rect2 - 1e-6
    assert rect2 >= tri4 - 1e-6
    lo_tri2, _ = MM.solve_lower_multi(spec, "triangle", 2)
    lo_rect2, _ = MM.solve_lower_multi(spec, "rectangle", 2)
    lo_tri4, _ = MM.solve_lower_multi(spec, "triangle", 4)
    assert lo_tri2 <= lo_rect2 + 1e-6
    assert lo_rect2 <= lo_tri4 + 1e-6


def test_two_mode_lower_exceeds_product_bound():
    # the genuinely multimode optimum beats the 0.25 tensor-product value
    spec = MM.MultiWitnessSpec(n=(1, 1))
    v, sol = MM.solve_lower_multi(spec, "triangle", 6)
    assert sol.status == "optimal"
    assert v > 0.25 + 1e-3
    assert abs(v - 0.2667) < 2e-3


def _laguerre_congruence(idx):
    """Exact T over idx: x^e goes to prod_t x^{p_t} L_{a_t}(x_t^2), e = 2a + p."""
    T = np.full((len(idx), len(idx)), Fraction(0), dtype=object)
    for i, e in enumerate(idx):
        for j, f in enumerate(idx):
            if all(ft <= et and (et - ft) % 2 == 0 for et, ft in zip(e, f)):
                T[i, j] = math.prod(
                    (-1) ** (ft // 2)
                    * Fraction(math.comb(et // 2, ft // 2), math.factorial(ft // 2))
                    for et, ft in zip(e, f)
                )
    return T


def _monomial_gram(idx, blocks):
    """{(i, j): entry} of the monomial Gram matrix T^T Q T whose Laguerre
    parity blocks over idx are ``blocks``, in the order of the classes."""
    T = _laguerre_congruence(idx)
    Qm = T.T @ _full(idx, blocks) @ T
    return {(ki, kj): Qm[i, j] for i, ki in enumerate(idx) for j, kj in enumerate(idx)}


def _parity_classes(idx):
    """The nonempty index classes of each parity vector, lexicographically."""
    classes = [
        [i for i, e in enumerate(idx) if tuple(v % 2 for v in e) == p]
        for p in itertools.product((0, 1), repeat=len(idx[0]))
    ]
    return [rows for rows in classes if rows]


def _full(idx, blocks):
    """The matrix over idx, in the Laguerre basis, with these parity blocks
    and zeros across the classes."""
    Q = np.zeros((len(idx), len(idx)), dtype=object)
    for rows, b in zip(_parity_classes(idx), blocks, strict=True):
        Q[np.ix_(rows, rows)] = b
    return Q


def _fixing_swap(spec):
    """The first mode transposition, as a map of multi-indices, under which
    every nonzero weight keeps its value; the identity when there is none."""
    nonzero = {k: v for k, v in spec.a.items() if v}
    for i, j in itertools.combinations(range(spec.modes), 2):
        order = list(range(spec.modes))
        order[i], order[j] = j, i

        def swap(k, order=order):
            return tuple(k[t] for t in order)

        if {swap(k): v for k, v in nonzero.items()} == nonzero:
            return swap
    return lambda k: tuple(k)


def _swap_congruence(spec, idx):
    """The reference reduction over idx: (orbits, V, groups).

    V is an integer matrix over idx in the Laguerre basis, one column per
    variable of the reduced blocks, and groups[b] the columns of block b.
    Per parity class p, in order: if swap(p) = p, the columns e_x (fixed x)
    and e_x + e_swap(x), then e_x - e_swap(x), x < swap(x); if p < swap(p),
    the columns e_x + e_swap(x).  Under the identity, V = I and the groups
    are the classes.
    """
    swap = _fixing_swap(spec)
    orbits = [sorted({k, swap(k)}) for k in idx if swap(k) >= k]
    at = {k: i for i, k in enumerate(idx)}
    cols, groups = [], []
    for p in itertools.product((0, 1), repeat=spec.modes):
        xs = [x for x in idx if tuple(v % 2 for v in x) == p]
        if not xs or swap(p) < p:
            continue
        if swap(p) == p:
            parts = [
                [{x: 1, swap(x): 1} for x in xs if swap(x) >= x],
                [{x: 1, swap(x): -1} for x in xs if swap(x) > x],
            ]
        else:
            parts = [[{x: 1, swap(x): 1} for x in xs]]
        for part in filter(None, parts):
            groups.append(list(range(len(cols), len(cols) + len(part))))
            cols += part
    V = np.zeros((len(idx), len(cols)), dtype=object)
    for c, col in enumerate(cols):
        for x, v in col.items():
            V[at[x], c] = v
    return orbits, V, groups


def _reduce(orbits, V, groups, full):
    """The reduced blocks of each orbit: those of V^T (sum_{k in o} full[k]) V,
    where full maps each index to its matrix over idx; asserts that V^T M V
    vanishes outside the blocks."""
    inside = np.zeros((V.shape[1],) * 2, dtype=bool)
    for g in groups:
        inside[np.ix_(g, g)] = True
    out = []
    for o in orbits:
        R = V.T @ sum(full[k] for k in o) @ V
        assert not R[~inside].any(), o
        out.append([R[np.ix_(g, g)] for g in groups])
    return out


def _expand(idx, V, groups, blocks):
    """The parity blocks over idx of V Q' V^T, Q' the reduced ``blocks``:
    the swap-invariant point that a reduced point stands for."""
    Q = np.zeros((V.shape[1],) * 2, dtype=object)
    for g, b in zip(groups, blocks, strict=True):
        Q[np.ix_(g, g)] = b
    Q = V @ Q @ V.T
    return [Q[np.ix_(rows, rows)] for rows in _parity_classes(idx)]


def _check_laguerre_congruence(spec, mode, level, scale="none"):
    """Each block the builder makes is T' G'_k T'^T, exactly, on one parity
    class, where G'_k = D G_k D is the plain-loop monomial Gram matrix in the
    diagonal scaling D of ``monomial.scales`` and T' = T D^{-1} takes that
    basis to the Laguerre one; T' G'_k T'^T vanishes across the classes.
    The program is the one on these blocks reduced by
    :func:`_swap_congruence`, which leaves it as is without a fixing swap.
    """
    idx = MM.iterate_indices(mode, level, spec.modes)
    scales = monomial.scales(level, scale)
    d = np.array([math.prod(scales[v] for v in e) for e in idx], dtype=object)
    Ts = _laguerre_congruence(idx) / d
    classes = _parity_classes(idx)
    inside = np.zeros((len(idx), len(idx)), dtype=bool)
    for rows in classes:
        inside[np.ix_(rows, rows)] = True
    built = MM._upper_gram_multi(idx, level)
    full = {}
    for k, blocks in zip(idx, built):
        H = Ts @ (monomial.gram(idx, k) * np.outer(d, d)) @ Ts.T
        assert not H[~inside].any(), k
        ref = [H[np.ix_(rows, rows)] for rows in classes]
        assert len(blocks) == len(ref)
        for b, r in zip(blocks, ref):
            assert b.shape == r.shape and (b == r).all(), k
        full[k] = H
    # the upper program's variable of an orbit carries the mean of its G_k;
    # without a fixing swap the orbits are single indices and V = I
    orbits, V, groups = _swap_congruence(spec, idx)
    want = [
        [b / len(o) for b in blocks]
        for o, blocks in zip(orbits, _reduce(orbits, V, groups, full))
    ]
    w = [spec.a.get(o[0], 0.0) for o in orbits]
    prob = MM.build_upper_multi_compact(spec, mode, level)
    assert prob == monomial.compact_program(want, w)


@pytest.mark.parametrize("scale", ["none", "balanced"])
@pytest.mark.parametrize(
    "mode,level", [("triangle", 2), ("triangle", 4), ("rectangle", 2), ("rectangle", 4)]
)
@pytest.mark.parametrize(
    "spec",
    [MM.MultiWitnessSpec(n=(1, 1)), WEIGHTED],
    ids=["fock11", "weighted"],
)
def test_compact_upper_matches_plain_loop(spec, mode, level, scale):
    # ``scale`` picks the monomial scaling the reference starts from: the
    # unscaled basis, or the balanced one of the former default program
    if mode == "triangle" and level < sum(spec.n):
        # the index set misses the target, whose weight would be dropped
        with pytest.raises(ValueError, match="cover"):
            MM.build_upper_multi_compact(spec, mode, level)
        return
    _check_laguerre_congruence(spec, mode, level, scale)


@pytest.mark.parametrize("mode", ["triangle", "rectangle"])
def test_compact_upper_matches_plain_loop_three_modes(mode):
    # reduced by the swaps of modes (0 2), (0 1) and (1 2)
    for n in ((1, 0, 1), (1, 1, 0), (0, 1, 1)):
        _check_laguerre_congruence(MM.MultiWitnessSpec(n=n), mode, 2)


def test_upper_rejects_levels_below_the_target():
    with pytest.raises(ValueError):
        MM.solve_upper_multi(MM.MultiWitnessSpec(n=(1, 1)), "triangle", 1)
    # a weight outside the index set would be dropped, and the value would
    # rise with the level
    outside = MM.MultiWitnessSpec(n=(1, 1), a={(1, 1): 1.0, (3, 0): 1.0})
    with pytest.raises(ValueError, match="index set"):
        MM.build_upper_multi_compact(outside, "rectangle", 2)
    v4, sol4 = MM.solve_upper_multi(outside, "rectangle", 4)
    v6, sol6 = MM.solve_upper_multi(outside, "rectangle", 6)
    assert sol4.status == sol6.status == "optimal"
    assert v6 <= v4 + 1e-6


def test_rectangle_ten_upper_converges_in_double():
    spec = MM.MultiWitnessSpec(n=(1, 1))
    prob = MM.build_upper_multi_compact(spec, "rectangle", 10)
    sol = conic.solve(prob, precision="double")
    v = -sol.primal_value
    assert sol.status == "optimal"
    assert 0.315 <= v <= 0.33


@pytest.mark.parametrize(
    "modes,level", [(1, 4), (1, 7), (2, 2), (2, 3), (2, 4), (3, 2)]
)
def test_lower_parity_blocks_match_coefficients_exactly(modes, level):
    # a random integer PSD block per reduced block, expanded to the
    # swap-invariant Q over the parity classes (Q itself for one mode),
    # taken to the monomial basis by T^T Q T, with F_k = <G_k, Q>, matches
    # every coefficient exactly
    rng = np.random.default_rng(10 * modes + level)
    idx = MM.iterate_indices("rectangle", level, modes)
    G = MM._upper_gram_multi(idx, level)
    spec = MM.MultiWitnessSpec(n=(1,) * modes)
    orbits, V, groups = _swap_congruence(spec, idx)
    blocks = []
    for g in groups:
        R = rng.integers(-3, 4, size=(len(g), len(g))).astype(object)
        blocks.append(R @ R.T)
    Q = _expand(idx, V, groups, blocks)
    F = dict(zip(idx, (sum((g * q).sum() for g, q in zip(Gk, Q)) for Gk in G)))
    res = monomial.coefficient_residuals(_monomial_gram(idx, Q), F, [level] * modes)
    assert len(res) == 1 + (2 * level + 1) ** modes
    assert all(r == 0 for r in res[1:])
    # the builder's rows are these, on the orbit sums F_o of F_k: sum F_o,
    # and <G'_o, Q'> - F_o on the reduced blocks Q'
    prob = MM.build_lower_multi(spec, "rectangle", level)
    assert prob.blocks == (-len(orbits), *(len(g) for g in groups))
    F = [sum(F[k] for k in o) for o in orbits]
    X = (np.array(F, dtype=float), *(np.array(b, dtype=float) for b in blocks))
    scale = float(max(F))
    Ax = sum((a * x).reshape(len(a), -1).sum(axis=1) for a, x in zip(prob.A, X))
    assert Ax[0] == pytest.approx(float(sum(F)), rel=1e-12)
    assert all(abs(v) <= 1e-12 * scale for v in Ax[1:])
    if modes == 1:  # the single-mode builder makes the one-mode program
        assert W.build_lower(W.WitnessSpec.fock(1), level) == prob


@pytest.mark.parametrize(
    "n,mode,level",
    [
        ((1, 1), "triangle", 4),
        ((1, 1), "rectangle", 2),
        ((1, 1), "rectangle", 4),
        ((1, 0, 1), "rectangle", 2),
        ((0, 1, 1), "triangle", 3),
    ],
    ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_swap_reduction_pairs_exactly(n, mode, level):
    # random integer psd blocks Q' on the reduced classes stand for the
    # swap-invariant Q of _expand, and sum_{k in o} <G_k, Q> = <G'_o, Q'>
    # exactly on every orbit o, G'_o the builder's integer blocks
    spec = MM.MultiWitnessSpec(n=n)
    idx = MM.iterate_indices(mode, level, spec.modes)
    orbits, V, groups = _swap_congruence(spec, idx)
    built_orbits, Gr = MM._swap_gram(spec, idx, level)
    assert [list(o) for o in built_orbits] == orbits
    assert [len(b) for b in Gr[0]] == [len(g) for g in groups]
    rng = np.random.default_rng(sum(n) + level)
    Qr = []
    for g in groups:
        R = rng.integers(-3, 4, size=(len(g), len(g))).astype(object)
        Qr.append(R @ R.T)
    Q = _expand(idx, V, groups, Qr)
    # Q is invariant: the swap maps each parity block onto its partner's,
    # so a (1, 0)-type block is the swap of its (0, 1)-type partner
    swap = _fixing_swap(spec)
    at = {k: i for i, k in enumerate(idx)}
    perm = [at[swap(k)] for k in idx]
    full = _full(idx, Q)
    assert (full[np.ix_(perm, perm)] == full).all()
    G = dict(zip(idx, MM._upper_gram_multi(idx, level)))
    for o, go in zip(orbits, Gr):
        lhs = sum((g * q).sum() for k in o for g, q in zip(G[k], Q))
        rhs = sum((g * q).sum() for g, q in zip(go, Qr))
        assert type(lhs) is int and lhs == rhs, o


def _expanded_solution(spec, idx, side, sol):
    """The reduced solution ``sol`` as a point of the unreduced program:
    the PSD blocks expanded by :func:`_expand`, and the orbit values spread
    over their members.  The upper variable of an orbit o is the sum of its
    F_k, so F_k = g_o / |o|; a lower row multiplier holds for every member.
    Only the PSD blocks and y are set, which is what the enclosures read."""
    orbits, V, groups = _swap_congruence(spec, idx)
    X = _expand(idx, V, groups, [x.astype(object) for x in sol.X[1:]])
    of = {k: r for r, o in enumerate(orbits) for k in o}
    if side == "upper":  # y holds g_o for every orbit but the vacuum's
        y = [sol.y[of[k] - 1] / len(orbits[of[k]]) for k in idx[1:]]
    else:  # y holds the unit-sum multiplier, then one per orbit
        y = [sol.y[0], *(sol.y[1 + of[k]] for k in idx)]
    return types.SimpleNamespace(
        X=(None, *(np.array(x, dtype=float) for x in X)), y=np.array(y)
    )


def test_deep_rectangle_lower_converges_in_double():
    spec = MM.MultiWitnessSpec(n=(1, 1))
    lo, sol = MM.solve_lower_multi(spec, "rectangle", 8)
    assert sol.status == "optimal" and sol.info["precision"] == "double"
    assert abs(lo - 0.2674575) <= 1e-6
    up, _ = MM.solve_upper_multi(spec, "rectangle", 8)
    assert lo <= up
    lo10, sol10 = MM.solve_lower_multi(spec, "rectangle", 10)
    assert sol10.status == "optimal" and sol10.info["precision"] == "double"
    assert lo - 1e-8 <= lo10 <= up


@pytest.mark.parametrize("mode,level", [("triangle", 4), ("rectangle", 6)])
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_two_mode_values_within_exact_enclosures(side, mode, level):
    # the enclosure routines take any Gram blocks, weights and solution, so
    # they serve two modes as they serve one; the value lies inside up to
    # the solver tolerance, as for one mode.  The swap-reduced solve is
    # expanded and certified against the unreduced integer G_k.
    spec = MM.MultiWitnessSpec(n=(1, 1))
    idx = MM._level_indices(spec, mode, level)
    G = MM._upper_gram_multi(idx, level)
    w = [spec.a.get(k, 0.0) for k in idx]
    if side == "upper":
        value, sol = MM.solve_upper_multi(spec, mode, level)
        lo, hi = W._upper_enclosure(G, w, _expanded_solution(spec, idx, side, sol))
    else:
        value, sol = MM.solve_lower_multi(spec, mode, level)
        lo, hi = W._lower_enclosure(G, w, _expanded_solution(spec, idx, side, sol))
    assert lo is not None and hi is not None
    assert lo - 1e-8 <= value <= hi + 1e-8, (lo, value, hi)
    assert hi - lo <= 1e-7


@pytest.mark.parametrize(
    "n,mode,level",
    [
        ((1, 1), "triangle", 2),
        ((1, 1), "triangle", 4),
        ((1, 1), "rectangle", 2),
        ((1, 1), "rectangle", 6),
        ((1, 0, 1), "triangle", 2),
        ((1, 0, 1), "rectangle", 2),
    ],
    ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_reduced_value_matches_unreduced_program(side, n, mode, level):
    # the program on the unreduced blocks, built apart from the package's
    # layouts, has the same value as the swap-reduced one
    spec = MM.MultiWitnessSpec(n=n)
    idx = MM._level_indices(spec, mode, level)
    G = MM._upper_gram_multi(idx, level)
    w = [spec.a.get(k, 0.0) for k in idx]
    if side == "upper":
        value, _ = MM.solve_upper_multi(spec, mode, level)
        ref = -W._solve_with_policy(monomial.compact_program(G, w), 1e-8).primal_value
    else:
        value, _ = MM.solve_lower_multi(spec, mode, level)
        ref = W._solve_with_policy(monomial.lower_program(G, w), 1e-8).primal_value
    assert abs(value - ref) <= 1e-8, (value, ref)
