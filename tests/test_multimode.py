import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from negwit import conic
from negwit import multimode as MM
from negwit import witness as W
from negwit.numerics import simplex_size

import monomial


def test_iterate_indices_counts():
    assert len(MM.iterate_indices("triangle", 2, 2)) == simplex_size(2, 2) == 6
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


def test_single_mode_reduction():
    spec = MM.MultiWitnessSpec(n=(1,))
    v, sol = MM.solve_lower_multi(spec, "rectangle", 3)
    assert sol.status == "optimal" and abs(v - 0.5) < 1e-6
    v, sol = MM.solve_upper_multi(spec, "rectangle", 8)
    assert sol.status == "optimal" and abs(v - 0.5766504) < 1e-5


def test_solvers_honour_precision():
    spec = MM.MultiWitnessSpec(n=(1, 1))
    for solver in (MM.solve_lower_multi, MM.solve_upper_multi):
        v_auto, _ = solver(spec, "triangle", 2)
        v, sol = solver(spec, "triangle", 2, precision="extended")
        assert sol.info["precision"] == "extended"  # no double attempt first
        assert sol.status == "optimal" and abs(v - v_auto) < 1e-6
        _, sol = solver(spec, "triangle", 2, precision="double")
        assert sol.info["precision"] == "double"
        with pytest.raises(ValueError, match="'quad'"):
            solver(spec, "triangle", 2, precision="quad")


def test_product_feasible_value_and_residuals():
    Q1, F1 = W.primal_certificate(1, 1)
    Qp, Fp = MM.product_feasible([(Q1, F1), (Q1, F1)], [1, 1])
    assert Fp[(1, 1)] == Fraction(1, 4)
    res = MM.product_feasibility_residuals(Qp, Fp, [1, 1])
    assert all(r == 0 for r in res)


def test_product_feasible_exact_up_to_three_modes():
    pairs = [W.primal_certificate(n, m) for n, m in ((1, 2), (2, 3), (1, 4))]
    Qp, Fp = MM.product_feasible(pairs, [2, 3, 4])
    res = MM.product_feasibility_residuals(Qp, Fp, [2, 3, 4])
    assert all(r == 0 for r in res)


def test_product_strict_feasibility():
    s2 = W.strictly_feasible_pair(2)
    s3 = W.strictly_feasible_pair(3)
    Qp, Fp = MM.product_feasible([s2, s3], [2, 3])
    assert all(v > 0 for v in Fp.values())
    res = MM.product_feasibility_residuals(Qp, Fp, [2, 3])
    assert all(r == 0 for r in res)


def test_product_single_mode_is_identity():
    Q1, F1 = W.primal_certificate(2, 2)
    Qp, Fp = MM.product_feasible([(Q1, F1)], [2])
    assert Fp[(2,)] == F1[2]
    assert Qp[((0,), (2,))] == Q1[0][2]


def test_product_rejects_infeasible_input():
    Q1, F1 = W.primal_certificate(1, 1)
    bad_F = [Fraction(1, 3), Fraction(2, 3)]
    with pytest.raises(ValueError):
        MM.product_feasible([(Q1, bad_F)], [1])


def test_robust_fidelity_bound():
    assert MM.robust_fidelity_bound([1 - 0.2, 1 - 0.2]) == pytest.approx(0.6)
    assert MM.robust_fidelity_bound([1.0, 1.0, 1.0]) == 1.0
    assert MM.robust_fidelity_bound([0.7]) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        MM.robust_fidelity_bound([1.2])


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


def _check_laguerre_congruence(spec, mode, level, scale="none"):
    """Each block the builder makes is T' G'_k T'^T, exactly, on one parity
    class, where G'_k = D G_k D is the plain-loop monomial Gram matrix in the
    diagonal scaling D of ``monomial.scales`` and T' = T D^{-1} takes that
    basis to the Laguerre one; T' G'_k T'^T vanishes across the classes.
    """
    idx = MM.iterate_indices(mode, level, spec.modes)
    scales = monomial.scales(level, scale)
    d = np.array([math.prod(scales[v] for v in e) for e in idx], dtype=object)
    Ts = _laguerre_congruence(idx) / d
    classes = [
        [i for i, e in enumerate(idx) if tuple(v % 2 for v in e) == p]
        for p in itertools.product((0, 1), repeat=spec.modes)
    ]
    classes = [rows for rows in classes if rows]
    inside = np.zeros((len(idx), len(idx)), dtype=bool)
    for rows in classes:
        inside[np.ix_(rows, rows)] = True
    built = MM._upper_gram_multi(idx, level)
    want = []
    for k, blocks in zip(idx, built):
        H = Ts @ (monomial.gram(idx, k) * np.outer(d, d)) @ Ts.T
        assert not H[~inside].any(), k
        ref = [H[np.ix_(rows, rows)] for rows in classes]
        assert len(blocks) == len(ref)
        for b, r in zip(blocks, ref):
            assert b.shape == r.shape and (b == r).all(), k
        want.append(ref)
    w = [spec.a.get(k, 0.0) for k in idx]
    prob = MM.build_upper_multi_compact(spec, mode, level)
    assert prob == monomial.compact_program(want, w)


@pytest.mark.parametrize("scale", ["none", "balanced"])
@pytest.mark.parametrize(
    "mode,level", [("triangle", 2), ("triangle", 4), ("rectangle", 2), ("rectangle", 4)]
)
@pytest.mark.parametrize(
    "spec",
    [
        MM.MultiWitnessSpec(n=(1, 1)),
        MM.MultiWitnessSpec(n=(1, 2), a={(1, 2): 1.0, (0, 1): 0.5, (2, 0): 0.25}),
    ],
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
    _check_laguerre_congruence(MM.MultiWitnessSpec(n=(1, 0, 1)), mode, 2)


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
    v, sol = MM.solve_upper_multi(spec, "rectangle", 10, precision="double")
    assert sol.status == "optimal"
    assert 0.315 <= v <= 0.33


@pytest.mark.parametrize(
    "modes,level", [(1, 4), (1, 7), (2, 2), (2, 3), (2, 4), (3, 2)]
)
def test_lower_parity_blocks_match_coefficients_exactly(modes, level):
    # a random integer PSD Q_p per parity block, taken to the monomial basis
    # by T^T Q T, with F_k = <G_k, Q>, matches every coefficient exactly
    rng = np.random.default_rng(10 * modes + level)
    idx = MM.iterate_indices("rectangle", level, modes)
    G = MM._upper_gram_multi(idx, level)
    classes = [
        [i for i, e in enumerate(idx) if tuple(v % 2 for v in e) == p]
        for p in itertools.product((0, 1), repeat=modes)
    ]
    Q = np.zeros((len(idx), len(idx)), dtype=object)
    blocks = []
    for rows in classes:
        R = rng.integers(-3, 4, size=(len(rows), len(rows))).astype(object)
        blocks.append(R @ R.T)
        Q[np.ix_(rows, rows)] = blocks[-1]
    F = [sum((g * q).sum() for g, q in zip(Gk, blocks)) for Gk in G]
    T = _laguerre_congruence(idx)
    Qm = T.T @ Q @ T
    Qout = {(ki, kj): Qm[i, j] for i, ki in enumerate(idx) for j, kj in enumerate(idx)}
    res = MM.product_feasibility_residuals(Qout, dict(zip(idx, F)), [level] * modes)
    assert len(res) == 1 + (2 * level + 1) ** modes
    assert all(r == 0 for r in res[1:])
    # the builder's rows are these: sum F and <G_k, Q> - F_k
    spec = MM.MultiWitnessSpec(n=(1,) * modes)
    prob = MM.build_lower_multi(spec, "rectangle", level)
    assert prob.blocks == (-len(idx), *(len(rows) for rows in classes))
    X = (np.array(F, dtype=float), *(np.array(b, dtype=float) for b in blocks))
    scale = float(max(F))
    Ax = [sum((a * x).sum() for a, x in zip(mats, X)) for mats, _ in prob.constraints]
    assert Ax[0] == pytest.approx(float(sum(F)), rel=1e-12)
    assert all(abs(v) <= 1e-12 * scale for v in Ax[1:])
    if modes == 1:  # the single-mode builder makes the one-mode program
        assert W.build_lower(W.WitnessSpec.fock(1), level) == prob


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
