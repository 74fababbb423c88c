import math
from fractions import Fraction

import numpy as np
import pytest

from negwit import conic
from negwit import multimode as MM
from negwit import witness as W
from negwit.numerics import simplex_size


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


def _compact_upper_reference(spec, mode, level, scale):
    """build_upper_multi_compact as a plain loop over (k, i, j)."""
    idx = MM.iterate_indices(mode, level, spec.modes)
    nvar = len(idx)
    scales = W._scales(level * spec.modes + 1, scale)
    G = []
    for k in idx:
        Gk = np.zeros((nvar, nvar))
        for i, ki in enumerate(idx):
            for j, kj in enumerate(idx):
                r = [a + b for a, b in zip(ki, kj)]
                if any(v % 2 for v in r):
                    continue
                l = [v // 2 for v in r]
                if any(c > lv for c, lv in zip(k, l)):
                    continue
                coeff, weight = 1, Fraction(1)
                for a, b, c, lv in zip(ki, kj, k, l):
                    coeff *= math.comb(lv, c) * math.factorial(lv)
                    weight *= scales[a] * scales[b]
                Gk[i, j] = float(coeff * weight)
        G.append(Gk)
    w = [spec.a.get(k, 0.0) for k in idx]
    e = np.eye(nvar)
    cons = tuple(
        ((e[i] - e[0], G[i] - G[0]), -(w[i] - w[0])) for i in range(1, nvar)
    )
    return conic.SdpProblem(
        blocks=(-nvar, nvar), objective=(-e[0], -G[0]), constraints=cons, sense="min"
    )


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
    built = MM.build_upper_multi_compact(spec, mode, level, scale=scale)
    assert built == _compact_upper_reference(spec, mode, level, scale)
