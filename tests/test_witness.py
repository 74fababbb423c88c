import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla

from negwit import conic
from negwit import witness as W

import monomial


def test_witness_spec_validation():
    with pytest.raises(ValueError):
        W.WitnessSpec(a=(0.5, 0.7))  # max weight must be 1
    with pytest.raises(ValueError):
        W.WitnessSpec(a=(1.0, 1.2))
    spec = W.WitnessSpec.fock(3)
    assert spec.n == 3 and spec.a == (0.0, 0.0, 1.0)


def test_fock_diagonal_invariants():
    with pytest.raises(ValueError):
        W.FockDiagonal((0.5, 0.6))
    with pytest.raises(ValueError):
        W.FockDiagonal((-0.1, 1.1))


def test_build_lower_base_levels():
    sol = conic.solve(W.build_lower(W.WitnessSpec.fock(1), 1))
    assert abs(sol.primal_value - 0.5) < 1e-6
    sol = conic.solve(W.build_lower(W.WitnessSpec.fock(3), 3))
    assert abs(sol.primal_value - 0.375) < 1e-6


def test_build_rejects_small_level():
    with pytest.raises(ValueError):
        W.build_lower(W.WitnessSpec.fock(3), 2)
    with pytest.raises(ValueError):
        W.build_upper_compact(W.WitnessSpec.fock(3), 2)


def test_upper_within_certified_interval():
    # the solved upper value lies in its exact rational enclosure
    for n, m in ((1, 3), (1, 4), (1, 5), (3, 3)):
        spec = W.WitnessSpec.fock(n)
        lo, hi = W.certified_upper_interval(spec, m)
        value, _, _ = W.solve_upper(spec, m)
        assert lo - 1e-7 <= value <= hi + 1e-7, (n, m)


def test_solvers_reject_unknown_precision():
    spec = W.WitnessSpec.fock(1)
    for solver in (W.solve_lower, W.solve_upper):
        with pytest.raises(ValueError, match="'quad'"):
            solver(spec, 3, precision="quad")


def test_lower_dual_active_constraint_at_base_level():
    # analytic dual at n=1, m=1: the multiplier y_0 of sum F = 1 is 1/2, and
    # y_0 >= a_1 + z_1, z_1 the multiplier of <G_1, Q> = F_1, is active
    spec = W.WitnessSpec.fock(1)
    sol = conic.solve(W.build_lower(spec, 1), tol=1e-9)
    y0, z = sol.y[0], sol.y[1:]
    assert abs(y0 - 0.5) < 1e-6
    assert abs(z[1] - (-0.5)) < 1e-5
    assert abs(y0 - 1.0 - z[1]) < 1e-5  # active
    assert all(y0 - z[k] >= -1e-7 for k in range(2))  # dual feasible


@pytest.mark.parametrize(
    "a,levels",
    [
        ((1.0,), (1, 4, 9)),
        ((0.0, 0.0, 1.0), (3, 8, 11)),
        ((0.0,) * 5 + (1.0,), (6, 10, 12)),
        ((0.5, 0.0, 1.0), (3, 7, 12)),
    ],
    ids=["fock1", "fock3", "fock6", "weights-0.5-0-1"],
)
def test_lower_within_certified_interval(a, levels):
    # the solved lower value lies in its exact rational enclosure, up to the
    # solver tolerance: the reported iterate meets its rows only to ~1e-9
    spec = W.WitnessSpec(a=a)
    for m in levels:
        lo, hi = W.certified_lower_interval(spec, m)
        value, _, _ = W.solve_lower(spec, m)
        assert lo is not None and hi is not None, m
        assert lo - 1e-8 <= value <= hi + 1e-8, (m, lo, value, hi)
        assert hi - lo <= 1e-7, m


def test_analytic_primal_values():
    assert W.analytic_primal(1).F == (Fraction(1, 2), Fraction(1, 2))
    assert W.analytic_primal(2).F == (Fraction(1, 2), Fraction(0), Fraction(1, 2))
    assert W.analytic_primal(4).F == (
        Fraction(3, 8),
        Fraction(0),
        Fraction(1, 4),
        Fraction(0),
        Fraction(3, 8),
    )
    with pytest.raises(ValueError):
        W.analytic_primal(0)


def test_analytic_dual_values():
    mu, y, A = W.analytic_dual(1)
    assert y == Fraction(1, 2) and mu == [Fraction(1, 2), Fraction(1, 2)]
    mu3, y3, _ = W.analytic_dual(3)
    assert y3 == Fraction(3, 8)
    assert mu3 == [Fraction(3, 8)] * 3 + [Fraction(5, 8)]


def test_cholesky_closing_formula():
    # A_nn = 2^n n! (1 - 1/binom(n, floor(n/2)))
    for n in range(1, 9):
        _, _, A = W.analytic_dual(n)
        want = Fraction(2**n * math.factorial(n)) * (
            1 - Fraction(1, W.analytic_value(n).numerator and math.comb(n, n // 2))
        )
        assert A[n][n] == want, n


def test_cholesky_off_antidiagonal_structure():
    # even antidiagonals carry 2^l l!; odd entries vanish
    for n in (2, 5):
        _, _, A = W.analytic_dual(n)
        for i in range(n + 1):
            for j in range(n + 1):
                if (i + j) % 2 == 1:
                    assert A[i][j] == 0
                elif (i, j) != (n, n):
                    l = (i + j) // 2
                    assert A[i][j] == 2**l * math.factorial(l)


def test_sos_certificate_small_cases():
    ratios, s = W.sos_certificate(2)
    # coefficients (-1, 0, 1/2) up to the common square root of 1/4
    assert s == Fraction(1, 4)
    assert ratios == [Fraction(-2), Fraction(0), Fraction(1)]
    ratios1, s1 = W.sos_certificate(1)
    assert s1 == Fraction(1, 2) and ratios1 == [Fraction(0), Fraction(1)]


def test_sos_identity_exact_to_twelve():
    for n in range(1, 13):
        assert W.sos_identity_holds(n), n


def test_exact_certification_to_twelve():
    for n in range(1, 13):
        assert W.certify_level_n_value(n), n


def test_rank1_psd_checker():
    assert W.verify_rank1_psd([[1, 2], [2, 4]])
    assert not W.verify_rank1_psd([[1, 0], [0, 1]])  # rank 2
    assert not W.verify_rank1_psd([[-1, 0], [0, 0]])
    assert W.verify_rank1_psd([[0, 0], [0, 0]])


def test_exact_psd_checker():
    assert W.exact_psd([[2, 1], [1, 2]])
    assert not W.exact_psd([[1, 2], [2, 1]])
    assert W.exact_psd([[0, 0], [0, 1]])
    assert not W.exact_psd([[0, 1], [1, 1]])


def _moment_matrix(s, m):
    idx = [(i,) for i in range(m + 1)]
    return np.array(
        sum(float(sk) * monomial.gram(idx, k) for sk, k in zip(s, idx)), dtype=float
    )


def test_moment_matrix_examples():
    A = _moment_matrix([1.0, 0.0, 0.0], 2)
    assert np.allclose(A, [[1, 0, 1], [0, 1, 0], [1, 0, 2]])
    assert np.min(sla.eigvalsh(A)) >= -1e-12
    A2 = _moment_matrix([float(v) for v in W.analytic_primal(2).F], 2)
    assert np.min(sla.eigvalsh(A2)) >= -1e-10
    A3 = _moment_matrix([0.0, 1.0], 1)
    assert np.allclose(A3, [[0, 0], [0, 1]])


def test_solver_reproduces_certified_values():
    for n in (1, 2, 3, 4):
        spec = W.WitnessSpec.fock(n)
        sol = conic.solve(W.build_lower(spec, n), tol=1e-8)
        assert sol.status == "optimal"
        assert abs(sol.primal_value - float(W.analytic_value(n))) < 1e-6


def test_threshold_bounds_sweep_mechanics():
    rows = W.threshold_bounds(W.WitnessSpec.fock(1), m_max=4, tol=1e-8)
    assert [r.level for r in rows] == [1, 2, 3, 4]
    lows = [r.lower for r in rows]
    ups = [r.upper for r in rows]
    for a, b in zip(lows, lows[1:]):
        assert b >= a - 2e-8
    for a, b in zip(ups, ups[1:]):
        assert b <= a + 2e-8
    # lower never crosses any upper
    assert max(lows) <= min(ups) + 2e-8
    lo, up = W.final_bounds(rows)
    assert abs(lo - 0.5) < 1e-6
    assert up <= ups[0]


def test_threshold_detail_is_json_safe():
    # level 12 retries its lower side in extended precision
    rows = W.threshold_bounds(W.WitnessSpec.fock(4), m_max=12, m_min=12)
    detail = rows[0].detail
    assert detail["lower_run"]["precision"] == "extended"
    assert json.loads(json.dumps(detail))["lower_quality"] == detail["lower_quality"]
    assert type(detail["lower_quality"]) is float
    assert type(detail["upper_quality"]) is float


def test_weighted_witness_below_announced_cap():
    # combined |1><1| + |2><2| witness at level 7 sits below 0.875
    spec = W.WitnessSpec(a=(1.0, 1.0))
    v, sol, _ = W.solve_upper(spec, 7)
    assert sol.status == "optimal"
    assert v < 0.875


def test_alpha_does_not_enter_programs():
    a = W.build_lower(W.WitnessSpec(a=(1.0,), alpha=0j), 3)
    b = W.build_lower(W.WitnessSpec(a=(1.0,), alpha=1.3 + 0.4j), 3)
    assert a == b


def test_fock_table_analytic_rows():
    table = W.fock_bounds_table([1, 2])
    assert table[1] == (0.5, 0.5) and table[2] == (0.5, 0.5)


def test_hierarchy_gap_below_cap_midrange():
    # gap between the two hierarchies stays under 0.1 (spot check)
    spec = W.WitnessSpec.fock(7)
    lo, lsol, _ = W.solve_lower(spec, 24, precision="auto")
    up, usol, _ = W.solve_upper(spec, 24, precision="auto")
    assert lsol.info.get("comp", 1) < 1e-4 and usol.info.get("comp", 1) < 1e-3
    assert up - lo <= 0.1


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_level30_upper_row_certified(n):
    # the level-30 upper value lies in its exact rational enclosure, and the
    # table takes it from level 30 rather than falling back to a shallower one
    spec = W.WitnessSpec.fock(n)
    lo, hi = W.certified_upper_interval(spec, 30)
    assert lo is not None and hi is not None
    value, _, _ = W.solve_upper(spec, 30)
    assert lo <= value <= hi
    if n == 6:
        assert 0.3809 <= lo and hi <= 0.3810
    table = W.fock_bounds_table([n], m_max=30)
    assert table["detail"][n]["upper"][1] == 30
    assert table[n][1] == value
