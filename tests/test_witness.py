import json
import math
from fractions import Fraction
from types import SimpleNamespace

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


@pytest.mark.parametrize(
    "a", [(1.0, math.nan), (math.nan, 1.0), (math.nan,)], ids=["after", "before", "alone"]
)
def test_witness_spec_rejects_nan_weights(a):
    # NaN fails both v < 0 and v > 1, and max() passes over it after a 1.0
    # and returns it before one, where abs(NaN - 1) > 1e-12 is False too
    with pytest.raises(ValueError, match="weights must lie"):
        W.WitnessSpec(a=a)


@pytest.mark.parametrize("alpha", [complex(math.nan, 0), complex(0, math.inf)])
def test_witness_spec_rejects_nonfinite_displacement(alpha):
    with pytest.raises(ValueError, match="displacement"):
        W.WitnessSpec(a=(1.0,), alpha=alpha)


@pytest.mark.parametrize("F", [(math.nan, 1.0), (1.0, math.nan)])
def test_fock_diagonal_rejects_nan(F):
    with pytest.raises(ValueError):
        W.FockDiagonal(F)


def test_threshold_bounds_rejects_levels_below_the_index():
    # an empty sweep read as all-NaN rows, so the CLI reported a numerical
    # failure for bad input
    with pytest.raises(ValueError, match="at least the top witness index"):
        W.threshold_bounds(W.WitnessSpec.fock(3), m_max=2)


def test_fock_bounds_table_rejects_levels_below_the_index():
    # a NaN row was returned for bad input, and plotdata exited 0
    with pytest.raises(ValueError, match="at least the top witness index"):
        W.fock_bounds_table([3], m_max=2)
    # the analytic rows need no level
    assert W.fock_bounds_table([1, 2], m_max=0)[2] == (0.5, 0.5)


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


@pytest.mark.parametrize(
    "solver,n,m,tol,attempts",
    [
        (W.solve_lower, 3, 5, 1e-8, ["double"]),
        (W.solve_upper, 3, 5, 1e-8, ["double"]),
        # double cannot reach 1e-12 here; extended can
        (W.solve_lower, 3, 5, 1e-12, ["double", "extended"]),
        (W.solve_upper, 3, 5, 1e-12, ["double", "extended"]),
        # upper fock(7): double first stalls at m = 16 at the default tol
        (W.solve_upper, 7, 16, 1e-8, ["double", "extended"]),
    ],
    ids=["lower-double", "upper-double", "lower-retry", "upper-retry", "upper-fock7-m16"],
)
def test_policy_retries_only_a_failed_double_solve(solver, n, m, tol, attempts, solve_calls):
    # one double solve when it ends optimal; otherwise one extended retry,
    # which is the solution kept
    value, sol = solver(W.WitnessSpec.fock(n), m, tol=tol)
    assert [s.info["precision"] for s in solve_calls] == attempts
    assert sol is solve_calls[-1] and sol.status == "optimal"
    assert all(s.status != "optimal" for s in solve_calls[:-1])
    assert abs(value) == abs(sol.primal_value)


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


ENCLOSURE_CASES = [
    ((1.0,), (1, 4, 9)),
    ((0.0, 0.0, 1.0), (3, 8, 11)),
    ((0.0,) * 5 + (1.0,), (6, 10, 12)),
    ((0.5, 0.0, 1.0), (3, 7, 12)),
]
ENCLOSURE_IDS = ["fock1", "fock3", "fock6", "weights-0.5-0-1"]


@pytest.mark.parametrize("a,levels", ENCLOSURE_CASES, ids=ENCLOSURE_IDS)
def test_upper_within_certified_interval(a, levels):
    # the reported upper value lies in the exact enclosure of a separate,
    # tighter solve, up to the solver tolerance of the reported one
    spec = W.WitnessSpec(a=a)
    for m in levels:
        lo, hi = W.certified_upper_interval(spec, m)
        value, _ = W.solve_upper(spec, m)
        assert lo is not None and hi is not None, m
        assert lo - 1e-8 <= value <= hi + 1e-8, (m, lo, value, hi)
        assert hi - lo <= 1e-8, m


# at fock(2), m = 11, the solved Q made psd gives some F_k < 0; Q + sI lifts them
@pytest.mark.parametrize(
    "a,levels",
    ENCLOSURE_CASES + [((0.0, 1.0), (11,))],
    ids=ENCLOSURE_IDS + ["fock2"],
)
def test_lower_within_certified_interval(a, levels):
    # the solved lower value lies in its exact rational enclosure, up to the
    # solver tolerance: the reported iterate meets its rows only to ~1e-9
    spec = W.WitnessSpec(a=a)
    for m in levels:
        lo, hi = W.certified_lower_interval(spec, m)
        value, _ = W.solve_lower(spec, m)
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


def _dual_moment_matrix(n):
    # the printed A = L L^T: the monomial moment matrix of the signed dual
    # vector mu = (f, ..., f, f - 1), divided by f
    f = W.analytic_value(n)
    idx = [(i,) for i in range(n + 1)]
    mu = [f] * n + [f - 1]
    return sum(mk * monomial.gram(idx, k) for mk, k in zip(mu, idx)) / f


def test_cholesky_closing_formula():
    # A_nn = 2^n n! (1 - 1/binom(n, floor(n/2)))
    for n in range(1, 9):
        A = _dual_moment_matrix(n)
        want = Fraction(2**n * math.factorial(n)) * (
            1 - Fraction(1, W.analytic_value(n).numerator and math.comb(n, n // 2))
        )
        assert A[n][n] == want, n


def test_cholesky_off_antidiagonal_structure():
    # even antidiagonals carry 2^l l!; odd entries vanish
    for n in (2, 5):
        A = _dual_moment_matrix(n)
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


@pytest.mark.parametrize("n", [1, 4, 7])
def test_sandwich_rejects_perturbed_certificates(n):
    # the level-n certificate holds, and moving the last dual entry or any
    # primal F_k by 2^-60, either way, breaks it
    G = W._upper_gram(n)
    w = [0] * n + [1]
    Q, F = W.primal_certificate(n, n)
    f = W.analytic_value(n)
    mu = [f] * n + [f - 1]
    assert W.exact_sandwich(G, w, Q, F, mu)
    assert not Q[1 - n % 2].any()  # the square has the parity of n
    for d in (Fraction(1, 2**60), -Fraction(1, 2**60)):
        assert not W.exact_sandwich(G, w, Q, F, [*mu[:-1], mu[-1] + d])
        for k in range(n + 1):
            assert not W.exact_sandwich(G, w, Q, [*F[:k], F[k] + d, *F[k + 1 :]], mu)


def test_gram_blocks_nest_across_levels():
    # a level-m block is the leading principal submatrix of the same block
    # at every deeper level; product certificates of unequal levels rely on it
    grams = {m: W._upper_gram(m) for m in range(1, 17)}
    for m in range(1, 14):
        for j in range(1, 4):
            for k in range(m + 1):
                for small, big in zip(grams[m][k], grams[m + j][k], strict=True):
                    s = len(small)
                    assert (big[:s, :s] == small).all(), (m, j, k)


def test_drivers_build_each_level_once(monkeypatch):
    # a driver call shares each level's Gram data across witnesses and sides,
    # and keeps none of it once it returns
    levels, builds = [], []
    upper_gram = W._upper_gram

    def counted_gram(m):
        levels.append(m)
        return upper_gram(m)

    def counted(build):
        def wrapped(*args, **kwargs):
            builds.append(build.__name__)
            return build(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(W, "_upper_gram", counted_gram)
    monkeypatch.setattr(W, "build_lower", counted(W.build_lower))
    monkeypatch.setattr(W, "build_upper_compact", counted(W.build_upper_compact))
    W.fock_bounds_table(range(3, 7), 12)
    assert levels == [12]
    # every program still goes through its builder, which perfbench times
    assert sorted(builds) == ["build_lower"] * 4 + ["build_upper_compact"] * 4
    W.fock_bounds_table(range(3, 7), 12)
    assert levels == [12, 12]
    levels.clear()
    W.threshold_bounds(W.WitnessSpec.fock(1), 8)
    assert levels == list(range(1, 9))


def test_shared_gram_data_is_read_only():
    G = W._upper_gram(4)
    assert isinstance(G, tuple) and all(isinstance(g, tuple) for g in G)
    for block in (G[2][0], G[3][1], *W._level_stacks(4)):
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 5


def test_exact_psd_checker():
    assert W.exact_psd([[2, 1], [1, 2]])
    assert not W.exact_psd([[1, 2], [2, 1]])
    assert W.exact_psd([[0, 0], [0, 1]])
    assert not W.exact_psd([[0, 1], [1, 1]])


def test_lift_doubles_past_a_short_estimate(monkeypatch):
    # eigenvalues read 0.9 high make the float estimate of the t that
    # diag(-1, 1) + t P needs (P = I) fall short, 0.1/1.9 for 1: the first
    # exact check fails, and the fifth try is the first at or above 1
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) + 0.9)
    t = Fraction(-(-1.0 + 0.9) / (1.0 + 0.9))
    for _ in range(5):
        t = 2 * t + Fraction(1, 10**25)
    assert (t - Fraction(1, 10**25)) / 2 < 1 <= t
    eye = np.identity(2, dtype=object)
    G = ((eye,), (np.diag([-1, 1]).astype(object),))
    # a solved block along I: V = diag(t - 1, t + 1), where a lift that
    # stops at its first try gives None
    assert W._psd_pairings(G, (np.diag([-1.0, 1.0]),)) == [2 * t, 2]
    # the coefficients along G_0 = I: 0 G_0 + 1 G_1 + t G_0
    assert W._raise_vacuum([Fraction(0), Fraction(1)], G) == [t, 1]


def test_gram_diagonals_bound_every_trace():
    # the steps of the tr G_k >= 1 proof in _lower_enclosure's docstring:
    # even diagonals >= 0, odd ones by the three-term recurrence, and the
    # entry at index k itself
    G = W._upper_gram(41)

    def e(k, a):
        return G[k][0][a, a]

    for k in range(41):
        assert min(np.diagonal(G[k][0])) >= 0, k
        for a in range(len(G[k][1])):
            rest = (k + 1) * e(k + 1, a) + (k * e(k - 1, a) if k else 0)
            assert G[k][1][a, a] == (2 * k + 1) * e(k, a) + rest, (k, a)
        a, p = divmod(k, 2)
        own = k * math.comb(k - 1, a) if p else math.comb(k, a)
        assert G[k][p][a, a] == own >= 1, k
        assert sum(np.trace(g) for g in G[k]) >= 1, k


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
    assert abs(max(lows) - 0.5) < 1e-6


def test_threshold_detail_is_json_safe(solve_calls):
    # the last upper solve of this sweep is retried in extended, so its
    # residuals are computed in longdouble
    rows = W.threshold_bounds(W.WitnessSpec.fock(9), m_max=15)
    assert rows[-1].level == 15
    assert [s.info["precision"] for s in solve_calls[-2:]] == ["double", "extended"]
    detail = rows[-1].detail
    assert detail["upper_status"] == "optimal"
    assert json.loads(json.dumps(detail)) == detail
    assert type(detail["lower_quality"]) is float
    assert type(detail["upper_quality"]) is float


def test_sweep_and_table_share_one_quality_floor(monkeypatch):
    # a stalled top-level solve with complementarity 5e-4 is above the floor:
    # the sweep prints NaN for it, and the table falls back two levels
    spec, top = W.WitnessSpec.fock(3), 8
    stalled = (W.build_lower(spec, top), W.build_upper_compact(spec, top))
    policy = W._solve_with_policy

    def stall_top_level(prob, tol):
        if any(prob == p for p in stalled):
            return SimpleNamespace(
                status="numerical_limit", primal_value=0.4, info={"comp": 5e-4}
            )
        return policy(prob, tol)

    monkeypatch.setattr(W, "_solve_with_policy", stall_top_level)
    row = W.threshold_bounds(spec, m_max=top)[-1]
    assert row.level == top and math.isnan(row.lower) and math.isnan(row.upper)
    detail = W.fock_bounds_table([3], m_max=top)["detail"][3]
    assert detail["lower"][1] == detail["upper"][1] == top - 2


def test_weighted_witness_below_announced_cap():
    # combined |1><1| + |2><2| witness at level 7 sits below 0.875
    spec = W.WitnessSpec(a=(1.0, 1.0))
    v, sol = W.solve_upper(spec, 7)
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
    lo, lsol = W.solve_lower(spec, 24)
    up, usol = W.solve_upper(spec, 24)
    assert lsol.info.get("comp", 1) < 1e-4 and usol.info.get("comp", 1) < 1e-3
    assert up - lo <= 0.1
    # the upper double solve fails, so the driver retries in extended and
    # keeps the optimal retry
    dbl = conic.solve(W.build_upper_compact(spec, 24), precision="double")
    assert dbl.status != "optimal"
    assert usol.status == "optimal" and usol.info["precision"] == "extended"


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_level30_upper_row_certified(n):
    # the level-30 upper value lies in its exact rational enclosure, and the
    # table takes it from level 30 rather than falling back to a shallower one
    spec = W.WitnessSpec.fock(n)
    lo, hi = W.certified_upper_interval(spec, 30)
    assert lo is not None and hi is not None
    value, _ = W.solve_upper(spec, 30)
    assert lo <= value <= hi
    if n == 6:
        assert 0.3809 <= lo and hi <= 0.3810
    table = W.fock_bounds_table([n], m_max=30)
    assert table["detail"][n]["upper"][1] == 30
    assert table[n][1] == value
