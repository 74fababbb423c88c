import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla

from negwit import conic
from negwit import multimode as MM
from negwit import witness as W

import monomial
import oracles


def one_var_problem():
    return conic.SdpProblem(blocks=(1,), C=([[1.0]],), A=([[[1.0]]],), b=(1.0,))


def test_trivial_one_by_one():
    sol = conic.solve(one_var_problem(), tol=1e-8)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 1.0) < 1e-7


def test_small_eigenvalue_problem():
    C = np.array([[1.0, 0.3], [0.3, -1.0]])
    p = conic.SdpProblem(blocks=(2,), C=(C,), A=(np.eye(2)[None],), b=(1.0,))
    sol = conic.solve(p)
    top = max(np.linalg.eigvalsh(C))
    assert sol.status == "optimal"
    assert abs(sol.primal_value - top) < 1e-7


def test_lp_blocks():
    p = conic.SdpProblem(blocks=(-2,), C=([1.0, 2.0],), A=([[1.0, 1.0]],), b=(1.0,))
    sol = conic.solve(p)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 2.0) < 1e-7


E11, E22 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize(
    "blocks,C,row,b,status",
    [
        # max x1 s.t. x1 + x2 = -1: no x >= 0 is feasible
        ((-2,), [1.0, 0.0], [1.0, 1.0], -1.0, "primal_infeasible"),
        # max x1 s.t. x2 = 1: x1 grows without bound
        ((-2,), [1.0, 0.0], [0.0, 1.0], 1.0, "dual_infeasible"),
        # tr X = -1: no X >= 0 is feasible
        ((2,), E11, np.eye(2), -1.0, "primal_infeasible"),
        # max X11 s.t. X22 = 1: X11 grows without bound
        ((2,), E11, E22, 1.0, "dual_infeasible"),
    ],
    ids=["lp-primal", "lp-dual", "sdp-primal", "sdp-dual"],
)
def test_divergence_exits(blocks, C, row, b, status, precision):
    p = conic.SdpProblem(blocks=blocks, C=(C,), A=([row],), b=(b,))
    sol = conic.solve(p, precision=precision)
    assert sol.status == sol.info["stop_reason"] == status


def test_problem_checks_each_matrix_of_a_stack():
    # an asymmetry up to 1e-12 max(1, max|a|) is averaged away, and a larger
    # one rejected, with the scale taken matrix by matrix
    near = np.array([[1.0, 2.0], [2.0 + 1e-13, 1.0]])
    p = conic.SdpProblem(blocks=(2,), C=(np.eye(2),), A=([np.eye(2), near],), b=(1, 0))
    assert np.array_equal(p.A[0][0], np.eye(2))
    assert np.array_equal(p.A[0][1], (near + near.T) / 2.0)
    far = near + np.array([[0.0, 0.0], [1e-9, 0.0]])
    for stack in ([np.eye(2), far], [1e6 * np.eye(2), far]):
        with pytest.raises(ValueError, match="not symmetric"):
            conic.SdpProblem(blocks=(2,), C=(np.eye(2),), A=(stack,), b=(1, 0))
    with pytest.raises(ValueError, match="shape"):
        conic.SdpProblem(blocks=(2,), C=(np.eye(2),), A=([np.eye(2)],), b=(1, 0))


def _pivots(M):
    """Pivots of exact Gaussian elimination without row exchanges: a
    symmetric matrix is positive definite exactly when all are positive."""
    A = [[Fraction(v) for v in row] for row in M.tolist()]
    out = []
    for k in range(len(A)):
        out.append(A[k][k])
        if not A[k][k]:
            break
        for i in range(k + 1, len(A)):
            f = A[i][k] / A[k][k]
            A[i] = [a - f * b for a, b in zip(A[i], A[k])]
    return out


def test_strictly_feasible_pair_accepted():
    # the closed-form interior point meets its rows exactly, with F > 0 and
    # every parity block positive definite
    for m in (3, 12, 30):
        Q, F = W.strictly_feasible_pair(m)
        assert not any(W.lower_feasibility_residuals(W._upper_gram(m), Q, F)), m
        assert all(f > 0 for f in F)
        assert all(min(_pivots(q)) > 0 for q in Q), m


def test_lower_program_paper_value():
    # weighted witness (0, 1): one-hot at the second index at its base level
    sol = conic.solve(W.build_lower(W.WitnessSpec((0.0, 1.0)), 2), tol=1e-8)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 0.5) < 1e-6


def test_verify_strong_duality():
    sol = conic.solve(one_var_problem(), tol=1e-8)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - sol.dual_value) <= 1e-6


def test_dual_pairs_agree_across_hierarchies():
    # the lower program and its monomial dual, solved apart, give one value
    spec = W.WitnessSpec.fock(5)
    lo = conic.solve(W.build_lower(spec, 5), tol=1e-8)
    lo_d = conic.solve(monomial.lower_dual(spec, 5), tol=1e-8)
    assert abs(lo.primal_value - lo_d.primal_value) < 1e-6


def test_kkt_residuals_within_tolerance():
    for p in (
        one_var_problem(),
        W.build_lower(W.WitnessSpec.fock(2), 4),
        monomial.upper_compact(W.WitnessSpec.fock(1), 4),
    ):
        sol = conic.solve(p, tol=1e-8)
        assert sol.status == "optimal"
        res = oracles.kkt_residuals(p, sol)
        for key, val in res.items():
            assert val <= 1e-7, (key, val)


def _exact(a):
    """The float entries of a as Fractions."""
    return np.vectorize(Fraction, otypes=[object])(np.asarray(a, dtype=np.float64))


def test_kkt_residuals_on_problem_blocks(monkeypatch):
    # the residuals against a plain per-block computation, on 12 1x1 blocks
    # and a 12x12 one, at the 14th iterate: one before the solve converges,
    # so that complementarity stays far above the rounding it is checked to
    prob = monomial.lower_dual(W.WitnessSpec.fock(3), 11, "balanced")
    monkeypatch.setattr(conic, "MAX_ITERATIONS", 14)
    sol = conic.solve(prob)
    assert len(sol.X) == len(prob.blocks)
    assert all(x.shape == (1, 1) for x in sol.X[:-1])
    res = oracles.kkt_residuals(prob, sol)
    m = prob.num_constraints
    S = [sum(yi * ai for yi, ai in zip(sol.y, a)) - c for a, c in zip(prob.A, prob.C)]
    dual_min = min(0.0, *(np.linalg.eigvalsh(s)[0] for s in S))
    x_min = min(0.0, *(np.linalg.eigvalsh(x)[0] for x in sol.X))
    expected = {
        "dual_psd_violation": -dual_min,
        "x_psd_violation": -x_min,
    }
    assert res.keys() == {*expected, "primal", "complementarity"}
    for key, val in expected.items():
        assert res[key] == pytest.approx(val, rel=1e-9, abs=1e-15), key

    # primal and complementarity cancel to about 1e-10 and 4e-8 from terms
    # of up to a few hundred, so each is checked against its exact value on
    # the float data, within the rounding of the float computation: a sum of
    # n terms is off by at most n * eps times the sum of their magnitudes.
    # b - A(X) sums the N products of a row, one partial sum per block, and b
    N = sum(x.size for x in sol.X)
    eps = np.finfo(np.float64).eps
    blocks = list(zip(prob.A, sol.X))
    rows = [
        Fraction(bk) - sum((_exact(a[k]) * _exact(x)).sum() for a, x in blocks)
        for k, bk in enumerate(prob.b.tolist())
    ]
    magnitude_rows = max(
        abs(bk) + sum(float(np.abs(a[k] * x).sum()) for a, x in blocks)
        for k, bk in enumerate(prob.b.tolist())
    )
    rp = max(map(abs, rows))
    bound = eps * (N + len(prob.blocks) + 1) * magnitude_rows
    assert abs(Fraction(res["primal"]) - rp) <= bound
    assert bound < 0.5 * float(rp)

    # S sums m + 1 terms per entry and <X, S> sums N products
    S_exact = [
        sum(Fraction(yi) * _exact(ai) for yi, ai in zip(sol.y, a)) - _exact(c)
        for a, c in zip(prob.A, prob.C)
    ]
    S_terms = [
        sum(abs(yi) * np.abs(ai) for yi, ai in zip(sol.y, a)) + np.abs(c)
        for a, c in zip(prob.A, prob.C)
    ]
    pairs = [(_exact(x).ravel(), s.ravel()) for x, s in zip(sol.X, S_exact)]
    scale = 1 + abs(Fraction(sol.primal_value))
    comp = abs(sum(np.dot(x, s) for x, s in pairs)) / scale
    magnitude_xs = sum(float(np.abs(x * s).sum()) for x, s in pairs)
    magnitude_s = sum(float((np.abs(x) * t).sum()) for x, t in zip(sol.X, S_terms))
    bound = eps * ((m + 2) * magnitude_s + (N + 2) * magnitude_xs) / float(scale)
    assert abs(Fraction(res["complementarity"]) - comp) <= bound
    assert bound < 1e-3 * float(comp)


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_stop_reason_reported(precision, monkeypatch):
    # the non-optimal exits are iteration caps, which no change to the
    # Newton system can turn into convergence; the deep program's kept
    # iterate is not its last, and its residuals are longdouble in extended
    cases = [
        (one_var_problem(), conic.MAX_ITERATIONS, "optimal", "converged"),
        (one_var_problem(), 2, "numerical_limit", "iteration_cap"),
        (monomial.lower_dual(W.WitnessSpec.fock(6), 12, "balanced"), 5,
         "numerical_limit", "iteration_cap"),
    ]
    for prob, cap, status, reason in cases:
        monkeypatch.setattr(conic, "MAX_ITERATIONS", cap)
        sol = conic.solve(prob, precision=precision)
        assert sol.status == status
        assert sol.info["stop_reason"] == reason
        json.dumps(sol.info)


def test_export_round_trip_identity():
    small = conic.SdpProblem(
        blocks=(2, -1),
        C=([[1.0, 0.25], [0.25, -1.0]], [0.5]),
        A=([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.5], [0.5, 0.0]]], [[0.0], [2.0]]),
        b=(1.0, 0.25),
    )
    for p in (
        small,
        W.build_upper_compact(W.WitnessSpec.fock(3), 8),
        MM.build_lower_multi(MM.MultiWitnessSpec((1, 1)), "rectangle", 2),
    ):
        assert oracles.parse_sdpa(conic.export_sdpa(p)) == p
        # the stored stacks are read-only, so the solver can share them
        for a in (p.b, *p.C, *p.A):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 1.0


def test_export_resolve_same_optimum():
    p = monomial.upper_compact(W.WitnessSpec.fock(1), 3)
    v0 = conic.solve(p, tol=1e-9).primal_value
    v1 = conic.solve(oracles.parse_sdpa(conic.export_sdpa(p)), tol=1e-9).primal_value
    assert abs(v0 - v1) < 1e-8


def test_export_requires_constraints():
    p = one_var_problem()
    empty = conic.SdpProblem(blocks=(1,), C=([[1.0]],), A=(np.zeros((0, 1, 1)),), b=())
    with pytest.raises(ValueError, match="at least one constraint"):
        conic.export_sdpa(empty)
    assert conic.export_sdpa(p).startswith("*SENSE: max")


def test_solve_rejects_empty_and_bad_tol():
    empty = conic.SdpProblem(blocks=(1,), C=([[1.0]],), A=(np.zeros((0, 1, 1)),), b=())
    with pytest.raises(ValueError):
        conic.solve(empty)
    # NaN and inf passed a tol <= 0 test: inf "converged" at iteration 1
    for tol in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            conic.solve(one_var_problem(), tol=tol)


def test_deep_level_needs_reformulation():
    # the unscaled monomial basis stalls in binary64 at level 12; the scaled
    # encoding recovers the optimum (reference from an extended-precision
    # run), and the Laguerre basis of the package converges outright
    spec = W.WitnessSpec.fock(3)
    raw = conic.solve(
        monomial.upper_compact(spec, 12), tol=1e-8, precision="double"
    )
    assert raw.status == "numerical_limit"
    assert raw.iterations == conic.MAX_ITERATIONS
    scaled = conic.solve(
        monomial.upper_compact(spec, 12, "balanced"), tol=1e-8, precision="double"
    )
    assert abs(-scaled.primal_value - 0.4691621) < 1e-4
    assert scaled.info.get("comp", 1.0) < 1e-6
    laguerre = conic.solve(
        W.build_upper_compact(spec, 12), tol=1e-8, precision="double"
    )
    assert laguerre.status == "optimal"
    assert abs(-laguerre.primal_value - 0.4691621) < 1e-4


def test_extended_precision_improves_deep_levels():
    spec = W.WitnessSpec.fock(3)
    prob = monomial.upper_compact(spec, 20, "balanced")
    dbl = conic.solve(prob, tol=1e-8, precision="double")
    ext = conic.solve(prob, tol=1e-8, precision="extended")
    assert ext.info.get("comp", 1.0) <= max(dbl.info.get("comp", 1.0), 1e-8)


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("overflow", ["schur", "inverse"])
def test_nonfinite_direction_ends_numerical_limit(overflow, precision, monkeypatch):
    # from the second iteration on, the Schur solves (vector right-hand
    # sides, three per direction, two directions per iteration) or S^{-1}
    # (the identity as right-hand side, once per PSD block and iteration)
    # overflow: the solve stops with the best finite iterate instead of
    # raising from the step length
    prob = W.build_lower(W.WitnessSpec.fock(2), 4)
    chol_solve = conic._chol_solve
    psd_blocks = sum(size > 0 for size in prob.blocks)
    ndim, per_iteration = {"schur": (1, 6), "inverse": (2, psd_blocks)}[overflow]
    calls = []

    def overflowing(L, b):
        out = chol_solve(L, b)
        if b.ndim == ndim:
            calls.append(None)
            if len(calls) > per_iteration:
                out = np.full_like(out, np.inf)
        return out

    monkeypatch.setattr(conic, "_chol_solve", overflowing)
    with np.errstate(invalid="ignore", over="ignore"):
        sol = conic.solve(prob, precision=precision)
    assert sol.status == "numerical_limit"
    assert sol.iterations == 2
    assert all(np.isfinite(x).all() for x in sol.X)
    assert np.isfinite(sol.y).all() and math.isfinite(sol.primal_value)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize(
    "block",
    [
        np.diag([1.0, np.nan, 1.0]),
        np.full((3, 3), np.nan),
        np.array([[np.nan]]),
        np.array([1.0, np.nan, 1.0]),
        np.diag([1.0, np.inf, 1.0]),
        np.array([1.0, np.inf, 1.0]),
    ],
    ids=["psd-diagonal", "psd-full", "psd-1x1", "diag", "psd-inf", "diag-inf"],
)
def test_nan_block_is_not_interior(block, dtype):
    # LAPACK's potrf returns NaN and +inf factors for such input without an
    # error; a 1-d block is a diagonal one
    block = block.astype(dtype)
    assert conic._psd_ok([block]) is None
    shift = np.eye(len(block), dtype=dtype) if block.ndim == 2 else 1.0
    fine = np.nan_to_num(block, nan=0.0, posinf=0.0) + 2 * shift
    assert conic._psd_ok([fine]) is not None


# ---------------------------------------------------------------------------
# the direct LAPACK kernels give the bits of the scipy.linalg wrappers
# ---------------------------------------------------------------------------


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and a.strides == b.strides
        and a.tobytes() == b.tobytes()
    )


def _two_triangular_solves(L, b):
    """scipy's solves with L and then L^T, the reference for _chol_solve."""
    z = sla.solve_triangular(L, b, lower=True, check_finite=False)
    return sla.solve_triangular(L.T, z, lower=False, check_finite=False)


@pytest.mark.parametrize("n", range(1, 21))
def test_triangular_solves_match_scipy_bitwise(n):
    # _chol_solve's trtrs and trsm calls on _chol's layout keep the bits of
    # scipy's two triangular solves, for one column and several; the
    # identity is S^{-1}'s right-hand side
    rng = np.random.default_rng(100 + n)
    g = rng.standard_normal((n, n))
    L = conic._chol(g @ g.T + n * np.eye(n))
    for b in (
        rng.standard_normal(n),
        rng.standard_normal((n, 1)),
        rng.standard_normal((n, 3)),
        np.asfortranarray(rng.standard_normal((n, 4))),
        np.eye(n),
        rng.standard_normal((n, n)),
    ):
        assert _same_bits(conic._chol_solve(L, b), _two_triangular_solves(L, b))


def test_double_solves_keep_multi_column_systems_off_trtrs(monkeypatch):
    # trtrs threads every solve with two or more right-hand sides, so those
    # must go to trsm; single columns stay on trtrs for their bits
    widths = []
    trsm_calls = []
    trtrs, trsm = conic._trtrs, conic._trsm

    def counted_trtrs(a, b, **kw):
        widths.append(1 if b.ndim == 1 else b.shape[1])
        return trtrs(a, b, **kw)

    def counted_trsm(*args, **kw):
        trsm_calls.append(1)
        return trsm(*args, **kw)

    monkeypatch.setattr(conic, "_trtrs", counted_trtrs)
    monkeypatch.setattr(conic, "_trsm", counted_trsm)
    for prob in (
        W.build_lower(W.WitnessSpec.fock(3), 8),
        MM.build_lower_multi(MM.MultiWitnessSpec((1, 1)), "rectangle", 4),
    ):
        assert conic.solve(prob, precision="double").status == "optimal"
    assert widths and max(widths) == 1
    assert trsm_calls


@pytest.mark.parametrize("n", range(1, 21))
def test_min_eigenvalue_matches_scipy_bitwise(n):
    rng = np.random.default_rng(200 + n)
    mats = []
    for scale in (1e-150, 1.0, 1e150):
        g = rng.standard_normal((n, n)) * scale
        mats.append((g + g.T) / 2.0)
    g = rng.standard_normal((n, n))
    mats.append(g @ g.T)  # positive semidefinite, as the step-length matrices
    for A in mats:
        for a in (A, np.asfortranarray(A)):
            ref = sla.eigh(a, eigvals_only=True, check_finite=False)[0]
            assert np.float64(conic._min_eigenvalue(a)).tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# the Cholesky factor and the step length, through potrf and sygst
# ---------------------------------------------------------------------------


def _pd_and_direction(rng, n, dtype=np.float64):
    """A well-conditioned positive definite X and a symmetric dX whose
    smallest eigenvalue is -1, so that the step length is finite."""
    g = rng.standard_normal((n, n))
    h = rng.standard_normal((n, n))
    x = g @ g.T + n * np.eye(n)
    dx = (h + h.T) / 2.0
    dx -= (np.linalg.eigvalsh(dx)[0] + 1.0) * np.eye(n)
    return x.astype(dtype), dx.astype(dtype)


def _reference_step(x, dx):
    """The largest alpha with x + alpha dx psd, from two triangular solves of
    a scipy Cholesky factor and scipy's eigenvalues."""
    L = sla.cholesky(x, lower=True)
    K = sla.solve_triangular(L, sla.solve_triangular(L, dx, lower=True).T, lower=True)
    lam = sla.eigvalsh((K + K.T) / 2.0)[0]
    return -1.0 / lam if lam < 0 else math.inf


@pytest.mark.parametrize("n", range(1, 21))
def test_chol_is_lower_with_exact_zeros(n):
    rng = np.random.default_rng(500 + n)
    a, _ = _pd_and_direction(rng, n)
    for arr in (a, np.asfortranarray(a)):
        L = conic._chol(arr)
        assert L.dtype == np.float64 and L.shape == (n, n)
        assert np.all(np.triu(L, 1) == 0.0)
        assert np.all(np.diagonal(L) > 0)
        np.testing.assert_allclose(L @ L.T, a, rtol=1e-12, atol=1e-12 * n)


@pytest.mark.parametrize("n", range(1, 21))
def test_max_step_matches_reference(n):
    rng = np.random.default_rng(600 + n)
    x, dx = _pd_and_direction(rng, n)
    L = conic._chol(x)
    ref = _reference_step(x, dx)
    assert math.isfinite(ref)
    for factor in (L, np.asfortranarray(L)):
        for d in (dx, np.asfortranarray(dx)):
            alpha = conic._max_step([x], [d], [factor])
            assert alpha == pytest.approx(ref, rel=1e-12)
    # a positive definite direction never reaches the boundary
    pd = dx @ dx + np.eye(n)
    assert _reference_step(x, pd) == math.inf
    assert conic._max_step([x], [pd], [L]) == math.inf


@pytest.mark.parametrize("n", range(1, 21))
def test_max_step_is_the_boundary(n):
    rng = np.random.default_rng(700 + n)
    x, dx = _pd_and_direction(rng, n)
    alpha = conic._max_step([x], [dx], [conic._chol(x)])
    assert conic._psd_ok([x + 0.999 * alpha * dx]) is not None
    assert conic._psd_ok([x + 1.001 * alpha * dx]) is None


@pytest.mark.parametrize("n", [1, 2, 5, 9, 16, 20])
def test_max_step_double_matches_longdouble(n):
    # the float64 branch (sygst) against the longdouble one (row-loop solves)
    rng = np.random.default_rng(800 + n)
    x, dx = _pd_and_direction(rng, n)
    xl, dxl = x.astype(np.longdouble), dx.astype(np.longdouble)
    double = conic._max_step([x], [dx], [conic._chol(x)])
    extended = conic._max_step([xl], [dxl], [conic._chol(xl)])
    assert math.isfinite(double)
    assert double == pytest.approx(extended, rel=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_diagonal_chol_and_max_step(dtype):
    ok = np.array([1.0, 2.0, 3.0], dtype=dtype)
    assert conic._chol(ok) is ok  # a diagonal block is its own factor
    for bad in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(np.linalg.LinAlgError):
            conic._chol(np.array([1.0, bad, 3.0], dtype=dtype))
    cases = [
        ([-4.0, 1.0, -1.0], 0.25),  # min(1 / 4, 3 / 1)
        ([-1.0, np.nan, np.inf], 1.0),  # NaN and +inf entries never bound it
        ([0.0, -0.0, 5.0], math.inf),  # no negative entry
        ([np.nan, 1.0, np.inf], math.inf),
    ]
    for dx, expected in cases:
        alpha = conic._max_step([ok], [np.array(dx, dtype=dtype)], [ok])
        assert isinstance(alpha, float) and alpha == expected
    # the blocks of a step combine by their minimum
    x, dx = _pd_and_direction(np.random.default_rng(900), 4, dtype)
    psd = conic._max_step([x], [dx], [conic._chol(x)])
    both = conic._max_step(
        [x, ok], [dx, np.array([-4.0, 1.0, -1.0], dtype=dtype)], [conic._chol(x), ok]
    )
    assert both == min(psd, 0.25)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_diagonal_max_step_matches_the_divide_formula(dtype):
    # the step length by mask keeps the bits of the np.divide(..., where=dx < 0)
    # it replaced, NaN entries included
    def divide_formula(x, dx):
        ratio = np.divide(-x, dx, out=np.full_like(x, np.inf), where=dx < 0)
        return min(math.inf, float(ratio.min()))

    rng = np.random.default_rng(910)
    cases = []
    for n in (1, 2, 7, 13, 40):
        x = np.exp(3.0 * rng.standard_normal(n))
        cases.append((x, rng.standard_normal(n) * np.exp(5.0 * rng.standard_normal(n))))
        cases.append((x, np.abs(rng.standard_normal(n))))  # no negative entry
    x, dx = np.exp(rng.standard_normal(6)), np.array([-1.0, -2.0, 3.0, -0.5, 0.0, -4.0])
    for nan_x, nan_dx in (([0], []), ([], [1]), ([2], [3]), ([0, 5], [1, 2]), ([4], [])):
        xn, dxn = x.copy(), dx.copy()
        xn[nan_x], dxn[nan_dx] = math.nan, math.nan
        cases.append((xn, dxn))
    for x, dx in cases:
        x, dx = x.astype(dtype), dx.astype(dtype)
        alpha = conic._max_step([x], [dx], [x])
        assert isinstance(alpha, float)
        assert np.float64(alpha).tobytes() == np.float64(divide_formula(x, dx)).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 13, 20])
def test_chol_solve_matches_the_two_triangular_solves(n):
    # the direct trtrs and trsm calls on _chol's layout keep the bits of
    # scipy's solves with L and L^T, for one column and several
    rng = np.random.default_rng(950 + n)
    g = rng.standard_normal((n, n))
    L = conic._chol(g @ g.T + n * np.eye(n))
    for b in (rng.standard_normal(n), np.eye(n), rng.standard_normal((n, 3))):
        assert _same_bits(conic._chol_solve(L, b), _two_triangular_solves(L, b))


# ---------------------------------------------------------------------------
# the longdouble kernels keep the bits of the matmul products and row loops
# ---------------------------------------------------------------------------


def _longdouble(rng, shape):
    """Random longdouble entries whose low bits are all in use."""
    hi = rng.standard_normal(shape).astype(np.longdouble)
    return hi + rng.standard_normal(shape).astype(np.longdouble) * np.longdouble(2.0**-55)


def _same_values(a, b) -> bool:
    # a longdouble fills 10 of its 16 bytes; the padding can differ between
    # equal values, so compare values, not tobytes()
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


def _matmul_lower(L, b):
    """The longdouble forward substitution as it was, through matmul."""
    n = L.shape[0]
    x = np.array(b, copy=True)
    for i in range(n):
        if i:
            x[i] = x[i] - L[i, :i] @ x[:i]
        x[i] = x[i] / L[i, i]
    return x


def _matmul_upper(U, b):
    """The longdouble back substitution as it was, through matmul."""
    n = U.shape[0]
    x = np.array(b, copy=True)
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] = x[i] - U[i, i + 1 :] @ x[i + 1 :]
        x[i] = x[i] / U[i, i]
    return x


def _matmul_chol(a):
    """The unblocked column-loop longdouble Cholesky, through matmul."""
    n = a.shape[0]
    L = np.array(a, copy=True)
    for j in range(n):
        d = L[j, j] - np.dot(L[j, :j], L[j, :j])
        if not conic._interior(d):
            raise np.linalg.LinAlgError("matrix is not positive definite")
        d = np.sqrt(d)
        L[j, j] = d
        if j + 1 < n:
            L[j + 1 :, j] = (L[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / d
    for j in range(n):
        L[j, j + 1 :] = 0
    return L


def test_dot_matches_matmul_on_longdouble():
    rng = np.random.default_rng(300)
    x, s = _longdouble(rng, (16, 16)), _longdouble(rng, (16, 16))
    stack = _longdouble(rng, (48, 16, 16))
    flat = stack.reshape(48, -1)
    T = _longdouble(rng, (48, 256))
    cases = [
        (_longdouble(rng, 9), _longdouble(rng, 9)),  # b^T y
        (_longdouble(rng, 9), _longdouble(rng, (9, 5))),  # a substitution row
        (_longdouble(rng, 48), _longdouble(rng, (48, 7))),  # y against a diagonal stack
        (flat, _longdouble(rng, 256)),  # apply_A and the right-hand side
        (_longdouble(rng, (48, 48)), _longdouble(rng, 48)),  # H dy
        (x, s),  # X S and the directions
        (x, s.T),
        (flat, T.T),  # the Schur product flat T^T
        (x, stack),  # X B_j, stacked
        (np.matmul(x, stack), s),  # (X B_j) S^{-1}, stacked
        (np.matmul(x, stack).transpose(1, 0, 2), s),
    ]
    for a, b in cases:
        assert _same_values(conic._dot(a, b), np.matmul(a, b)), (a.shape, b.shape)
    # the Schur assembly as the solver writes it
    Tj = conic._dot(conic._dot(x, stack), s)
    assert _same_values(
        conic._dot(flat, Tj.reshape(48, -1).T),
        flat @ np.matmul(np.matmul(x, stack), s).reshape(48, -1).T,
    )
    # float64 stays on matmul
    prob = one_var_problem()
    assert conic._BlockData(prob, np.float64).dot is np.matmul
    assert conic._BlockData(prob, np.longdouble).dot is conic._dot


@pytest.mark.parametrize("n", [*range(1, 21), 48, 64, 65, 70, 130])
def test_longdouble_kernels_match_matmul_loops(n):
    rng = np.random.default_rng(400 + n)
    g = _longdouble(rng, (n, n))
    spd = g @ g.T + n * np.eye(n, dtype=np.longdouble)
    L = conic._chol_longdouble(spd)
    assert _same_values(L, _matmul_chol(spd))
    for b in (
        _longdouble(rng, n),
        _longdouble(rng, (n, 1)),
        _longdouble(rng, (n, 3)),
        np.eye(n, dtype=np.longdouble),
        _longdouble(rng, (n, n)).T,
    ):
        assert _same_values(conic._solve_lower(L, b), _matmul_lower(L, b))
        assert _same_values(
            conic._chol_solve(L, b), _matmul_upper(L.T, _matmul_lower(L, b))
        )
    if n > 1:
        spd[n - 1, n - 1] = -1
        with pytest.raises(np.linalg.LinAlgError):
            conic._chol_longdouble(spd)


def _through_scipy_wrappers(mp):
    """Run the solver as before the direct kernels: scipy.linalg wrappers,
    np.tensordot for A^T y, fresh factors of every accepted iterate, and
    matmul for every longdouble product and substitution row."""
    mp.setattr(
        conic,
        "_min_eigenvalue",
        lambda a: float(sla.eigh(a, eigvals_only=True, check_finite=False)[0]),
    )

    def chol_solve(L, b):
        if L.dtype != np.float64:
            return _matmul_upper(L.T, _matmul_lower(L, b))
        return _two_triangular_solves(L, b)

    mp.setattr(conic, "_chol_solve", chol_solve)

    def apply_At(self, y):
        return [
            np.tensordot(y, stack, axes=(0, 0)) if size > 0 else y @ stack
            for size, stack in zip(self.blocks, self.Bstack)
        ]

    mp.setattr(conic._BlockData, "apply_At", apply_At)
    step = conic._interior_step

    def refactor_step(*args):
        iterate, _, alpha = step(*args)
        return iterate, None, alpha

    mp.setattr(conic, "_interior_step", refactor_step)
    mp.setattr(conic, "_dot", np.matmul)
    mp.setattr(conic, "_chol_longdouble", _matmul_chol)
    mp.setattr(conic, "_solve_lower", _matmul_lower)


def _runs_problem(blocks, dense_rows=0):
    """Random objective under a trace constraint, plus dense_rows random
    constraints that X = I / n satisfies; the trace bounds the feasible set.

    With one constraint every Schur sum has a single entry; dense rows make
    every product and sum on the 1x1 blocks round."""
    rng = np.random.default_rng(7)

    def random_blocks():
        out = []
        for size in blocks:
            if size > 0:
                g = rng.standard_normal((size, size))
                out.append((g + g.T) / 2.0)
            else:
                out.append(rng.standard_normal(-size))
        return tuple(out)

    n = sum(abs(b) for b in blocks)
    C = random_blocks()
    rows = [tuple(np.eye(b) if b > 0 else np.ones(-b) for b in blocks)]
    rows += [random_blocks() for _ in range(dense_rows)]
    b = [sum(np.trace(a) if a.ndim == 2 else a.sum() for a in row) / n for row in rows]
    return conic.SdpProblem(blocks=blocks, C=C, A=tuple(map(np.array, zip(*rows))), b=b)


SOLVER_CASES = {
    "fock5-lower-dual-12-double": (
        lambda: monomial.lower_dual(W.WitnessSpec.fock(5), 12, "balanced"), "double"
    ),
    "fock6-lower-dual-12-extended": (
        lambda: monomial.lower_dual(W.WitnessSpec.fock(6), 12, "balanced"), "extended"
    ),
    "fock3-lower-dual-12-double": (
        lambda: monomial.lower_dual(W.WitnessSpec.fock(3), 12, "balanced"), "double"
    ),
    "fock4-lower-12-extended": (
        lambda: W.build_lower(W.WitnessSpec.fock(4), 12), "extended"
    ),
    "fock1-upper-1-double": (
        lambda: W.build_upper_compact(W.WitnessSpec.fock(1), 1), "double"
    ),
    "fock1-upper-2-double": (
        lambda: W.build_upper_compact(W.WitnessSpec.fock(1), 2), "double"
    ),
    "split-runs-one-constraint-double": (
        lambda: _runs_problem((1, 3, 1, 1, -2)), "double"
    ),
    "split-runs-one-constraint-extended": (
        lambda: _runs_problem((1, 3, 1, 1, -2)), "extended"
    ),
    "long-run-one-constraint-double": (
        lambda: _runs_problem((1, 3) + (1,) * 10 + (-2,)), "double"
    ),
    "long-run-one-constraint-extended": (
        lambda: _runs_problem((1, 3) + (1,) * 10 + (-2,)), "extended"
    ),
    "dense-runs-double": (
        lambda: _runs_problem((1,) * 6 + (3,) + (1,) * 4 + (-2,), 4), "double"
    ),
    "dense-runs-extended": (
        lambda: _runs_problem((1,) * 6 + (3,) + (1,) * 4 + (-2,), 4), "extended"
    ),
    "two-mode-rectangle2-lower-double": (
        lambda: MM.build_lower_multi(MM.MultiWitnessSpec((1, 1)), "rectangle", 2),
        "double",
    ),
    "two-mode-rectangle6-lower-double": (
        lambda: MM.build_lower_multi(MM.MultiWitnessSpec((1, 1)), "rectangle", 6),
        "double",
    ),
    "two-mode-rectangle6-upper-extended": (
        lambda: MM.build_upper_multi_compact(
            MM.MultiWitnessSpec((1, 1)), "rectangle", 6
        ),
        "extended",
    ),
}


@pytest.mark.parametrize("case", sorted(SOLVER_CASES))
def test_solver_matches_scipy_wrappers_bitwise(case, monkeypatch):
    build, precision = SOLVER_CASES[case]
    prob = build()
    new = conic.solve(prob, precision=precision)
    with monkeypatch.context() as mp:
        _through_scipy_wrappers(mp)
        ref = conic.solve(prob, precision=precision)
    assert new.status == ref.status
    assert new.iterations == ref.iterations
    assert new.info == ref.info
    assert len(new.X) == len(ref.X)
    assert all(_same_bits(a, b) for a, b in zip(new.X, ref.X))
    assert _same_bits(new.y, ref.y)
    for attr in ("primal_value", "dual_value"):
        assert np.float64(getattr(new, attr)).tobytes() == np.float64(
            getattr(ref, attr)
        ).tobytes()
