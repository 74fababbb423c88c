import json
import math

import numpy as np
import pytest
import scipy.linalg as sla

from negwit import conic
from negwit import multimode as MM
from negwit import witness as W

import monomial


def one_var_problem():
    return conic.SdpProblem(
        blocks=(1,), objective=([[1.0]],), constraints=((([[1.0]],), 1.0),)
    )


def test_trivial_one_by_one():
    sol = conic.solve(one_var_problem(), tol=1e-8)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 1.0) < 1e-7


def test_small_eigenvalue_problem():
    C = np.array([[1.0, 0.3], [0.3, -1.0]])
    p = conic.SdpProblem(
        blocks=(2,), objective=(C,), constraints=(((np.eye(2),), 1.0),)
    )
    sol = conic.solve(p)
    top = max(np.linalg.eigvalsh(C))
    assert sol.status == "optimal"
    assert abs(sol.primal_value - top) < 1e-7


def test_lp_blocks():
    p = conic.SdpProblem(
        blocks=(-2,),
        objective=([1.0, 2.0],),
        constraints=((([1.0, 1.0],), 1.0),),
    )
    sol = conic.solve(p)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 2.0) < 1e-7


def test_strictly_feasible_pair_accepted():
    # the closed-form interior point of the level-3 restriction
    Q, F = W.strictly_feasible_pair(3)
    residuals = W.lower_feasibility_residuals(Q, F, 3)
    assert all(abs(float(r)) <= 1e-10 for r in residuals)
    assert all(f > 0 for f in F)
    assert all(Q[i][i] > 0 for i in range(4))


def test_lower_program_paper_value():
    # weighted witness (0, 1): one-hot at the second index at its base level
    sol = conic.solve(W.build_lower(W.WitnessSpec((0.0, 1.0)), 2), tol=1e-8)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 0.5) < 1e-6


def test_verify_strong_duality():
    sol = conic.solve(one_var_problem(), tol=1e-8)
    assert conic.verify_strong_duality(sol, 1e-6)
    sol.dual_value = sol.primal_value + 0.1
    assert not conic.verify_strong_duality(sol, 1e-6)
    sol.status = "numerical_limit"
    with pytest.raises(ValueError):
        conic.verify_strong_duality(sol, 1e-6)


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
        res = conic.kkt_residuals(p, sol)
        for key, val in res.items():
            assert val <= 1e-7, (key, val)


def test_kkt_residuals_on_problem_blocks():
    # the residuals against a plain per-block computation, on 12 1x1 blocks
    # and a 12x12 one
    prob = monomial.lower_dual(W.WitnessSpec.fock(3), 11, "balanced")
    sol = conic.solve(prob)
    assert len(sol.X) == len(prob.blocks)
    assert all(x.shape == (1, 1) for x in sol.X[:-1])
    res = conic.kkt_residuals(prob, sol)
    Ax = [
        sum((a * x).sum() for a, x in zip(mats, sol.X)) for mats, _ in prob.constraints
    ]
    rp = max(abs(rhs - ax) for (_, rhs), ax in zip(prob.constraints, Ax))
    S = [
        sum(yi * mats[k] for yi, (mats, _) in zip(sol.y, prob.constraints)) - c
        for k, c in enumerate(prob.objective)
    ]
    dual_min = min(0.0, *(np.linalg.eigvalsh(s)[0] for s in S))
    x_min = min(0.0, *(np.linalg.eigvalsh(x)[0] for x in sol.X))
    comp = abs(sum((x * s).sum() for x, s in zip(sol.X, S))) / (
        1.0 + abs(sol.primal_value)
    )
    expected = {
        "primal": rp,
        "dual_psd_violation": -dual_min,
        "x_psd_violation": -x_min,
        "complementarity": comp,
    }
    assert res.keys() == expected.keys()
    for key, val in expected.items():
        assert res[key] == pytest.approx(val, rel=1e-9, abs=1e-15), key


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_stop_reason_reported(precision):
    cases = [
        (one_var_problem(), "optimal", "converged"),
        (monomial.lower_dual(W.WitnessSpec.fock(6), 12, "balanced"),
         "numerical_limit", None),
    ]
    for prob, status, reason in cases:
        sol = conic.solve(prob, precision=precision)
        assert sol.status == status
        assert isinstance(sol.info["stop_reason"], str)
        if reason is not None:
            assert sol.info["stop_reason"] == reason
        else:
            assert sol.info["stop_reason"] in (
                "factorisation_failed", "schur_factorisation_failed",
                "nonfinite_direction", "stalled_steps", "iteration_cap",
            )
        json.dumps(sol.info)
    capped = conic.solve(one_var_problem(), precision=precision, max_iterations=2)
    assert capped.info["stop_reason"] == "iteration_cap"
    json.dumps(capped.info)


def test_export_round_trip_identity():
    p = conic.SdpProblem(
        blocks=(2, -1),
        objective=([[1.0, 0.25], [0.25, -1.0]], [0.5]),
        constraints=(
            (([[1.0, 0.0], [0.0, 1.0]], [0.0]), 1.0),
            (([[0.0, 0.5], [0.5, 0.0]], [2.0]), 0.25),
        ),
    )
    assert conic.parse_sdpa(conic.export_sdpa(p)) == p


def test_export_resolve_same_optimum():
    p = monomial.upper_compact(W.WitnessSpec.fock(1), 3)
    v0 = conic.solve(p, tol=1e-9).primal_value
    v1 = conic.solve(conic.parse_sdpa(conic.export_sdpa(p)), tol=1e-9).primal_value
    assert abs(v0 - v1) < 1e-8


def test_export_requires_constraints():
    p = one_var_problem()
    empty = conic.SdpProblem(blocks=(1,), objective=([[1.0]],), constraints=())
    with pytest.raises(ValueError, match="at least one constraint"):
        conic.export_sdpa(empty)
    assert conic.export_sdpa(p).startswith("*SENSE: max")


def test_solve_rejects_empty_and_bad_tol():
    empty = conic.SdpProblem(blocks=(1,), objective=([[1.0]],), constraints=())
    with pytest.raises(ValueError):
        conic.solve(empty)
    with pytest.raises(ValueError):
        conic.solve(one_var_problem(), tol=-1.0)


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
    psd = block.ndim == 2
    size = len(block) if psd else -len(block)
    assert conic._psd_ok([size], [block]) is None
    shift = np.eye(len(block), dtype=dtype) if psd else 1.0
    fine = np.nan_to_num(block, nan=0.0, posinf=0.0) + 2 * shift
    assert conic._psd_ok([size], [fine]) is not None


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


def _triangles(rng, n):
    """A Cholesky factor and a general lower triangle, each in C and F order."""
    g = rng.standard_normal((n, n))
    chol = np.linalg.cholesky(g @ g.T + n * np.eye(n))
    tri = np.tril(rng.standard_normal((n, n)))
    np.fill_diagonal(tri, rng.uniform(0.1, 2.0, n) * rng.choice([-1.0, 1.0], n))
    for L in (chol, tri):
        yield L
        yield np.asfortranarray(L)


@pytest.mark.parametrize("n", range(1, 21))
def test_triangular_solves_match_scipy_bitwise(n):
    rng = np.random.default_rng(100 + n)
    rhs = (
        rng.standard_normal(n),
        rng.standard_normal((n, 3)),
        np.asfortranarray(rng.standard_normal((n, 4))),
    )
    for L in _triangles(rng, n):
        for b in rhs:
            ref = sla.solve_triangular(L, b, lower=True, check_finite=False)
            assert _same_bits(conic._solve_lower(L, b), ref)
            # L.T is how _chol_solve passes the upper factor
            for U in (L.T, np.ascontiguousarray(L.T)):
                ref = sla.solve_triangular(U, b, lower=False, check_finite=False)
                assert _same_bits(conic._solve_upper(U, b), ref)


@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_singular_triangle_raises(n):
    L = np.tril(np.ones((n, n)))
    L[n // 2, n // 2] = 0.0
    b = np.ones(n)
    with pytest.raises(np.linalg.LinAlgError):
        sla.solve_triangular(L, b, lower=True, check_finite=False)
    for a in (L, np.asfortranarray(L)):
        with pytest.raises(np.linalg.LinAlgError):
            conic._solve_lower(a, b)
        with pytest.raises(np.linalg.LinAlgError):
            conic._solve_upper(a.T, b)


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


def _through_scipy_wrappers(mp):
    """Run the solver as before the direct kernels: scipy.linalg wrappers,
    np.tensordot for A^T y, and fresh factors of every accepted iterate."""
    mp.setattr(
        conic,
        "_trsolve",
        lambda a, b, lower: sla.solve_triangular(a, b, lower=lower, check_finite=False),
    )
    mp.setattr(
        conic,
        "_min_eigenvalue",
        lambda a: float(sla.eigh(a, eigvals_only=True, check_finite=False)[0]),
    )

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
    objective = random_blocks()
    constraints = [(tuple(np.eye(b) if b > 0 else np.ones(-b) for b in blocks), 1.0)]
    for _ in range(dense_rows):
        mats = random_blocks()
        centre = sum(np.trace(a) if a.ndim == 2 else a.sum() for a in mats) / n
        constraints.append((mats, float(centre)))
    return conic.SdpProblem(
        blocks=blocks, objective=objective, constraints=tuple(constraints)
    )


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
    for attr in ("primal_value", "dual_value", "gap"):
        assert np.float64(getattr(new, attr)).tobytes() == np.float64(
            getattr(ref, attr)
        ).tobytes()
