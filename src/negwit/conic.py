"""Standard-form SDP/LP modeling, a dense interior-point solver, SDPA interop.

Problems are stored in the standard conic pair

    (max)  maximise  <C, X>   s.t.  <B_i, X> = b_i,  X >= 0
    (min)  minimise  b^T y    s.t.  sum_i y_i B_i - C >= 0

over block-diagonal symmetric matrices; both readings share the same data
(blocks, C, (B_i, b_i)) and the solver always produces the primal-dual pair,
so a problem tagged "min" simply reports the second reading as its value.
Blocks with positive size are dense PSD blocks; negative sizes are diagonal
blocks (modelling LP variables).

The solver is an infeasible-start primal-dual path-following method with the
HKM search direction and a Mehrotra predictor-corrector, dense Cholesky
factorisations throughout.  Intended for small dense instances (blocks up to
~130, a few thousand constraints).  ``precision="extended"`` runs the whole
iteration in numpy longdouble with hand-rolled blocked factorisations, which
is what rescues the deep hierarchy levels where binary64 stalls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
import scipy.linalg as sla

Status = Literal["optimal", "primal_infeasible", "dual_infeasible", "numerical_limit"]

MAX_ITERATIONS = 200
DEFAULT_TOL = 1e-8
_STEP_FRACTION = 0.98


def _as_block_arrays(blocks, mats, dtype=float):
    out = []
    if len(mats) != len(blocks):
        raise ValueError("matrix has wrong number of blocks")
    for size, m in zip(blocks, mats):
        a = np.asarray(m, dtype=dtype)
        if size > 0:
            if a.shape != (size, size):
                raise ValueError(f"expected {size}x{size} block, got {a.shape}")
            if not np.array_equal(a, a.T):
                if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
                    raise ValueError("block matrix is not symmetric")
                a = (a + a.T) / 2.0
        else:
            if a.shape != (-size,):
                raise ValueError(f"expected diagonal block of length {-size}")
        out.append(a)
    return tuple(out)


@dataclass(frozen=True)
class SdpProblem:
    """Standard-form conic problem over block-diagonal symmetric matrices."""

    blocks: tuple
    objective: tuple
    constraints: tuple  # ((mats, rhs), ...)
    sense: str = "max"

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        if any(b == 0 for b in blocks):
            raise ValueError("zero-size block")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(
            self, "objective", _as_block_arrays(blocks, self.objective)
        )
        cons = tuple(
            (_as_block_arrays(blocks, mats), float(rhs))
            for mats, rhs in self.constraints
        )
        object.__setattr__(self, "constraints", cons)
        if self.sense not in ("max", "min"):
            raise ValueError("sense must be 'max' or 'min'")

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def dimension(self) -> int:
        return sum(abs(b) for b in self.blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SdpProblem):
            return NotImplemented
        if self.blocks != other.blocks or self.sense != other.sense:
            return False
        if len(self.constraints) != len(other.constraints):
            return False
        for a, b in zip(self.objective, other.objective):
            if not np.array_equal(a, b):
                return False
        for (ma, ra), (mb, rb) in zip(self.constraints, other.constraints):
            if ra != rb:
                return False
            for a, b in zip(ma, mb):
                if not np.array_equal(a, b):
                    return False
        return True


@dataclass
class SdpSolution:
    X: tuple
    y: np.ndarray
    primal_value: float
    dual_value: float
    gap: float
    status: Status
    iterations: int = 0
    info: dict = field(default_factory=dict)

    @property
    def value(self) -> float:
        return self.primal_value


# ---------------------------------------------------------------------------
# longdouble-capable dense kernels
# ---------------------------------------------------------------------------


def _interior(d):
    """Where d is finite and positive; NaN and +inf fail both comparisons."""
    return (d > 0) & (d < np.inf)


def _chol(a: np.ndarray):
    """Lower Cholesky; raises LinAlgError when not positive definite."""
    if a.dtype != np.float64:
        return _chol_blocked(a)
    L = np.linalg.cholesky(a)
    # potrf passes NaN and +inf through without an error
    if not np.all(_interior(np.diagonal(L))):
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return L


def _chol_blocked(a: np.ndarray, blk: int = 64):
    n = a.shape[0]
    L = np.array(a, copy=True)
    for j0 in range(0, n, blk):
        j1 = min(j0 + blk, n)
        if j0:
            L[j0:, j0:j1] = L[j0:, j0:j1] - L[j0:, :j0] @ L[j0:j1, :j0].T
        for j in range(j0, j1):
            d = L[j, j] - np.dot(L[j, j0:j], L[j, j0:j])
            if not _interior(d):
                raise np.linalg.LinAlgError("matrix is not positive definite")
            d = np.sqrt(d)
            L[j, j] = d
            if j + 1 < n:
                L[j + 1 :, j] = (
                    L[j + 1 :, j] - L[j + 1 :, j0:j] @ L[j, j0:j]
                ) / d
    for j in range(n):
        L[j, j + 1 :] = 0
    return L


# float64 LAPACK routines, called directly: the scipy.linalg wrappers cost
# more than the arithmetic on blocks this small.  Arguments mirror what
# sla.solve_triangular and sla.eigh(eigvals_only=True) pass, so the results
# are the same bits.
_trtrs, _syevr, _syevr_lwork = sla.get_lapack_funcs(
    ("trtrs", "syevr", "syevr_lwork"), (np.empty(0),)
)


def _trsolve(a: np.ndarray, b: np.ndarray, lower: bool):
    # LAPACK wants Fortran order; a C-ordered a is the transposed system
    if a.flags.f_contiguous:
        x, info = _trtrs(a, b, lower=lower, trans=0)
    else:
        x, info = _trtrs(a.T, b, lower=not lower, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info={info})")
    return x


@functools.cache
def _syevr_work(n: int):
    work, iwork, info = _syevr_lwork(n, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"syevr workspace query failed (info={info})")
    return int(work), int(iwork)


def _min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric float64 matrix a."""
    n = a.shape[0]
    if n == 1:  # syevr returns the entry itself when N = 1
        return float(a[0, 0])
    lwork, liwork = _syevr_work(n)
    w, _, _, _, info = _syevr(a, compute_v=0, lower=1, lwork=lwork, liwork=liwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"syevr failed (info={info})")
    return float(w[0])


def _solve_lower(L: np.ndarray, b: np.ndarray):
    """Solve L x = b, L lower triangular; b may be a matrix."""
    if L.dtype == np.float64 and b.dtype == np.float64:
        return _trsolve(L, b, lower=True)
    n = L.shape[0]
    x = np.array(b, copy=True)
    for i in range(n):
        if i:
            x[i] = x[i] - L[i, :i] @ x[:i]
        x[i] = x[i] / L[i, i]
    return x


def _solve_upper(U: np.ndarray, b: np.ndarray):
    if U.dtype == np.float64 and b.dtype == np.float64:
        return _trsolve(U, b, lower=False)
    n = U.shape[0]
    x = np.array(b, copy=True)
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] = x[i] - U[i, i + 1 :] @ x[i + 1 :]
        x[i] = x[i] / U[i, i]
    return x


def _chol_solve(L: np.ndarray, b: np.ndarray):
    return _solve_upper(L.T, _solve_lower(L, b))


# ---------------------------------------------------------------------------
# solver internals
# ---------------------------------------------------------------------------

class _BlockData:
    """Per-block stacked constraint data in the working dtype.

    The stack of a PSD block is (m, n, n) and that of a diagonal block is
    (m, n), for m constraints.
    """

    def __init__(self, problem: SdpProblem, dtype):
        self.blocks = problem.blocks
        self.dtype = dtype
        m = problem.num_constraints
        self.b = np.array([rhs for _, rhs in problem.constraints], dtype=dtype)
        self.C = []
        self.Bstack = []
        self.Bflat = []  # (m, n*n) views of the PSD stacks; diagonal stacks as is
        for bi, size in enumerate(problem.blocks):
            n = abs(size)
            self.C.append(np.asarray(problem.objective[bi], dtype=dtype))
            stack = np.empty((m, n, n) if size > 0 else (m, n), dtype=dtype)
            for ci, (mats, _) in enumerate(problem.constraints):
                stack[ci] = np.asarray(mats[bi], dtype=dtype)
            self.Bstack.append(stack)
            self.Bflat.append(stack.reshape(m, -1))
        # read-only identities for the Schur jitter, S^{-1} and the centring term
        self.eye = {}
        for n in {m, *(b for b in problem.blocks if b > 0)}:
            self.eye[n] = np.eye(n, dtype=dtype)
            self.eye[n].setflags(write=False)
        self.norm_b = max(1.0, float(np.max(np.abs(self.b))) if m else 1.0)
        self.norm_C = max(
            1.0, max(float(np.max(np.abs(c))) if c.size else 0.0 for c in self.C)
        )

    def apply_A(self, Xb) -> np.ndarray:
        """Vector of <B_i, X>."""
        out = np.zeros(len(self.b), dtype=self.dtype)
        for flat, x in zip(self.Bflat, Xb):
            out += flat @ x.reshape(-1)
        return out

    def apply_At(self, y) -> list:
        """Block matrix sum_i y_i B_i."""
        out = []
        row = y.reshape(1, -1)
        for size, flat in zip(self.blocks, self.Bflat):
            if size > 0:
                # the product np.tensordot(y, stack, axes=(0, 0)) performs
                out.append(np.dot(row, flat).reshape(size, size))
            else:
                out.append(y @ flat)
        return out


def _blk_inner(A, B):
    total = 0.0
    for a, b in zip(A, B):
        total = total + (a * b).sum()
    return total


def _identity_blocks(blocks, dtype, scale=1.0):
    out = []
    for size in blocks:
        if size > 0:
            out.append(np.eye(size, dtype=dtype) * dtype(scale))
        else:
            out.append(np.full(-size, dtype(scale), dtype=dtype))
    return out


def _max_step(blocks, Xb, dXb, chols):
    """Largest alpha <= 1e32 with X + alpha dX psd (per-block boundary)."""
    alpha = np.inf
    for size, x, dx, L in zip(blocks, Xb, dXb, chols):
        if size > 0:
            K = _solve_lower(L, _solve_lower(L, dx).T)
            Kd = np.asarray(K, dtype=np.float64)
            lam = _min_eigenvalue((Kd + Kd.T) / 2.0)
            if lam < -1e-300:
                alpha = min(alpha, -1.0 / lam)
        else:
            neg = dx < 0
            if np.any(neg):
                alpha = min(alpha, float(np.min(-x[neg] / dx[neg])))
    return alpha


def _psd_ok(blocks, Xb):
    try:
        return [
            _chol(x) if size > 0 else _diag_chol(x) for size, x in zip(blocks, Xb)
        ]
    except np.linalg.LinAlgError:
        return None


def _interior_step(blocks, Vb, dVb, alpha, dtype):
    """Backtrack alpha until V + alpha dV factors; the step, its factors, alpha.

    The factors are None when 60 reductions do not reach an interior point.
    """
    for _ in range(60):
        trial = [v + dtype(alpha) * d for v, d in zip(Vb, dVb)]
        chols = _psd_ok(blocks, trial)
        if chols is not None:
            return trial, chols, alpha
        alpha *= 0.8
    return [v + dtype(alpha) * d for v, d in zip(Vb, dVb)], None, alpha


def _diag_chol(x):
    if not np.all(_interior(x)):
        raise np.linalg.LinAlgError("diagonal block not positive")
    return x


def solve(
    problem: SdpProblem,
    tol: float = DEFAULT_TOL,
    precision: str = "double",
    max_iterations: int = MAX_ITERATIONS,
) -> SdpSolution:
    """Solve the primal-dual pair for ``problem``.

    Returns an ``SdpSolution`` whose primal_value/dual_value follow the
    problem's declared sense (for "min" problems the stated value is b^T y).
    Raises ValueError on malformed input; numerical trouble is reported via
    ``status="numerical_limit"``, never an exception.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if precision not in ("double", "extended"):
        raise ValueError("precision must be 'double' or 'extended'")
    if problem.num_constraints == 0:
        raise ValueError("problem needs at least one constraint")
    dtype = np.float64 if precision == "double" else np.longdouble
    data = _BlockData(problem, dtype)
    blocks = problem.blocks
    m = problem.num_constraints
    ntot = sum(abs(b) for b in blocks)

    Xb = _identity_blocks(blocks, dtype, math.sqrt(ntot))
    Sb = _identity_blocks(blocks, dtype, max(1.0, data.norm_C))
    y = np.zeros(m, dtype=dtype)

    best = None
    stalls = 0
    Lx = Ls = None  # factors of Xb and Sb, when the last step already made them
    status: Status = "numerical_limit"
    stop_reason = "iteration_cap"
    it = 0
    for it in range(1, max_iterations + 1):
        pobj = _blk_inner(data.C, Xb)
        dobj = float(data.b @ y)
        rp = data.b - data.apply_A(Xb)
        Aty = data.apply_At(y)
        Rd = [c + s - a for c, s, a in zip(data.C, Sb, Aty)]
        mu = _blk_inner(Xb, Sb) / ntot
        rp_norm = float(np.max(np.abs(rp))) / data.norm_b if m else 0.0
        rd_norm = max(float(np.max(np.abs(r))) for r in Rd) / data.norm_C
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        # complementarity guards against near-feasible iterate pairs whose
        # small mutual gap hides large multiplier-weighted infeasibility
        comp = abs(_blk_inner(Xb, Sb)) / (1.0 + abs(pobj) + abs(dobj))
        quality = max(relgap, rp_norm, rd_norm, comp)
        # plain floats, so that info stays JSON-safe after extended solves
        residuals = {
            "rp": rp_norm, "rd": rd_norm, "relgap": float(relgap), "comp": float(comp)
        }
        converged = (
            relgap <= tol and rp_norm <= tol and rd_norm <= tol and comp <= 10 * tol
        )
        if converged or best is None or quality < best[0]:
            best = (
                quality, [np.array(x) for x in Xb], np.array(y), pobj, dobj, residuals
            )
        if converged:
            status, stop_reason = "optimal", "converged"
            break
        # crude divergence certificates
        if dobj < -1.0 / tol * data.norm_b and rd_norm < math.sqrt(tol):
            status = stop_reason = "primal_infeasible"
            break
        if pobj > 1.0 / tol * data.norm_b and rp_norm < math.sqrt(tol):
            status = stop_reason = "dual_infeasible"
            break

        if Lx is None:
            Lx = _psd_ok(blocks, Xb)
        if Ls is None:
            Ls = _psd_ok(blocks, Sb)
        if Lx is None or Ls is None:
            status, stop_reason = "numerical_limit", "factorisation_failed"
            break
        Sinv = [
            _chol_solve(L, data.eye[size]) if size > 0 else 1.0 / s
            for size, s, L in zip(blocks, Sb, Ls)
        ]
        # with S^{-1} and the Schur solutions finite, so is every direction,
        # and no inf or NaN reaches the step-length eigenvalue solver
        if not all(np.isfinite(si).all() for si in Sinv):
            status, stop_reason = "numerical_limit", "nonfinite_direction"
            break

        # Schur complement H_ij = sum_blocks Tr(B_i X B_j S^{-1})
        H = np.zeros((m, m), dtype=dtype)
        for size, stack, flat, x, si in zip(
            blocks, data.Bstack, data.Bflat, Xb, Sinv
        ):
            if size > 0:
                T = np.matmul(np.matmul(x, stack), si)
                H += flat @ T.reshape(m, -1).T
            else:
                w = x * si
                H += (stack * w) @ stack.T
        H = (H + H.T) / 2.0

        Lh = None
        jitter = 0.0
        base = float(np.max(np.abs(np.diagonal(H)))) or 1.0
        for attempt in range(8):
            try:
                Lh = _chol(H + (jitter * base) * data.eye[m])
                break
            except np.linalg.LinAlgError:
                jitter = 1e-14 if jitter == 0.0 else jitter * 100.0
        if Lh is None:
            status, stop_reason = "numerical_limit", "schur_factorisation_failed"
            break

        def rhs_for(Rc):
            # A(Rc S^{-1}) + A(X Rd S^{-1}) - rp
            vec = -rp.astype(dtype)
            for size, flat, rc, rd, x, si in zip(blocks, data.Bflat, Rc, Rd, Xb, Sinv):
                if size > 0:
                    Mx = (rc + x @ rd) @ si
                    vec += flat @ Mx.reshape(-1)
                else:
                    vec += flat @ ((rc + x * rd) * si)
            return vec

        def schur_solve(rhs):
            dy = _chol_solve(Lh, rhs)
            for _ in range(2):  # iterative refinement; H is often near-singular
                resid = rhs - H @ dy
                dy = dy + _chol_solve(Lh, resid)
            return dy

        def direction(Rc):
            dy = schur_solve(rhs_for(Rc))
            dS = [a - r for a, r in zip(data.apply_At(dy), Rd)]
            dX = []
            for size, rc, x, ds, si in zip(blocks, Rc, Xb, dS, Sinv):
                if size > 0:
                    v = (rc - x @ ds) @ si
                    dX.append((v + v.T) / 2.0)
                else:
                    dX.append((rc - x * ds) * si)
            return dX, dy, dS

        # predictor
        Rc_aff = [
            -(x @ s) if size > 0 else -(x * s) for size, x, s in zip(blocks, Xb, Sb)
        ]
        dX_a, dy_a, dS_a = direction(Rc_aff)
        if not np.isfinite(dy_a).all():  # the Schur solve overflowed
            status, stop_reason = "numerical_limit", "nonfinite_direction"
            break
        ap = min(1.0, _max_step(blocks, Xb, dX_a, Lx))
        ad = min(1.0, _max_step(blocks, Sb, dS_a, Ls))
        mu_aff = (
            _blk_inner(
                [x + ap * d for x, d in zip(Xb, dX_a)],
                [s + ad * d for s, d in zip(Sb, dS_a)],
            )
            / ntot
        )
        sigma = min(1.0, max(1e-10, float((max(mu_aff, 0.0) / mu) ** 3)))

        # corrector
        Rc = []
        for size, x, s, dxa, dsa in zip(blocks, Xb, Sb, dX_a, dS_a):
            if size > 0:
                Rc.append(dtype(sigma * mu) * data.eye[size] - x @ s - dxa @ dsa)
            else:
                Rc.append(dtype(sigma * mu) - x * s - dxa * dsa)
        dX, dy, dS = direction(Rc)
        if not np.isfinite(dy).all():
            status, stop_reason = "numerical_limit", "nonfinite_direction"
            break
        ap = _STEP_FRACTION * min(1.0 / _STEP_FRACTION, _max_step(blocks, Xb, dX, Lx))
        ad = _STEP_FRACTION * min(1.0 / _STEP_FRACTION, _max_step(blocks, Sb, dS, Ls))

        # keep iterates safely interior
        X_next, Lx, ap = _interior_step(blocks, Xb, dX, ap, dtype)
        S_next, Ls, ad = _interior_step(blocks, Sb, dS, ad, dtype)

        if max(ap, ad) < 1e-10:
            stalls += 1
            if stalls >= 3:
                status, stop_reason = "numerical_limit", "stalled_steps"
                break
        else:
            stalls = 0

        Xb = X_next
        y = y + dtype(ad) * dy
        Sb = S_next
    else:
        status = "numerical_limit"

    diag = {}
    if best is not None and status in ("optimal", "numerical_limit"):
        _, Xb, y, pobj, dobj, diag = best
    else:
        pobj = _blk_inner(data.C, Xb)
        dobj = float(data.b @ y)

    X_out = tuple(np.asarray(x, dtype=np.float64) for x in Xb)
    y_out = np.asarray(y, dtype=np.float64)
    pv, dv = float(pobj), float(dobj)
    relgap = abs(pv - dv) / (1.0 + abs(pv) + abs(dv))
    if problem.sense == "min":
        pv, dv = dv, pv
    return SdpSolution(
        X=X_out,
        y=y_out,
        primal_value=pv,
        dual_value=dv,
        gap=relgap,
        status=status,
        iterations=it,
        info={"precision": precision, "tol": tol, **diag, "stop_reason": stop_reason},
    )

def verify_strong_duality(solution: SdpSolution, tol: float) -> bool:
    """True iff the reported primal and dual values agree within tol."""
    if solution.status != "optimal":
        raise ValueError("strong duality check requires an optimal solution")
    return abs(solution.primal_value - solution.dual_value) <= tol


def kkt_residuals(problem: SdpProblem, solution: SdpSolution) -> dict:
    """Primal feasibility, dual feasibility and complementarity residuals."""
    data = _BlockData(problem, np.float64)
    Xb = solution.X
    rp = float(np.max(np.abs(data.b - data.apply_A(Xb)))) if len(data.b) else 0.0
    Sb = [a - c for a, c in zip(data.apply_At(solution.y), data.C)]
    dual_min = 0.0
    x_min = 0.0
    for size, s, x in zip(problem.blocks, Sb, Xb):
        if size > 0:
            dual_min = min(dual_min, float(np.min(sla.eigvalsh(s))))
            x_min = min(x_min, float(np.min(sla.eigvalsh(x))))
        else:
            dual_min = min(dual_min, float(np.min(s)))
            x_min = min(x_min, float(np.min(x)))
    comp = abs(_blk_inner(Xb, Sb)) / (1.0 + abs(solution.primal_value))
    return {
        "primal": rp,
        "dual_psd_violation": -dual_min,
        "x_psd_violation": -x_min,
        "complementarity": comp,
    }


# ---------------------------------------------------------------------------
# SDPA sparse format (.dat-s)
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.16e}"


def export_sdpa(problem: SdpProblem) -> str:
    """Serialise to SDPA sparse format; matno 0 is the objective."""
    if problem.num_constraints == 0:
        raise ValueError("SDPA export needs at least one constraint")
    lines = [f"*SENSE: {problem.sense}"]
    lines.append(f"{problem.num_constraints}")
    lines.append(f"{len(problem.blocks)}")
    lines.append(" ".join(str(b) for b in problem.blocks))
    lines.append(" ".join(_fmt(rhs) for _, rhs in problem.constraints))

    def emit(matno, mats):
        for bi, (size, a) in enumerate(zip(problem.blocks, mats), start=1):
            if size > 0:
                idx = np.argwhere(np.triu(np.ones_like(a, dtype=bool)))
                for i, j in idx:
                    if a[i, j] != 0.0:
                        lines.append(f"{matno} {bi} {i + 1} {j + 1} {_fmt(a[i, j])}")
            else:
                for i, v in enumerate(a):
                    if v != 0.0:
                        lines.append(f"{matno} {bi} {i + 1} {i + 1} {_fmt(v)}")

    emit(0, problem.objective)
    for ci, (mats, _) in enumerate(problem.constraints, start=1):
        emit(ci, mats)
    return "\n".join(lines) + "\n"


def parse_sdpa(text: str) -> SdpProblem:
    """Parse the SDPA sparse format produced by :func:`export_sdpa`."""
    sense = "max"
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("*") or line.startswith('"'):
            if line.upper().startswith("*SENSE:"):
                sense = line.split(":", 1)[1].strip().lower()
            continue
        for ch in ",(){}":
            line = line.replace(ch, " ")
        rows.append(line.split())
    if len(rows) < 4:
        raise ValueError("truncated SDPA input")
    m = int(rows[0][0])
    nblocks = int(rows[1][0])
    blocks = tuple(int(v) for v in rows[2][:nblocks])
    rhs = [float(v) for v in rows[3][:m]]

    def zero():
        return [
            np.zeros((b, b)) if b > 0 else np.zeros(-b) for b in blocks
        ]

    mats = [zero() for _ in range(m + 1)]
    for entry in rows[4:]:
        matno, blk, i, j = (int(entry[0]), int(entry[1]), int(entry[2]), int(entry[3]))
        val = float(entry[4])
        tgt = mats[matno][blk - 1]
        if blocks[blk - 1] > 0:
            tgt[i - 1, j - 1] = val
            tgt[j - 1, i - 1] = val
        else:
            if i != j:
                raise ValueError("off-diagonal entry in diagonal block")
            tgt[i - 1] = val
    constraints = tuple(
        (tuple(mats[k + 1]), rhs[k]) for k in range(m)
    )
    return SdpProblem(
        blocks=blocks, objective=tuple(mats[0]), constraints=constraints, sense=sense
    )
