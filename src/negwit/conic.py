"""Standard-form SDP/LP modeling, a dense interior-point solver, SDPA export.

Problems are stored in the standard conic pair

    (max)  maximise  <C, X>   s.t.  <B_i, X> = b_i,  X >= 0
    (min)  minimise  b^T y    s.t.  sum_i y_i B_i - C >= 0

over block-diagonal symmetric matrices; both readings share the same data
and the solver always produces the primal-dual pair, so a problem tagged
"min" simply reports the second reading as its value.  Blocks with positive
size are dense PSD blocks; negative sizes are diagonal blocks (modelling LP
variables).  ``SdpProblem`` stores the data per block, as the solver uses
it: block j of C, and one stack holding block j of every B_i, (m, n, n) for
a PSD block and (m, n) for a diagonal one.  The solver treats a diagonal
block as a PSD block whose products are elementwise: a few kernels tell the
two kinds apart by the array's ndim, and the iteration itself runs one
path for both.

The solver is an infeasible-start primal-dual path-following method with the
HKM search direction and a Mehrotra predictor-corrector, dense Cholesky
factorisations throughout.  It starts from SDPT3's data-scaled point, and
the regularising jitter of its Schur complement is sized to each row's own
diagonal entry rather than to the largest.  Intended for small dense
instances (blocks up to ~130, a few thousand constraints).  In float64
every factorisation and solve is one call to a LAPACK or BLAS routine
through a scipy handle: potrf factors, trtrs and trsm solve with the
factor, and each PSD block's step length is the smallest eigenvalue (syevr)
of L^{-1} dX L^{-T}, which sygst forms in one call.  ``precision="extended"``
runs the whole iteration in numpy longdouble with a column-loop Cholesky
factorisation and loop substitutions, forward by the rows of L and back by
its columns, since LAPACK has no longdouble routines; that is what rescues
the deep hierarchy levels where binary64 stalls.
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


def _block_array(size: int, a, lead=()) -> np.ndarray:
    """Block data as a read-only float array of shape lead + the block's.

    Each matrix of a PSD block that is not exactly symmetric is rejected
    when the asymmetry exceeds 1e-12 max(1, max|a|), and symmetrised else.
    """
    n = abs(size)
    shape = (*lead, n, n) if size > 0 else (*lead, n)
    a = np.array(a, dtype=float, order="C")
    if a.shape != shape:
        raise ValueError(f"expected block data of shape {shape}, got {a.shape}")
    if size > 0:
        mats = a.reshape(-1, n, n)
        for k in np.flatnonzero(np.any(mats != mats.swapaxes(1, 2), axis=(1, 2))):
            g = mats[k]
            if np.max(np.abs(g - g.T)) > 1e-12 * max(1.0, np.max(np.abs(g))):
                raise ValueError("block matrix is not symmetric")
            mats[k] = (g + g.T) / 2.0
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SdpProblem:
    """Standard-form conic problem over block-diagonal symmetric matrices.

    Data is stored per block: ``C[j]`` is block j of the objective and
    ``A[j]`` stacks block j of every constraint, (m, n, n) for a PSD block
    and (m, n) for a diagonal one; ``b`` holds the m right-hand sides.  The
    stored arrays are float64 and read-only.
    """

    blocks: tuple
    C: tuple
    A: tuple
    b: np.ndarray
    sense: str = "max"

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        if any(b == 0 for b in blocks):
            raise ValueError("zero-size block")
        if len(self.C) != len(blocks) or len(self.A) != len(blocks):
            raise ValueError("data has wrong number of blocks")
        b = np.array(self.b, dtype=float)
        if b.ndim != 1:
            raise ValueError("b must be a vector")
        b.setflags(write=False)
        C = tuple(_block_array(s, c) for s, c in zip(blocks, self.C))
        A = tuple(_block_array(s, a, b.shape) for s, a in zip(blocks, self.A))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if self.sense not in ("max", "min"):
            raise ValueError("sense must be 'max' or 'min'")

    @property
    def num_constraints(self) -> int:
        return len(self.b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SdpProblem):
            return NotImplemented
        return (
            self.blocks == other.blocks
            and self.sense == other.sense
            and np.array_equal(self.b, other.b)
            and all(map(np.array_equal, self.C + self.A, other.C + other.A))
        )


@dataclass
class SdpSolution:
    X: tuple
    y: np.ndarray
    primal_value: float
    dual_value: float
    status: Status
    iterations: int = 0
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# longdouble-capable dense kernels
# ---------------------------------------------------------------------------


# numpy has no BLAS for longdouble, so its matmul falls back to a generic
# strided loop.  np.dot runs the dtype's own dot loop, 2-3x faster on these
# sizes, and sums in the same order (start at 0, add left to right),
# so every longdouble product keeps its bits.  float64 products stay on
# matmul (_BlockData.dot picks one per solve): a 3-D np.dot would leave BLAS
# and round differently.  The longdouble-only kernels below call np.dot.
def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The longdouble a @ b, for b a vector, a matrix or a stack of matrices."""
    if b.ndim == 3:  # np.dot pairs the stack axis with a's rows
        return np.dot(a, b).transpose(1, 0, 2)
    return np.dot(a, b)


def _interior(d):
    """Where d is finite and positive; NaN and +inf fail both comparisons."""
    return (d > 0) & (d < np.inf)


def _chol(a: np.ndarray):
    """Lower Cholesky factor, or a diagonal (1-D) block itself; raises
    LinAlgError when not positive definite."""
    if a.ndim == 1:
        # a NaN entry makes the minimum NaN, which fails the first test
        if not (np.minimum.reduce(a) > 0 and np.maximum.reduce(a) < np.inf):
            raise np.linalg.LinAlgError("diagonal block not positive")
        return a
    if a.dtype != np.float64:
        return _chol_longdouble(a)
    # a is symmetric, so its Fortran-ordered transpose is a itself, and the
    # upper factor U of a = U^T U, in Fortran order, is the C-ordered lower
    # factor U^T; clean=1 zeroes the strict lower part of U
    U, info = _potrf(a.T, lower=0, clean=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"matrix is not positive definite (info={info})")
    # potrf reports a pivot <= 0 but passes NaN and +inf through, so each
    # diagonal entry is positive, NaN or +inf.  A positive entry is the root
    # of a float64, below 1.4e154, so their sum cannot overflow: the sum is
    # finite exactly when every entry is
    if not math.isfinite(np.add.reduce(U.diagonal())):
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return U.T


def _chol_longdouble(a: np.ndarray):
    """Lower Cholesky factor of a longdouble matrix, one column at a time."""
    n = a.shape[0]
    L = np.array(a, copy=True)
    for j in range(n):
        d = L[j, j] - np.dot(L[j, :j], L[j, :j])
        if not _interior(d):
            raise np.linalg.LinAlgError("matrix is not positive definite")
        d = np.sqrt(d)
        L[j, j] = d
        if j + 1 < n:
            L[j + 1 :, j] = (L[j + 1 :, j] - np.dot(L[j + 1 :, :j], L[j, :j])) / d
    return np.tril(L)


# float64 LAPACK and BLAS routines, called directly: the scipy.linalg and
# numpy.linalg wrappers cost more than the arithmetic on blocks this small.
# Every float64 factorisation and solve so runs in scipy's OpenBLAS, and
# numpy's runs only matmul.  Each routine has one caller: potrf factors
# (_chol), trtrs and trsm solve with the factor (_chol_solve), sygst forms
# the step-length matrix L^{-1} dX L^{-T} in one call (_max_step), and
# syevr takes its smallest eigenvalue (_min_eigenvalue).  Arguments of
# trtrs, trsm and syevr mirror what sla.solve_triangular and
# sla.eigh(eigvals_only=True) pass, so the results are the same bits.
#
# A right-hand side with several columns (S^{-1}'s identity) goes to BLAS
# trsm, which runs the kernels trtrs uses for nrhs >= 2.  trtrs threads
# those at any size, and numpy and scipy each load their own OpenBLAS with
# its own thread pool, so two busy pools fight over the cores; trsm stays on
# one thread for blocks this small.  A single column stays on trtrs: its
# nrhs = 1 path (trsv) rounds differently.
_trtrs, _syevr, _syevr_lwork, _potrf, _sygst = sla.get_lapack_funcs(
    ("trtrs", "syevr", "syevr_lwork", "potrf", "sygst"), (np.empty(0),)
)
_trsm = sla.get_blas_funcs("trsm", (np.empty(0),))


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
    """Solve L x = b for a longdouble lower triangle L; b may be a matrix."""
    x = np.array(b, copy=True)
    for i in range(L.shape[0]):
        x[i] = (x[i] - np.dot(L[i, :i], x[:i])) / L[i, i]
    return x


def _chol_solve(L: np.ndarray, b: np.ndarray):
    """Solve L L^T x = b for a factor L of :func:`_chol`; b may be a matrix."""
    if L.dtype != np.float64:
        # back substitution with L^T, whose row i is column i of L
        x = _solve_lower(L, b)
        for i in range(L.shape[0] - 1, -1, -1):
            x[i] = (x[i] - np.dot(L[i + 1 :, i], x[i + 1 :])) / L[i, i]
        return x
    # _chol's float64 L is C-ordered, so U = L.T is Fortran-ordered, as
    # LAPACK wants it; _chol's diagonal is positive and finite, so neither
    # solve can meet a singular factor
    U = L.T
    if b.ndim == 2 and b.shape[1] > 1:
        return _trsm(1.0, U, _trsm(1.0, U, b, lower=0, trans_a=1), lower=0)
    z, _ = _trtrs(U, b, lower=0, trans=1)
    x, _ = _trtrs(U, z, lower=0)
    return x


# ---------------------------------------------------------------------------
# solver internals
# ---------------------------------------------------------------------------

class _BlockData:
    """The problem's per-block data in the working dtype.

    The stack of a PSD block is (m, n, n) and that of a diagonal block is
    (m, n), for m constraints.  Iterates follow the same shapes: a diagonal
    block is a vector, and ``muls`` holds each block's product a b, a
    matrix product, elementwise on a diagonal.
    """

    def __init__(self, problem: SdpProblem, dtype):
        self.blocks = problem.blocks
        self.dtype = dtype
        self.dot = np.matmul if dtype == np.float64 else _dot
        self.muls = [self.dot if n > 0 else np.multiply for n in problem.blocks]
        m = problem.num_constraints
        # in double these are the problem's own read-only arrays, not copies
        self.b = np.asarray(problem.b, dtype)
        self.C = [np.asarray(c, dtype) for c in problem.C]
        self.Bstack = [np.asarray(a, dtype) for a in problem.A]
        self.Bflat = [a.reshape(m, -1) for a in self.Bstack]  # diagonal stacks as is
        # read-only identities for the start point, S^{-1} and the centring
        # term, by signed block size: a vector of ones for a diagonal block
        self.eye = {}
        for n in set(problem.blocks):
            self.eye[n] = np.eye(n, dtype=dtype) if n > 0 else np.ones(-n, dtype)
            self.eye[n].setflags(write=False)
        self.norm_b = max(1.0, float(np.max(np.abs(self.b))) if m else 1.0)
        self.norm_C = max(
            1.0, max(float(np.max(np.abs(c))) if c.size else 0.0 for c in self.C)
        )

    def apply_A(self, Xb) -> np.ndarray:
        """Vector of <B_i, X>."""
        out = np.zeros(len(self.b), dtype=self.dtype)
        for flat, x in zip(self.Bflat, Xb):
            out += self.dot(flat, x.reshape(-1))
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
                out.append(self.dot(y, flat))
        return out


def _start_scales(problem: SdpProblem):
    """Per-block multiples of I for the start X and S, by the rule of SDPT3
    (Toh, Todd & Tutuncu, Optim. Methods Softw. 11, 1999)."""
    b1 = 1.0 + np.abs(problem.b)
    xi, eta = [], []
    for size, c, a in zip(problem.blocks, problem.C, problem.A):
        n = abs(size)
        norms = np.linalg.norm(a.reshape(len(a), -1), axis=1)  # ||A_k^j||_F
        floor = max(10.0, math.sqrt(n))
        xi.append(max(floor, n * float(np.max(b1 / (1.0 + norms)))))
        eta.append(max(floor, float(np.max(norms)), float(np.linalg.norm(c))))
    return xi, eta


def _blk_inner(A, B):
    total = 0.0
    for a, b in zip(A, B):
        total = total + np.add.reduce(a * b, axis=None)
    return total


def _max_step(Xb, dXb, chols):
    """Largest alpha <= 1e32 with X + alpha dX psd (per-block boundary)."""
    alpha = np.inf
    for x, dx, L in zip(Xb, dXb, chols):
        if x.ndim == 2:
            if L.dtype == np.float64:
                # sygst forms the upper triangle of U^{-T} dX U^{-1} for
                # U = L^T, and syevr reads the lower triangle of its
                # transpose; dX is symmetric, so dx.T is dx in Fortran order
                K, info = _sygst(dx.T, L.T, itype=1, lower=0)
                if info != 0:
                    raise np.linalg.LinAlgError(f"sygst failed (info={info})")
                lam = _min_eigenvalue(K.T)
            else:
                K = _solve_lower(L, _solve_lower(L, dx).T)
                Kd = np.asarray(K, dtype=np.float64)
                lam = _min_eigenvalue((Kd + Kd.T) / 2.0)
            if lam < -1e-300:
                alpha = min(alpha, -1.0 / lam)
        else:
            neg = dx < 0
            ratio = np.minimum.reduce(-x[neg] / dx[neg], initial=np.inf)
            alpha = min(alpha, float(ratio))
    return alpha


def _psd_ok(Xb):
    try:
        return [_chol(x) for x in Xb]
    except np.linalg.LinAlgError:
        return None


def _interior_step(Vb, dVb, alpha, dtype):
    """Backtrack alpha until V + alpha dV factors; the step, its factors, alpha.

    The factors are None when 60 reductions do not reach an interior point.
    """
    for _ in range(60):
        a = dtype(alpha)
        trial = [v + a * d for v, d in zip(Vb, dVb)]
        chols = _psd_ok(trial)
        if chols is not None:
            return trial, chols, alpha
        alpha *= 0.8
    a = dtype(alpha)
    return [v + a * d for v, d in zip(Vb, dVb)], None, alpha


def solve(
    problem: SdpProblem,
    tol: float = DEFAULT_TOL,
    precision: str = "double",
) -> SdpSolution:
    """Solve the primal-dual pair for ``problem``.

    Returns an ``SdpSolution`` whose primal_value/dual_value follow the
    problem's declared sense (for "min" problems the stated value is b^T y).
    Raises ValueError on malformed input; numerical trouble is reported via
    ``status="numerical_limit"``, never an exception.
    """
    if not 0 < tol < math.inf:  # NaN fails both comparisons
        raise ValueError("tol must be positive and finite")
    if precision not in ("double", "extended"):
        raise ValueError("precision must be 'double' or 'extended'")
    if problem.num_constraints == 0:
        raise ValueError("problem needs at least one constraint")
    dtype = np.float64 if precision == "double" else np.longdouble
    data = _BlockData(problem, dtype)
    dot, muls = data.dot, data.muls
    # the ufunc reductions behind np.max and ndarray.all, called directly
    amax, finite = np.maximum.reduce, np.logical_and.reduce
    blocks = problem.blocks
    m = problem.num_constraints
    ntot = sum(abs(b) for b in blocks)

    xi, eta = _start_scales(problem)
    Xb = [data.eye[size] * dtype(v) for size, v in zip(blocks, xi)]
    Sb = [data.eye[size] * dtype(v) for size, v in zip(blocks, eta)]
    y = np.zeros(m, dtype=dtype)

    best = None
    stalls = 0
    Lx = Ls = None  # factors of Xb and Sb, when the last step already made them
    status: Status = "numerical_limit"
    stop_reason = "iteration_cap"
    it = 0
    for it in range(1, MAX_ITERATIONS + 1):
        pobj = _blk_inner(data.C, Xb)
        dobj = float(dot(data.b, y))
        rp = data.b - data.apply_A(Xb)
        Aty = data.apply_At(y)
        Rd = [c + s - a for c, s, a in zip(data.C, Sb, Aty)]
        xs = _blk_inner(Xb, Sb)
        mu = xs / ntot
        rp_norm = float(amax(np.abs(rp), axis=None)) / data.norm_b if m else 0.0
        rd_norm = max(float(amax(np.abs(r), axis=None)) for r in Rd) / data.norm_C
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        # complementarity guards against near-feasible iterate pairs whose
        # small mutual gap hides large multiplier-weighted infeasibility
        comp = abs(xs) / (1.0 + abs(pobj) + abs(dobj))
        quality = max(relgap, rp_norm, rd_norm, comp)
        # plain floats, so that info stays JSON-safe after extended solves
        residuals = {
            "rp": rp_norm, "rd": rd_norm, "relgap": float(relgap), "comp": float(comp)
        }
        converged = (
            relgap <= tol and rp_norm <= tol and rd_norm <= tol and comp <= 10 * tol
        )
        if converged or best is None or quality < best[0]:
            # references, not copies: every step builds new iterate arrays
            # and no iterate is written in place
            best = (quality, Xb, y, pobj, dobj, residuals)
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
            Lx = _psd_ok(Xb)
        if Ls is None:
            Ls = _psd_ok(Sb)
        if Lx is None or Ls is None:
            status, stop_reason = "numerical_limit", "factorisation_failed"
            break
        Sinv = [
            _chol_solve(L, data.eye[size]) if size > 0 else 1.0 / s
            for size, s, L in zip(blocks, Sb, Ls)
        ]
        # with S^{-1} and the Schur solutions finite, so is every direction,
        # and no inf or NaN reaches the step-length eigenvalue solver
        if not all(finite(np.isfinite(si), axis=None) for si in Sinv):
            status, stop_reason = "numerical_limit", "nonfinite_direction"
            break

        # Schur complement H_ij = sum_blocks Tr(B_i X B_j S^{-1}); a diagonal
        # block weights its stack by x s^{-1} first, which rounds differently
        H = np.zeros((m, m), dtype=dtype)
        for stack, flat, x, si in zip(data.Bstack, data.Bflat, Xb, Sinv):
            if x.ndim == 2:
                T = dot(dot(x, stack), si)
                H += dot(flat, T.reshape(m, -1).T)
            else:
                w = x * si
                H += dot(stack * w, stack.T)
        H = (H + H.T) / 2.0

        # the jitter is sized to each row's own diagonal entry, not to the
        # largest, so that rows of small scale are not swamped by it
        Lh = None
        jitter = 0.0
        d = np.diagonal(H)
        row = np.where(_interior(d), d, 1)
        for attempt in range(8):
            try:
                Lh = _chol(H if jitter == 0.0 else H + np.diag(jitter * row))
                break
            except np.linalg.LinAlgError:
                jitter = 1e-14 if jitter == 0.0 else jitter * 100.0
        if Lh is None:
            status, stop_reason = "numerical_limit", "schur_factorisation_failed"
            break

        # X S and X Rd, shared by both directions
        XS = [mul(x, s) for mul, x, s in zip(muls, Xb, Sb)]
        XRd = [mul(x, rd) for mul, x, rd in zip(muls, Xb, Rd)]

        def rhs_for(Rc):
            # A(Rc S^{-1}) + A(X Rd S^{-1}) - rp
            vec = -rp
            for mul, flat, rc, xrd, si in zip(muls, data.Bflat, Rc, XRd, Sinv):
                vec += dot(flat, mul(rc + xrd, si).reshape(-1))
            return vec

        def schur_solve(rhs):
            dy = _chol_solve(Lh, rhs)
            for _ in range(2):  # iterative refinement; H is often near-singular
                resid = rhs - dot(H, dy)
                dy = dy + _chol_solve(Lh, resid)
            return dy

        def direction(Rc):
            dy = schur_solve(rhs_for(Rc))
            dS = [a - r for a, r in zip(data.apply_At(dy), Rd)]
            dX = []
            for mul, rc, x, ds, si in zip(muls, Rc, Xb, dS, Sinv):
                v = mul(rc - mul(x, ds), si)
                dX.append((v + v.T) / 2.0 if v.ndim == 2 else v)
            return dX, dy, dS

        # predictor
        Rc_aff = [-xs for xs in XS]
        dX_a, dy_a, dS_a = direction(Rc_aff)
        if not finite(np.isfinite(dy_a)):  # the Schur solve overflowed
            status, stop_reason = "numerical_limit", "nonfinite_direction"
            break
        ap = min(1.0, _max_step(Xb, dX_a, Lx))
        ad = min(1.0, _max_step(Sb, dS_a, Ls))
        mu_aff = (
            _blk_inner(
                [x + ap * d for x, d in zip(Xb, dX_a)],
                [s + ad * d for s, d in zip(Sb, dS_a)],
            )
            / ntot
        )
        sigma = min(1.0, max(1e-10, float((max(mu_aff, 0.0) / mu) ** 3)))

        # corrector
        Rc = [
            dtype(sigma * mu) * data.eye[size] - xs - mul(dxa, dsa)
            for size, mul, xs, dxa, dsa in zip(blocks, muls, XS, dX_a, dS_a)
        ]
        dX, dy, dS = direction(Rc)
        if not finite(np.isfinite(dy)):
            status, stop_reason = "numerical_limit", "nonfinite_direction"
            break
        ap = _STEP_FRACTION * min(1.0 / _STEP_FRACTION, _max_step(Xb, dX, Lx))
        ad = _STEP_FRACTION * min(1.0 / _STEP_FRACTION, _max_step(Sb, dS, Ls))

        # keep iterates safely interior
        X_next, Lx, ap = _interior_step(Xb, dX, ap, dtype)
        S_next, Ls, ad = _interior_step(Sb, dS, ad, dtype)

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

    diag = {}
    if best is not None and status in ("optimal", "numerical_limit"):
        _, Xb, y, pobj, dobj, diag = best
    else:
        pobj = _blk_inner(data.C, Xb)
        dobj = float(dot(data.b, y))

    X_out = tuple(np.asarray(x, dtype=np.float64) for x in Xb)
    y_out = np.asarray(y, dtype=np.float64)
    pv, dv = float(pobj), float(dobj)
    if problem.sense == "min":
        pv, dv = dv, pv
    return SdpSolution(
        X=X_out,
        y=y_out,
        primal_value=pv,
        dual_value=dv,
        status=status,
        iterations=it,
        info={"precision": precision, "tol": tol, **diag, "stop_reason": stop_reason},
    )


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
    lines.append(" ".join(_fmt(v) for v in problem.b.tolist()))
    stacks = [np.concatenate([c[None], a]) for c, a in zip(problem.C, problem.A)]
    for matno in range(problem.num_constraints + 1):
        for bi, stack in enumerate(stacks, start=1):
            a = stack[matno] if stack.ndim == 3 else np.diag(stack[matno])
            for i, j in zip(*np.nonzero(np.triu(a))):
                lines.append(f"{matno} {bi} {i + 1} {j + 1} {_fmt(a[i, j])}")
    return "\n".join(lines) + "\n"
