"""Test-side reference oracles, kept apart from the package they check.

- ``laguerre_poly_series``: the explicit alternating sum for L_k(x), exact
  on rationals, against which ``numerics.laguerre_poly`` is checked.
- ``kkt_residuals``: the residuals of a solved program, computed on the
  solver's own block data, that the solver tests bound.
- ``parse_sdpa``: a reader of the SDPA sparse format that
  ``conic.export_sdpa`` writes, for round trips and re-solves.
- ``displacement_matrix`` and ``displace``: D(alpha) on a truncated Fock
  basis, to build displaced states whose witness fidelities are known.
- ``stabilizer_basis_state``: the computational basis states of a qudit,
  whose discrete Wigner functions are nonnegative.
"""

import math
from fractions import Fraction

import numpy as np
import scipy.linalg as sla

from negwit import conic
from negwit.numerics import binomial
from negwit.states import PureStateFock, displacement_element


def laguerre_poly_series(k: int, x):
    """L_k(x) from the explicit sum; exact when x is int/Fraction."""
    return sum(
        Fraction((-1) ** l, math.factorial(l)) * binomial(k, l) * x**l
        for l in range(k + 1)
    )


def kkt_residuals(problem, solution) -> dict:
    """Primal feasibility, dual feasibility and complementarity residuals."""
    data = conic._BlockData(problem, np.float64)
    Xb = solution.X
    rp = float(np.max(np.abs(data.b - data.apply_A(Xb)))) if len(data.b) else 0.0
    Sb = [a - c for a, c in zip(data.apply_At(solution.y), data.C)]

    def lowest(a):  # smallest eigenvalue; a diagonal block's smallest entry
        return float(np.min(sla.eigvalsh(a) if a.ndim == 2 else a))

    dual_min = min(0.0, *(lowest(s) for s in Sb))
    x_min = min(0.0, *(lowest(x) for x in Xb))
    comp = abs(conic._blk_inner(Xb, Sb)) / (1.0 + abs(solution.primal_value))
    return {
        "primal": rp,
        "dual_psd_violation": -dual_min,
        "x_psd_violation": -x_min,
        "complementarity": comp,
    }


def parse_sdpa(text: str) -> conic.SdpProblem:
    """Parse the SDPA sparse format produced by ``conic.export_sdpa``."""
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

    # one (m + 1)-stack per block; entry 0 is the objective
    stacks = [
        np.zeros((m + 1, b, b)) if b > 0 else np.zeros((m + 1, -b)) for b in blocks
    ]
    for entry in rows[4:]:
        matno, blk, i, j = (int(entry[0]), int(entry[1]), int(entry[2]), int(entry[3]))
        val = float(entry[4])
        tgt = stacks[blk - 1][matno]
        if blocks[blk - 1] > 0:
            tgt[i - 1, j - 1] = val
            tgt[j - 1, i - 1] = val
        else:
            if i != j:
                raise ValueError("off-diagonal entry in diagonal block")
            tgt[i - 1] = val
    return conic.SdpProblem(
        blocks=blocks,
        C=tuple(s[0] for s in stacks),
        A=tuple(s[1:] for s in stacks),
        b=rhs,
        sense=sense,
    )


def displacement_matrix(alpha: complex, size: int) -> np.ndarray:
    """The size x size truncation of D(alpha)."""
    return np.array(
        [[displacement_element(k, l, alpha) for l in range(size)] for k in range(size)]
    )


def displace(state: PureStateFock, alpha: complex, pad: int = 0) -> PureStateFock:
    """Apply D(alpha); pad the cutoff so the result stays normalised."""
    size = state.cutoff + 1 + pad
    amp = np.zeros(size, dtype=complex)
    amp[: state.cutoff + 1] = state.amplitudes
    out = displacement_matrix(alpha, size) @ amp
    return PureStateFock(tuple(out / math.sqrt(float(np.vdot(out, out).real))))


def stabilizer_basis_state(d: int, k: int) -> np.ndarray:
    """The density matrix |k><k| of a qudit of dimension d."""
    e = np.zeros(d, dtype=complex)
    e[k % d] = 1.0
    return np.outer(e, e.conj())
