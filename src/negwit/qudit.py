"""Z_d phase-space operators: displacements, parity, phase points, MUBs.

Odd prime dimensions follow the symmetric Weyl convention with the phase
omega^{qp/2} (2^{-1} taken mod d); the qubit case has no such inverse and
uses plain X^x Z^z with the Y basis standing in for the "XZ" direction.
Eigenvectors are labelled by their eigenvalue exponent and get a fixed
global phase (first nonzero amplitude real positive) so that outcome labels
are reproducible.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

# the qubit Paulis, read-only; Y = iXZ stands in for the "XZ" direction
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _pauli in (PAULI_X, PAULI_Y, PAULI_Z):
    _pauli.setflags(write=False)


def _is_prime(d: int) -> bool:
    if d < 2:
        return False
    return all(d % p for p in range(2, int(math.isqrt(d)) + 1))


def _check_odd_prime(d: int) -> None:
    if d % 2 == 0 or not _is_prime(d):
        raise ValueError("dimension must be an odd prime")


def omega(d: int) -> complex:
    return cmath.exp(2j * cmath.pi / d)


def pauli_x(d: int) -> np.ndarray:
    X = np.zeros((d, d), dtype=complex)
    for k in range(d):
        X[(k + 1) % d, k] = 1.0
    return X


def pauli_z(d: int) -> np.ndarray:
    w = omega(d)
    return np.diag([w**k for k in range(d)])


def displacement_dv(d: int, q: int, p: int) -> np.ndarray:
    """Weyl displacement omega^{2^{-1} qp} X^q Z^p for odd prime d."""
    _check_odd_prime(d)
    q %= d
    p %= d
    half = (d + 1) // 2  # multiplicative inverse of 2 in Z_d
    phase = omega(d) ** ((half * q * p) % d)
    return phase * np.linalg.matrix_power(pauli_x(d), q) @ np.linalg.matrix_power(
        pauli_z(d), p
    )


def displacement_q2(x: int, z: int) -> np.ndarray:
    """Qubit variant X^x Z^z (no symmetric phase exists for d = 2)."""
    return np.linalg.matrix_power(PAULI_X, x % 2) @ np.linalg.matrix_power(
        PAULI_Z, z % 2
    )


def parity_dv(d: int) -> np.ndarray:
    """Parity: |k> -> |-k mod d>; squares to the identity."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    P = np.zeros((d, d), dtype=complex)
    for k in range(d):
        P[(-k) % d, k] = 1.0
    return P


def phase_point(d: int, x: int, z: int) -> np.ndarray:
    """Displaced parity operator A_{x,z} (odd prime d)."""
    _check_odd_prime(d)
    D = displacement_dv(d, x, z)
    return D @ parity_dv(d) @ D.conj().T


def dwf(rho: np.ndarray, d: int) -> np.ndarray:
    """Discrete Wigner grid W[x, z] = Tr(A_{x,z} rho) / d."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ValueError("state has wrong dimension")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
        raise ValueError("state must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValueError("state must have unit trace")
    if float(np.min(sla.eigvalsh(rho))) < -1e-9:
        raise ValueError("state must be positive semidefinite")
    W = np.zeros((d, d))
    for x in range(d):
        for z in range(d):
            W[x, z] = float(np.trace(phase_point(d, x, z) @ rho).real) / d
    return W


def _fixed_phase(v: np.ndarray) -> np.ndarray:
    idx = next(i for i, a in enumerate(v) if abs(a) > 1e-9)
    ph = v[idx] / abs(v[idx])
    return v / ph


def _eigenbasis_by_root(U: np.ndarray, d: int) -> list:
    """Eigenvectors of a unitary with spectrum {omega^c}, ordered by c."""
    vals, vecs = sla.eig(U)
    w = omega(d)
    out = [None] * d
    for idx in range(d):
        lam = vals[idx]
        c = min(range(d), key=lambda c: abs(lam - w**c))
        if abs(lam - w**c) > 1e-8:
            raise ValueError("operator spectrum is not the d-th roots of unity")
        if out[c] is not None:
            raise ValueError("degenerate eigenvalue; not a valid basis generator")
        out[c] = _fixed_phase(vecs[:, idx])
    return out


@lru_cache(maxsize=None)
def mub_projectors(d: int) -> dict:
    """Question -> list of d projectors, outcome c on the omega^c eigenvector.

    Questions are 'inf' plus 0..d-1.  For odd prime d these are eigenbases
    of the displacements D_{0,1}, D_{1,0}, D_{1,1}, ..., D_{1,d-1}; for
    d = 2 the bases of Z, X and Y.
    """
    questions = ["inf"] + list(range(d))
    if d == 2:
        gens = {"inf": PAULI_Z, 0: PAULI_X, 1: PAULI_Y}
    elif _is_prime(d):
        gens = {"inf": displacement_dv(d, 0, 1)}
        for j in range(d):
            gens[j] = displacement_dv(d, 1, j)
    else:
        raise ValueError("unsupported dimension for MUB construction")
    out = {}
    for q in questions:
        basis = _eigenbasis_by_root(gens[q], d)
        out[q] = [np.outer(v, v.conj()) for v in basis]
    return out
