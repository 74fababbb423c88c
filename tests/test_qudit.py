import math

import numpy as np
import pytest
import scipy.linalg as sla

from negwit import qudit as Q

import oracles

ATOL = 1e-12


def test_displacement_basics():
    assert np.allclose(Q.displacement_dv(3, 0, 0), np.eye(3), atol=ATOL)
    assert np.allclose(Q.displacement_dv(3, 1, 0), Q.pauli_x(3), atol=ATOL)
    for q in range(3):
        for p in range(3):
            D = Q.displacement_dv(3, q, p)
            assert np.max(np.abs(D @ D.conj().T - np.eye(3))) < ATOL
    with pytest.raises(ValueError):
        Q.displacement_dv(4, 0, 0)
    with pytest.raises(ValueError):
        Q.displacement_dv(2, 0, 0)


def test_qubit_variant():
    X = Q.displacement_q2(1, 0)
    Z = Q.displacement_q2(0, 1)
    assert np.allclose(X, [[0, 1], [1, 0]])
    assert np.allclose(Z, [[1, 0], [0, -1]])


def test_parity():
    P = Q.parity_dv(3)
    assert P[0, 0] == 1 and P[2, 1] == 1 and P[1, 2] == 1
    assert np.allclose(P @ P, np.eye(3), atol=ATOL)
    assert np.max(np.abs(P - P.conj().T)) < ATOL


def test_phase_point_traces_and_spectrum():
    for x in range(3):
        for z in range(3):
            A = Q.phase_point(3, x, z)
            assert abs(np.trace(A) - 1) < ATOL
            assert abs(np.trace(A @ A) - 3) < ATOL
            ev = np.sort(sla.eigvalsh(A))
            assert np.allclose(ev, [-1, 1, 1], atol=ATOL)


def test_phase_point_eigenvector():
    psi = np.zeros(3, dtype=complex)
    psi[1] = 1 / math.sqrt(2)
    psi[2] = -1 / math.sqrt(2)
    assert np.allclose(Q.phase_point(3, 0, 0) @ psi, -psi, atol=ATOL)


def test_dwf_of_displaced_negative_state():
    psi = np.zeros(3, dtype=complex)
    psi[1] = 1 / math.sqrt(2)
    psi[2] = -1 / math.sqrt(2)
    ps = Q.displacement_dv(3, 2, 0) @ psi
    W = Q.dwf(np.outer(ps, ps.conj()), 3)
    assert abs(W[2, 0] + 1 / 3) < ATOL
    others = np.delete(W.flatten(), 2 * 3 + 0)
    assert np.allclose(others, 1 / 6, atol=ATOL)


def test_dwf_maximally_mixed_and_sum():
    W = Q.dwf(np.eye(3) / 3, 3)
    assert np.allclose(W, 1 / 9, atol=ATOL)
    rng = np.random.default_rng(11)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = M @ M.conj().T
    rho /= np.trace(rho).real
    assert abs(Q.dwf(rho, 3).sum() - 1.0) < 1e-10


def test_dwf_rejects_non_density():
    with pytest.raises(ValueError):
        Q.dwf(np.eye(3), 3)  # trace 3
    bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        Q.dwf(bad, 3)


def test_mub_unbiasedness_and_resolution():
    for d in (2, 3):
        mub = Q.mub_projectors(d)
        qs = list(mub)
        assert len(qs) == d + 1
        for q in qs:
            assert np.allclose(sum(mub[q]), np.eye(d), atol=ATOL)
            for P in mub[q]:
                assert np.max(np.abs(P @ P - P)) < ATOL
        for i, q1 in enumerate(qs):
            for q2 in qs[i + 1 :]:
                for P1 in mub[q1]:
                    for P2 in mub[q2]:
                        assert abs(np.trace(P1 @ P2).real - 1 / d) < ATOL


def test_phase_point_from_mub_projectors():
    mub = Q.mub_projectors(3)
    for x in range(3):
        for z in range(3):
            A = (
                mub["inf"][x]
                + mub[0][(-z) % 3]
                + mub[1][(x - z) % 3]
                + mub[2][(2 * x - z) % 3]
                - np.eye(3)
            )
            assert np.max(np.abs(A - Q.phase_point(3, x, z))) < ATOL


def test_phase_points_resolve_identity():
    total = sum(Q.phase_point(3, x, z) for x in range(3) for z in range(3))
    assert np.max(np.abs(total - 3 * np.eye(3))) < ATOL


def test_stabilizer_states_nonnegative():
    for k in range(3):
        W = Q.dwf(oracles.stabilizer_basis_state(3, k), 3)
        assert W.min() > -1e-14


def test_unsupported_dimensions():
    with pytest.raises(ValueError):
        Q.mub_projectors(4)
    assert len(Q.mub_projectors(5)) == 6
