import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from negwit import states as S
from negwit.witness import FockDiagonal, WitnessSpec

import oracles


def test_displacement_element_examples():
    assert S.displacement_element(2, 2, 0) == 1.0 + 0j
    assert S.displacement_element(2, 1, 0) == 0j
    a = 0.7 + 0.3j
    assert S.displacement_element(0, 0, a) == pytest.approx(
        math.exp(-0.5 * abs(a) ** 2)
    )
    assert S.displacement_element(1, 0, a) == pytest.approx(
        a * math.exp(-0.5 * abs(a) ** 2)
    )


def test_displacement_columns_unitary():
    D = oracles.displacement_matrix(0.9 - 0.4j, 48)
    G = D.conj().T @ D
    # columns far from the cutoff carry full norm
    assert np.max(np.abs(G[:24, :24] - np.eye(24))) < 1e-9


def test_pssvs_fidelity_closed_form():
    st = S.pssvs(0.5)
    # closed form 1/cosh(r)^3 evaluates to 0.697437 at r = 0.5
    assert S.fidelity_with_fock(st, 1) == pytest.approx(1 / math.cosh(0.5) ** 3, abs=1e-9)
    assert S.fidelity_with_fock(st, 1) == pytest.approx(0.697437, abs=5e-6)
    with pytest.raises(ValueError):
        S.pssvs(0.0)


def test_cat_fidelities_closed_form():
    for asq in (1.0, 1.63, 2.59, 3.3):
        st = S.cat2(math.sqrt(asq))
        assert S.fidelity_with_fock(st, 2) == pytest.approx(
            S.cat2_fidelity(asq), abs=1e-9
        )
    for asq in (2.10, 4.0, 6.53):
        st = S.cat4(math.sqrt(asq))
        assert S.fidelity_with_fock(st, 4) == pytest.approx(
            S.cat4_fidelity(asq), abs=1e-8
        )


def test_crossing_windows():
    # fidelity curves cross their thresholds where advertised
    from scipy.optimize import brentq

    c2a = brentq(lambda x: S.cat2_fidelity(x) - 0.5, 1.0, 2.0)
    c2b = brentq(lambda x: S.cat2_fidelity(x) - 0.5, 2.0, 3.5)
    assert abs(c2a - 1.63) <= 0.03 and abs(c2b - 2.59) <= 0.03
    c4a = brentq(lambda x: S.cat4_fidelity(x) - 0.441, 1.5, 3.0)
    c4b = brentq(lambda x: S.cat4_fidelity(x) - 0.441, 5.0, 7.5)
    assert abs(c4a - 2.10) <= 0.05 and abs(c4b - 6.53) <= 0.05
    r = brentq(lambda x: S.pssvs_fidelity(x) - 0.5, 0.3, 1.2)
    assert abs(r - 0.70) <= 0.02


def test_coherent_past_factorial_overflow():
    # the default cutoff at |alpha| = 7 is 206, past the 170 at which n!
    # overflows a float; the Fock weights are Poisson's
    st = S.coherent(7.0)
    assert st.cutoff == 206
    assert sum(abs(a) ** 2 for a in st.amplitudes) == pytest.approx(1, abs=1e-12)
    poisson = math.exp(-49) * (49**49 / math.factorial(49))
    assert S.fidelity_with_fock(st, 49) == pytest.approx(poisson, rel=1e-12)
    # displaced: D(alpha)^dag |alpha> is the vacuum
    assert S.fidelity_with_fock(st, 0, 7.0) == pytest.approx(1, abs=1e-9)
    for st in (S.cat2(7.0), S.cat4(6.5j)):
        assert sum(abs(a) ** 2 for a in st.amplitudes) == pytest.approx(1, abs=1e-12)


def test_displacement_element_at_high_indices():
    # at a = 13 row 2 of D(a) carries its weight around l = |a|^2 = 169,
    # past the 170 at which l! overflows a float; it has unit norm, and
    # <2|D|l> = sqrt(2/l!) (-a)^(l-2) exp(-a^2/2) L_2^(l-2)(a^2)
    from scipy.special import eval_genlaguerre

    a = 13.0
    row = [S.displacement_element(2, l, a) for l in range(401)]
    assert sum(abs(v) ** 2 for v in row) == pytest.approx(1, abs=1e-9)
    for l in (171, 200, 250):
        mag = math.exp(
            0.5 * (math.log(2) - math.lgamma(l + 1)) + (l - 2) * math.log(a) - a * a / 2
        )
        ref = (-1) ** l * mag * eval_genlaguerre(2, l - 2, a * a)
        assert row[l] == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("k, l, a", [(2, 250, 13.0), (2, 250, 13j), (3, 250, 13.0)])
def test_displacement_element_on_an_axis_stays_real(k, l, a):
    # z^d for |k - l| > 100 by products, not CPython's polar form, which
    # left an imaginary part of ~1e-16 on these real elements
    value = S.displacement_element(k, l, a)
    assert value.imag == 0.0
    assert abs(value.real) > 1e-4


def test_displacement_element_matches_laguerre():
    # <l|D(a)|n> = sqrt(n!/l!) a^(l-n) exp(-a^2/2) L_n^(l-n)(a^2) for l >= n,
    # and the transpose carries (-1)^(l-n); an alternating sum over the
    # terms of L loses 6e-9 of <180|D(0.5)|180> and all of <60|D(5)|40>
    from scipy.special import eval_genlaguerre

    for l, n, a in ((180, 180, 0.5), (250, 250, 0.5), (250, 245, 0.5), (60, 40, 5.0)):
        d = l - n
        mag = math.exp(
            0.5 * (math.lgamma(n + 1) - math.lgamma(l + 1)) + d * math.log(a) - a * a / 2
        )
        ref = mag * eval_genlaguerre(n, d, a * a)
        assert S.displacement_element(l, n, a) == pytest.approx(ref, rel=1e-12)
        assert S.displacement_element(n, l, a) == pytest.approx((-1) ** d * ref, rel=1e-12)


@pytest.mark.parametrize("r", [0.84, 1.0, 1.5])
def test_pssvs_default_cutoff_past_r_084(r):
    # the default cutoff follows the tanh(r)^(2k) decay of the weights
    st = S.pssvs(r)
    assert S.fidelity_with_fock(st, 1) == pytest.approx(S.pssvs_fidelity(r), abs=1e-9)


@pytest.mark.parametrize(
    "build,arg",
    [
        (S.coherent, math.inf),
        (S.coherent, complex(0, math.nan)),
        (S.cat2, 1e200),
        (S.cat4, 1e200j),
        (S.pssvs, math.inf),
        (S.pssvs, math.nan),
        (S.pssvs, 1e300),
    ],
)
def test_states_reject_nonfinite_or_huge_parameters(build, arg):
    with pytest.raises(ValueError):
        build(arg)


def test_fock_rejects_index_past_max_cutoff_before_allocating():
    # fock(n) built its n + 1 amplitudes before any check; MAX_CUTOFF + 1
    # would take about 4 MB, so a peak of a few kB shows the check came first
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"Fock cutoff {S.MAX_CUTOFF + 1} exceeds"):
            S.fock(S.MAX_CUTOFF + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert S.fock(S.MAX_CUTOFF).cutoff == S.MAX_CUTOFF


def test_lossy_fock_convention():
    st = S.lossy_fock(3, 0.0)
    assert st.F == (0.0, 0.0, 0.0, 1.0)
    st = S.lossy_fock(3, 1.0)
    assert st.F[0] == 1.0
    st = S.lossy_fock(3, 0.25)
    # coefficient of |3><3| is (1-eta)^3
    assert st.F[3] == pytest.approx(0.75**3)
    with pytest.raises(ValueError):
        S.lossy_fock(3, 1.5)
    with pytest.raises(ValueError, match="natural number"):
        S.lossy_fock(-1, 0.2)


@pytest.mark.parametrize("n, eta", [(1100, 0.5), (5000, 0.01)])
def test_lossy_fock_past_binomial_overflow(n, eta):
    # C(n, n/2) overflows a float from n = 1030; the weights stay binomial
    F = S.lossy_fock(n, eta).F
    assert abs(sum(F) - 1.0) <= S.NORM_TOL
    k = round(n * (1 - eta))
    exact = math.comb(n, k) * Fraction(eta) ** (n - k) * (1 - Fraction(eta)) ** k
    assert F[k] == pytest.approx(float(exact), rel=1e-12)


def test_wigner_radial_values():
    assert S.wigner_radial(S.fock(0).diagonal(), 0.0) == pytest.approx(2 / math.pi)
    assert S.wigner_radial(S.fock(1).diagonal(), 0.0) == pytest.approx(-2 / math.pi)
    mix = FockDiagonal((0.5, 0.5))
    assert S.wigner_radial(mix, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_wigner_normalisation_all_named_states():
    diags = [
        S.fock(0).diagonal(),
        S.fock(3).diagonal(),
        S.lossy_fock(3, 0.3),
        S.pssvs(0.5).diagonal(),
        S.cat2(1.2).diagonal(),
        S.cat4(1.5).diagonal(),
        S.coherent(0.8 + 0.1j).diagonal(),
    ]
    # 2 pi int_0^inf W(r) r dr = 1, by the 200-node Gauss-Laguerre rule in
    # u = 4r^2: the integral is int W du / 8 and the rule's weight is e^{-u}.
    # W carries e^{-u/2}, so e^u is applied in halves, which do not overflow
    from scipy.special import roots_laguerre

    u, w = roots_laguerre(200)
    half = np.exp(u / 2.0)
    for st in diags:
        W = np.array([S.wigner_radial(st, r) for r in np.sqrt(u) / 2.0])
        norm = 2 * math.pi / 8 * float(np.sum(w * (W * half) * half))
        assert norm == pytest.approx(1.0, abs=1e-6)


def test_lossy_fock_nonnegative_above_half():
    st = S.lossy_fock(3, 0.51)
    rs = np.arange(0.0, 6.0 + 1e-9, 0.01)
    vals = [S.wigner_radial(st, r) for r in rs]
    assert min(vals) > -1e-12


def test_witness_expectation_examples():
    assert S.witness_expectation(S.fock(3), WitnessSpec.fock(3)) == 1.0
    rho = FockDiagonal((1 / 9, 4 / 9, 4 / 9))
    assert S.witness_expectation(rho, WitnessSpec(a=(1.0, 1.0))) == pytest.approx(8 / 9)
    al = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    st = oracles.displace(S.fock(1), al, pad=S.default_cutoff(1, al))
    assert S.witness_expectation(st, WitnessSpec(a=(1.0,), alpha=al)) == pytest.approx(
        1.0, abs=1e-9
    )


def test_witness_expectation_displacement_invariance():
    st = S.pssvs(0.4)
    base = S.witness_expectation(st, WitnessSpec(a=(0.3, 1.0)))
    al = 0.35 - 0.2j
    moved = oracles.displace(st, al, pad=30)
    shifted = S.witness_expectation(moved, WitnessSpec(a=(0.3, 1.0), alpha=al))
    assert shifted == pytest.approx(base, abs=1e-9)


def test_violation_and_distance():
    assert S.violation_and_distance(1.0, 0.427) == pytest.approx(0.573)
    assert S.violation_and_distance(8 / 9, 0.875) == pytest.approx(8 / 9 - 0.875)
    assert S.violation_and_distance(0.3, 0.427) is None


def test_parse_state_strings():
    st = S.parse_state("cat2:alpha=1.4+0i")
    assert isinstance(st, S.PureStateFock)
    st = S.parse_state("lossy_fock:n=3,eta=0.2")
    assert isinstance(st, FockDiagonal)
    with pytest.raises(ValueError):
        S.parse_state("nope:alpha=1")
    with pytest.raises(ValueError):
        S.parse_state("cat2:beta=1")
    with pytest.raises(ValueError):
        S.parse_state("cat2")


def test_fidelities_lie_in_unit_interval():
    for st in (S.pssvs(0.7), S.cat2(1.1), S.lossy_fock(2, 0.4)):
        for k in range(5):
            f = S.fidelity_with_fock(st, k, alpha=0.2 + 0.1j)
            assert -1e-12 <= f <= 1.0 + 1e-12
