import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negwit import numerics as nm

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=97
)


def test_binomial_examples():
    assert nm.binomial(5, 2) == 10
    assert nm.binomial(0, 0) == 1
    assert nm.binomial(3, 5) == 0  # convention above the diagonal
    assert nm.binomial(4, -1) == 0


def test_laguerre_poly_examples():
    assert nm.laguerre_poly(0, 17.3) == 1.0
    assert nm.laguerre_poly(2, 0.0) == 1.0
    assert nm.laguerre_poly(1, 2.0) == -1.0


@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=400),
)
@settings(max_examples=60, deadline=None)
def test_laguerre_recurrence_matches_series(k, xq):
    # evaluate the alternating series exactly at a rational point, then
    # compare in floats; the recurrence must agree to 1e-10 relative
    x = Fraction(xq, 4)  # x in [0, 100]
    exact = nm.laguerre_poly_series(k, x)
    rec = nm.laguerre_poly(k, float(x))
    scale = max(1.0, abs(float(exact)))
    assert abs(rec - float(exact)) <= 1e-10 * scale


def test_laguerre_fn_examples():
    assert nm.laguerre_fn(0, 0.0) == 1.0
    assert nm.laguerre_fn(1, 0.0) == -1.0
    with pytest.raises(ValueError):
        nm.laguerre_fn(1, -0.5)


def test_laguerre_orthonormality_by_quadrature():
    for p in range(21):
        for q in range(p, 21):
            val = nm.laguerre_overlap(p, q)
            target = 1.0 if p == q else 0.0
            assert abs(val - target) <= 1e-8, (p, q, val)


@given(st.lists(rationals, min_size=1, max_size=16))
@settings(max_examples=80, deadline=None)
def test_change_of_basis_round_trip(nu):
    m = len(nu) - 1
    mu = nm.change_of_basis(nu, m)
    back = nm.change_of_basis_inverse(mu, m)
    assert back == [Fraction(v) for v in nu]


def test_change_of_basis_delta_sequence():
    mu = nm.change_of_basis([1] + [0] * 15, 15)
    assert mu == [Fraction((-1) ** k) for k in range(16)]


def test_basis_expansion_of_x_at_two():
    # x = L_0(x) - L_1(x): at x = 2 the right side is 1 - (-1) = 2
    assert nm.laguerre_poly(0, 2.0) - nm.laguerre_poly(1, 2.0) == 2.0


def test_zeilberger_check_values():
    cases = {
        ("even-even", 0, 0): Fraction(1),
        ("even-even", 0, 1): Fraction(1),
        ("even-even", 1, 1): Fraction(1, 4),
        ("even-odd", 0, 1): Fraction(1),
        ("odd-even", 0, 0): Fraction(0),
        ("odd-even", 0, 1): Fraction(0),
        ("odd-even", 1, 1): Fraction(-8),
        ("odd-odd", 0, 0): Fraction(1),
        ("odd-odd", 0, 1): Fraction(16),
        ("odd-odd", 1, 1): Fraction(1),
    }
    for (case, s, t), want in cases.items():
        lhs, rhs, equal = nm.zeilberger_identity_check(case, s, t)
        assert equal and lhs == want == rhs, (case, s, t, lhs, rhs)


def test_zeilberger_all_families_to_fifteen():
    for case in nm.ZEILBERGER_CASES:
        for t in range(16):
            for s in range(t + 1):
                lhs, rhs, equal = nm.zeilberger_identity_check(case, s, t)
                assert equal, (case, s, t, lhs, rhs)


def test_zeilberger_rejects_bad_input():
    with pytest.raises(ValueError):
        nm.zeilberger_identity_check("even-even", 2, 1)
    with pytest.raises(ValueError):
        nm.zeilberger_identity_check("sideways", 0, 0)


def test_laguerre_at_two_bounded():
    assert nm.laguerre_at_two_bounded(1000)


def test_multi_index_helpers():
    assert nm.mi_norm((2, 0, 3)) == 5
    assert nm.mi_pi((2, 0, 3)) == 12
    assert nm.simplex_size(2, 2) == 6
