import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negwit import numerics as nm

import oracles


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
    exact = oracles.laguerre_poly_series(k, x)
    rec = nm.laguerre_poly(k, float(x))
    scale = max(1.0, abs(float(exact)))
    assert abs(rec - float(exact)) <= 1e-10 * scale


def test_laguerre_fn_examples():
    assert nm.laguerre_fn(0, 0.0) == 1.0
    assert nm.laguerre_fn(1, 0.0) == -1.0
    with pytest.raises(ValueError):
        nm.laguerre_fn(1, -0.5)


def test_laguerre_orthonormality_by_quadrature():
    # the 200-node Gauss-Laguerre rule's weight e^{-x} absorbs the two
    # e^{-x/2} factors, so the integrand is the plain polynomial product
    from scipy.special import roots_laguerre

    x, w = roots_laguerre(200)
    for p in range(21):
        for q in range(p, 21):
            sign = -1.0 if (p + q) % 2 else 1.0
            product = nm.laguerre_poly(p, x) * nm.laguerre_poly(q, x)
            val = sign * float(np.sum(w * product))
            target = 1.0 if p == q else 0.0
            assert abs(val - target) <= 1e-8, (p, q, val)


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
    # |L_k(2)| <= 1 for k <= 1000, by the recurrence at x = 2; this finite
    # range supports the analytic dual solution at index 2 (the general
    # statement is conjectural)
    prev, cur = 1.0, -1.0  # L_0(2), L_1(2)
    for j in range(1, 1000):
        prev, cur = cur, ((2 * j - 1) * cur - j * prev) / (j + 1)
        assert abs(cur) <= 1.0 + 1e-12, j + 1
