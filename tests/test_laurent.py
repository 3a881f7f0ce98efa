import re

import pytest
from hypothesis import given, strategies as st

from knotfold.errors import (
    HalfIntegerExponent,
    InexactDivision,
    VariableMismatch,
)
from knotfold.laurent import LaurentPolynomial, text_pattern

from oracles import exact_div


def poly(terms, var="q"):
    return LaurentPolynomial({4 * e: c for e, c in terms.items()}, var)


polys = st.builds(
    poly,
    st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=6))


class TestConstruction:
    def test_zero_drops_terms(self):
        assert LaurentPolynomial({4: 0}, "q").is_zero()

    def test_bad_variable(self):
        with pytest.raises(ValueError):
            LaurentPolynomial({}, "x")

    def test_immutable(self):
        p = LaurentPolynomial.one()
        with pytest.raises(AttributeError):
            p.terms = {}

    def test_monomials(self):
        assert LaurentPolynomial.monomial(3, -2).terms == {-8: 3}
        half = LaurentPolynomial({2: 1})  # q^(1/2)
        assert not half.is_integral()

    def test_from_coeffs_roundtrip(self):
        p = poly({-2: 1, 0: -3, 1: 5})
        assert p.int_coeffs() == (-2, [1, 0, -3, 5])


class TestArithmetic:
    @given(polys, polys)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(polys, polys)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(polys, polys, polys)
    def test_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys)
    def test_additive_inverse(self, a):
        assert (a - a).is_zero()

    @given(polys)
    def test_substitute_inverse_involution(self, a):
        assert a.substitute_inverse().substitute_inverse() == a

    @given(polys, polys)
    def test_substitute_inverse_is_homomorphism(self, a, b):
        assert (a * b).substitute_inverse() == \
            a.substitute_inverse() * b.substitute_inverse()

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            LaurentPolynomial.one("A") + LaurentPolynomial.one("q")


class TestExactDivision:
    """The division oracle of the torus closed-form test."""

    @given(polys, polys)
    def test_product_divides(self, a, b):
        if b.is_zero():
            return
        assert exact_div(a * b, b) == a

    def test_remainder_raises(self):
        with pytest.raises(InexactDivision):
            exact_div(poly({2: 1, 0: 1}), poly({1: 1, 0: 1}))

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(poly({0: 1}), LaurentPolynomial.zero())


class TestCoefficients:
    def test_int_coeffs_rejects_halves(self):
        with pytest.raises(HalfIntegerExponent):
            LaurentPolynomial({2: 1}).int_coeffs()

    def test_zero_window(self):
        assert LaurentPolynomial.zero().int_coeffs() == (0, [0])

    def test_constant_window(self):
        assert LaurentPolynomial({0: 7}).int_coeffs() == (0, [7])


class TestTextForm:
    @given(polys)
    def test_roundtrip(self, a):
        assert LaurentPolynomial.from_text(a.to_text()) == a

    @given(polys, st.dictionaries(st.integers(-9, 9).map(lambda e: 2 * e + 1),
                                  st.integers(-9, 9), max_size=3))
    def test_text_pattern_matches_to_text(self, a, halves):
        """text_pattern matches every text to_text writes, half-integer
        exponents included, and only in its own variable."""
        text = (a + LaurentPolynomial({2 * e: c for e, c in halves.items()},
                                      "q")).to_text()
        assert re.fullmatch(text_pattern("q"), text)
        assert bool(re.fullmatch(text_pattern("A"), text)) == ("q" not in text)

    def test_half_exponents_roundtrip(self):
        p = LaurentPolynomial({2: -1, -2: -1}, "q")
        assert p.to_text() == "-1*q^(1/2) - 1*q^(-1/2)"
        assert LaurentPolynomial.from_text(p.to_text()) == p

    def test_zero(self):
        assert LaurentPolynomial.zero().to_text() == "0"
        assert LaurentPolynomial.from_text("0").is_zero()

    def test_descending_exponents(self):
        text = poly({-1: 1, 3: 2, 0: -1}).to_text()
        assert text == "2*q^3 - 1 + 1*q^-1"
