import math

import pytest

from knotfold.cloud import (
    CoefficientVector,
    KnotRecord,
    align,
    canonical_orientation,
    coeff_vector,
    mirror_record,
    prefers_mirror,
)
from knotfold.errors import EmptyFamily, HalfIntegerExponent
from knotfold.laurent import LaurentPolynomial

from conftest import TABLE_MATRIX, TABLE_POLYS


def rec(jones_text, **kw):
    return KnotRecord("k", 0, LaurentPolynomial.from_text(jones_text), **kw)


class TestCanonicalOrientation:
    def test_negative_sigma_mirrors(self):
        r = canonical_orientation(rec("1*q^-4 + 1*q^-3 + 1*q^-1", sigma=-2))
        assert r.sigma == 2 and r.mirror_applied

    def test_positive_sigma_kept(self):
        r0 = rec("-1*q^4 + 1*q^3 + 1*q^1", sigma=2)
        assert canonical_orientation(r0) is r0

    def test_s_invariant_fallback(self):
        r = canonical_orientation(rec("1*q^-1", sigma=0, s_invariant=-2))
        assert r.s_invariant == 2 and r.mirror_applied

    def test_degree_fallback_mirrors_6_1(self):
        j = LaurentPolynomial.from_text(TABLE_POLYS["6_1"]).substitute_inverse()
        r = canonical_orientation(KnotRecord("6_1", 6, j, sigma=0))
        lo, hi = r.jones.min_exp4() // 4, r.jones.max_exp4() // 4
        assert (lo, hi) == (-2, 4)

    def test_palindromic_tie_unchanged(self):
        r0 = rec(TABLE_POLYS["4_1"])
        assert canonical_orientation(r0) is r0

    def test_non_palindromic_tie_unchanged(self):
        """|lo| = |hi| keeps whichever side is given, even when the two
        sides differ."""
        for text in ("1*q^-2 + 2*q^2", "2*q^-2 + 1*q^2", "1*q^-3"):
            r0 = rec(text)
            assert canonical_orientation(r0) is r0

    def test_idempotent(self):
        r = canonical_orientation(rec("1*q^-5 + 1*q^2", sigma=-4))
        assert canonical_orientation(r) is r

    def test_premirror_invariant(self):
        r0 = rec("1*q^-5 + 1*q^2", sigma=-4)
        a = canonical_orientation(r0)
        b = canonical_orientation(mirror_record(r0))
        assert a.jones == b.jones and a.sigma == b.sigma


class TestPrefersMirror:
    """The extreme-degree rule shared by canonical_orientation and the
    family clouds."""

    def test_ties_keep(self):
        for lo in range(-6, 1):
            assert not prefers_mirror(lo, -lo)
            assert not prefers_mirror(lo, lo)  # a monomial

    def test_largest_extreme_decides(self):
        assert prefers_mirror(-3, 2) and prefers_mirror(-5, -1)
        assert not prefers_mirror(-2, 3) and not prefers_mirror(1, 5)

    def test_matches_written_out_rule(self):
        for lo in range(-6, 7):
            for hi in range(lo, 7):
                if abs(lo) == abs(hi):
                    want = False
                else:
                    want = (lo if abs(lo) > abs(hi) else hi) < 0
                assert prefers_mirror(lo, hi) == want, (lo, hi)


class TestCoeffVector:
    def test_4_1_row(self):
        cv = coeff_vector(LaurentPolynomial.from_text(TABLE_POLYS["4_1"]))
        assert cv.min_degree == -2
        assert cv.coefficients == (1, -1, 1, -1, 1)

    def test_3_1_row_keeps_interior_zero(self):
        cv = coeff_vector(LaurentPolynomial.from_text(TABLE_POLYS["3_1"]))
        assert cv.min_degree == 1
        assert cv.coefficients == (1, 0, 1, -1)

    def test_constant(self):
        cv = coeff_vector(LaurentPolynomial.one())
        assert (cv.min_degree, cv.coefficients) == (0, (1,))

    def test_rejects_half_exponents(self):
        with pytest.raises(HalfIntegerExponent):
            coeff_vector(LaurentPolynomial({2: 1}))

    def test_reconstruction_exact(self, table_polys):
        for p in table_polys.values():
            cv = coeff_vector(p)
            assert LaurentPolynomial(
                {4 * (cv.min_degree + i): c
                 for i, c in enumerate(cv.coefficients)}) == p


class TestAlign:
    def _family(self):
        return [(name, coeff_vector(LaurentPolynomial.from_text(text)), {})
                for name, text in TABLE_POLYS.items()]

    def test_table_matrix(self):
        cloud = align(self._family())
        assert cloud.matrix.shape == (8, 11)
        assert cloud.q0_column == 3
        for i, name in enumerate(cloud.row_ids):
            assert cloud.matrix[i].tolist() == TABLE_MATRIX[name], name

    def test_empty_family(self):
        with pytest.raises(EmptyFamily):
            align([])

    @pytest.mark.parametrize("big", [2**63, -2**63 - 1])
    def test_interior_overflow(self, big):
        family = [("a", CoefficientVector(0, (1, 0, 0)), {}),
                  ("b", CoefficientVector(0, (0, big, 0)), {}),
                  ("c", CoefficientVector(0, (0, 0, 1)), {})]
        with pytest.raises(OverflowError):
            align(family)

    def test_single_knot_no_padding(self):
        cloud = align(self._family()[1:2])
        assert cloud.width == 4  # the trefoil spans degrees 1..4

    def test_norms(self):
        cloud = align(self._family())
        i = cloud.row_ids.index("6_3")
        assert cloud.norms[i] == pytest.approx(math.sqrt(27))

    def test_reconstruction(self, table_polys):
        cloud = align(self._family())
        for i, name in enumerate(cloud.row_ids):
            terms = {4 * (cloud.min_degree + j): int(c)
                     for j, c in enumerate(cloud.matrix[i])}
            assert LaurentPolynomial(terms, "q") == table_polys[name]


class TestNorm:
    """The row norms align computes, which the norm filtration reads."""

    def test_unknot(self):
        cloud = align([("0_1", coeff_vector(LaurentPolynomial.one()), {})])
        assert cloud.norms.tolist() == [1.0]

    def test_zero_row(self):
        cloud = align([("z", CoefficientVector(0, (0, 0)), {})])
        assert cloud.norms.tolist() == [0.0]

    def test_6_3(self):
        # zero padding into the table's window leaves the norm unchanged
        cv = coeff_vector(LaurentPolynomial.from_text(TABLE_POLYS["6_3"]))
        alone = align([("6_3", cv, {})])
        table = align([(name, coeff_vector(LaurentPolynomial.from_text(t)), {})
                       for name, t in TABLE_POLYS.items()])
        assert alone.width < table.width
        assert alone.norms[0] == table.norms[table.row_ids.index("6_3")] \
            == pytest.approx(math.sqrt(27))
