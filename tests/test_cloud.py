import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from knotfold.cloud import (
    NORM_BLOCK_ROWS,
    KnotRecord,
    align,
    canonical_orientation,
    mirror_record,
    prefers_mirror,
)
from knotfold.errors import EmptyFamily, HalfIntegerExponent
from knotfold.laurent import LaurentPolynomial

from conftest import TABLE_MATRIX, TABLE_POLYS, traced_peak
from oracles import dense, prefers_mirror_branching, row


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
        """Every lo <= hi in [-60, 60], one pair at a time as ints and all
        at once as arrays, as family_cloud applies it."""
        pairs = [(lo, hi) for lo in range(-60, 61) for hi in range(lo, 61)]
        want = [prefers_mirror_branching(lo, hi) for lo, hi in pairs]
        got = [prefers_mirror(lo, hi) for lo, hi in pairs]
        assert got == want and {type(g) for g in got} == {bool}
        lo, hi = np.array(pairs).T
        assert prefers_mirror(lo, hi).tolist() == want

    @given(st.integers(-10**12, 10**12), st.integers(0, 10**12))
    @example(0, 0)
    @example(-3, 6)
    @example(-3, 0)
    @example(3, 0)
    @example(-4, 7)
    @example(-4, 9)
    @settings(derandomize=True)
    def test_matches_the_branching_rule(self, lo, gap):
        """The one-line rule is the branching one for every lo <= hi:
        ties |lo| = |hi|, monomials and 0 included."""
        assert prefers_mirror(lo, lo + gap) is prefers_mirror_branching(
            lo, lo + gap)


class TestCoeffVector:
    """The dense row a polynomial hands to align."""

    def test_4_1_row(self):
        p = LaurentPolynomial.from_text(TABLE_POLYS["4_1"])
        assert p.int_coeffs() == (-2, [1, -1, 1, -1, 1])

    def test_3_1_row_keeps_interior_zero(self):
        p = LaurentPolynomial.from_text(TABLE_POLYS["3_1"])
        assert p.int_coeffs() == (1, [1, 0, 1, -1])

    def test_constant(self):
        assert LaurentPolynomial.one().int_coeffs() == (0, [1])

    def test_rejects_half_exponents(self):
        with pytest.raises(HalfIntegerExponent):
            LaurentPolynomial({2: 1}).int_coeffs()

    def test_reconstruction_exact(self, table_polys):
        for p in table_polys.values():
            lo, coeffs = p.int_coeffs()
            assert LaurentPolynomial(
                {4 * (lo + i): c for i, c in enumerate(coeffs)}) == p


class TestAlign:
    def _family(self):
        return [row(name, LaurentPolynomial.from_text(text))
                for name, text in TABLE_POLYS.items()]

    def test_table_matrix(self):
        cloud = align(self._family())
        assert cloud.matrix.shape == (8, 11)
        assert -cloud.min_degree == 3  # the q^0 column
        for i, name in enumerate(cloud.row_ids):
            assert cloud.matrix[i].tolist() == TABLE_MATRIX[name], name

    def test_empty_family(self):
        with pytest.raises(EmptyFamily):
            align([])

    @pytest.mark.parametrize("big", [2**63, -2**63 - 1])
    def test_interior_overflow(self, big):
        family = [("a", 0, (1, 0, 0), None, None, None),
                  ("b", 0, (0, big, 0), None, None, None),
                  ("c", 0, (0, 0, 1), None, None, None)]
        with pytest.raises(OverflowError):
            align(family)

    def test_rows_in_id_order(self):
        """align orders rows by id, whatever order they come in, and each
        row keeps its own coefficients and metadata."""
        family = [row(name, LaurentPolynomial.from_text(text),
                      alternating=i % 2 == 0, sigma=i, crossing_number=-i)
                  for i, (name, text) in enumerate(TABLE_POLYS.items())]
        meta = {r[0]: r[3:] for r in family}
        random.Random(5).shuffle(family)
        cloud = align(family)
        assert list(cloud.row_ids) == sorted(TABLE_POLYS)
        for i, name in enumerate(cloud.row_ids):
            assert cloud.matrix[i].tolist() == TABLE_MATRIX[name], name
            assert (cloud.class_flags[i], cloud.sigma_values[i],
                    cloud.crossing_numbers[i]) == meta[name], name

    def test_single_knot_no_padding(self):
        """A row spans the degrees it is given: a trimmed row its nonzero
        ones, and a row with zero end entries all of its entries."""
        cloud = align(self._family()[1:2])
        assert cloud.width == 4  # the trefoil spans degrees 1..4
        assert [s.tolist() for s in cloud.spans] == [[1], [4]]
        padded = align([("z", -2, (0, 1, 0, 0), None, None, None),
                        ("y", 0, (1,), None, None, None)])
        assert (padded.min_degree, padded.width) == (-2, 4)
        assert [s.tolist() for s in padded.spans] == [[0, -2], [0, 1]]

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
        cloud = align([row("0_1", LaurentPolynomial.one())])
        assert cloud.norms.tolist() == [1.0]

    def test_zero_row(self):
        cloud = align([("z", 0, (0, 0), None, None, None)])
        assert cloud.norms.tolist() == [0.0]

    def test_6_3(self):
        # zero padding into the table's window leaves the norm unchanged
        alone = align([row("6_3", LaurentPolynomial.from_text(
            TABLE_POLYS["6_3"]))])
        table = align([row(name, LaurentPolynomial.from_text(t))
                       for name, t in TABLE_POLYS.items()])
        assert alone.width < table.width
        assert alone.norms[0] == table.norms[table.row_ids.index("6_3")] \
            == pytest.approx(math.sqrt(27))

    def test_blocked_norms_equal_the_whole_matrix_formula(self):
        """The norms, summed one row block at a time, have the bits of
        squaring a float copy of the whole matrix, also where entries near
        2^31 have squares past 2^53 that round."""
        rng = np.random.default_rng(15)
        shape = (2 * NORM_BLOCK_ROWS + 5, 37)
        m = rng.integers(2**31 - 999, 2**31 + 999, size=shape)
        m *= rng.choice([-1, 1], size=m.shape)
        cloud = align([(f"r{i:05d}", 0, r.tolist(), None, None, None)
                       for i, r in enumerate(m)])
        assert np.array_equal(cloud.matrix, m)
        squares = (m.astype(float) ** 2).sum(axis=1)
        assert any(int(s) != sum(int(x) ** 2 for x in r)
                   for s, r in zip(squares, m.tolist()))  # rounding happens
        assert np.array_equal(cloud.norms, np.sqrt(squares))

    def test_peak_memory_is_the_matrix_and_one_norm_block(
            self, double_twist_91):
        """align holds its int64 matrix and one float block of
        NORM_BLOCK_ROWS rows, never a float copy of the whole matrix."""
        cloud = double_twist_91
        m = dense(cloud)
        rows = [(rid, cloud.min_degree, r.tolist(), None, None, c)
                for rid, r, c in zip(cloud.row_ids, m,
                                     cloud.crossing_numbers)]
        again, peak = traced_peak(lambda: align(rows))
        assert np.array_equal(again.matrix, m)
        block = min(NORM_BLOCK_ROWS, len(m)) * m.shape[1] * 8
        assert peak < m.nbytes + block + 0.1 * m.nbytes
