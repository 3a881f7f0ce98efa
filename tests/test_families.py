import re
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from knotfold import diagrams, families
from knotfold.bracket import bracket_to_jones, jones, kauffman_bracket
from knotfold.cloud import KnotRecord, row_norms
from knotfold.diagrams import is_alternating, writhe
from knotfold.errors import InexactDivision, NotAKnot, UnknownFormat
from knotfold.families import (
    FamilyCloud,
    double_twist_bracket,
    double_twist_diagram,
    double_twist_is_knot,
    double_twist_members,
    double_twist_row,
    double_twist_writhe,
    family_cloud,
    family_members,
    four_plat_diagram,
    jones_double_twist,
    jones_torus,
    torus_crossing_number,
    torus_diagram,
    torus_members,
    torus_row,
)
from knotfold.filtration import record_cloud
from knotfold.laurent import LaurentPolynomial
from knotfold.pipeline import generate_family

from conftest import TABLE_CROSSINGS, TABLE_POLYS, traced_peak
from oracles import (assert_same_cloud, bracket_statesum, dense,
                     double_twist_pairs, exact_div, family_fields,
                     records_cloud, row_spans, shift, torus_pairs)


def torus_oracle(m, n):
    """The classical closed form through validated polynomial arithmetic:
    q^((m-1)(n-1)/2) (1 - q^(m+1) - q^(n+1) + q^(m+n)) / (1 - q^2)."""
    num = LaurentPolynomial({0: 1, 4 * (m + 1): -1, 4 * (n + 1): -1,
                             4 * (m + n): 1}, "q")
    den = LaurentPolynomial({0: 1, 8: -1}, "q")
    return shift(exact_div(num, den), 2 * (m - 1) * (n - 1))


class TestTorusClosedForm:
    def test_2_3_is_trefoil(self, table_polys):
        assert jones_torus(2, 3) == table_polys["3_1"]

    def test_2_5(self, table_polys):
        assert jones_torus(2, 5) == table_polys["5_1"]

    def test_parameter_symmetry(self):
        assert jones_torus(3, 2) == jones_torus(2, 3)
        assert jones_torus(5, 3) == jones_torus(3, 5)

    def test_link_rejected(self):
        with pytest.raises(NotAKnot):
            jones_torus(2, 4)

    def test_small_parameters_rejected(self):
        with pytest.raises(NotAKnot):
            jones_torus(1, 5)

    def test_closed_form_matches_diagrams(self):
        """T(2,n) standard diagram evaluation for n in {3,5,7,9}."""
        for n in (3, 5, 7, 9):
            d = torus_diagram(n)
            assert jones(d) == jones_torus(2, n), n

    def test_integral_exponents(self):
        for m, n in ((2, 3), (3, 4), (3, 5), (4, 5)):
            assert jones_torus(m, n).is_integral()

    def test_matches_division_oracle_up_to_300(self):
        """The prefix-sum quotient equals exact_div for every member of
        torus_members(300); dict equality also rules out stored zeros."""
        for m, n in torus_members(300):
            assert jones_torus(m, n).terms == torus_oracle(m, n).terms, (m, n)

    def test_remainder_raises(self, monkeypatch):
        """(1 - q^3 - q^5 + q^6) / (1 - q^2) leaves a remainder: with the
        coprimality check bypassed, T(2,4) must not divide silently."""
        monkeypatch.setattr(families, "gcd", lambda m, n: 1)
        with pytest.raises(InexactDivision):
            jones_torus(2, 4)


class TestTorusFamily:
    def test_crossing_number(self):
        assert torus_crossing_number(2, 3) == 3
        assert torus_crossing_number(3, 4) == 8

    def test_limit_7_members(self):
        assert torus_members(7) == [(2, 3), (2, 5), (2, 7)]

    def test_members_sorted_and_coprime(self):
        from math import gcd

        members = torus_members(50)
        assert all(gcd(m, n) == 1 and 2 <= m < n for m, n in members)
        sizes = [torus_crossing_number(m, n) for m, n in members]
        assert sizes == sorted(sizes) and max(sizes) <= 50


class TestDoubleTwist:
    def test_diagram_crossing_count(self):
        for m, n in ((1, 2), (2, 2), (3, 4), (0, 3)):
            assert double_twist_diagram(m, n).n == m + n

    def test_diagrams_alternating(self):
        for m, n in ((1, 2), (2, 2), (2, 3), (3, 3)):
            assert is_alternating(double_twist_diagram(m, n))

    def test_degenerate_regions_give_unknot(self):
        one = LaurentPolynomial.one("q")
        assert jones_double_twist(0, 3) == one
        assert jones_double_twist(2, 0) == one
        assert jones_double_twist(0, 0) == one

    def test_small_knots(self, table_polys):
        assert jones_double_twist(2, 1) == table_polys["3_1"]
        assert jones_double_twist(2, 2) == table_polys["4_1"]
        assert jones_double_twist(2, 3) == table_polys["5_2"]

    def test_bracket_matches_statesum_up_to_10(self):
        for m in range(0, 9):
            for n in range(0, 9):
                if not 0 < m + n <= 10:
                    continue
                d = double_twist_diagram(m, n)
                assert double_twist_bracket(m, n) == bracket_statesum(d), \
                    (m, n)

    def test_jones_matches_diagram(self):
        for m, n in ((1, 1), (1, 2), (3, 2), (4, 3), (2, 6)):
            d = double_twist_diagram(m, n)
            assert jones_double_twist(m, n) == jones(d), (m, n)

    def test_knot_parity_rule(self):
        assert double_twist_is_knot(1, 2)
        assert double_twist_is_knot(2, 2)
        assert not double_twist_is_knot(1, 1)
        assert not double_twist_is_knot(3, 3)

    def test_members(self):
        assert double_twist_members(5) == [(1, 2), (2, 2), (1, 4), (2, 3)]
        for m, n in double_twist_members(30):
            assert m <= n and (m * n) % 2 == 0 and m + n <= 30

    def test_knot_outputs_integral(self):
        for m, n in double_twist_members(8):
            assert jones_double_twist(m, n).is_integral(), (m, n)

    def test_closed_forms_match_diagram_up_to_40(self):
        """Writhe and bracket closed forms against the diagram oracle for
        every 0 < m + n <= 40: knots, two-component links (m, n both odd)
        and the degenerate rows m = 0 and n = 0."""
        for total in range(1, 41):
            for m in range(total + 1):
                n = total - m
                d = double_twist_diagram(m, n)
                assert double_twist_writhe(m, n) == writhe(d), (m, n)
                assert double_twist_bracket(m, n) == kauffman_bracket(d), \
                    (m, n)

    def test_jones_matches_bracket_oracle_up_to_91(self):
        """The reindexed bracket list equals bracket_to_jones of the closed
        bracket and writhe for every 0 <= m + n <= 91, links included."""
        for total in range(92):
            for m in range(total + 1):
                n = total - m
                want = bracket_to_jones(double_twist_bracket(m, n),
                                        double_twist_writhe(m, n))
                assert jones_double_twist(m, n).terms == want.terms, (m, n)

    def test_generation_builds_no_polynomial_by_validation(self, monkeypatch):
        """Family records come from dicts the closed forms build directly:
        no member goes through the validating LaurentPolynomial
        constructor, for either family."""
        expected = [generate_family("double_twist", 40),
                    generate_family("torus", 60)]

        def refuse(*args, **kwargs):
            raise AssertionError("validating constructor on the family path")

        monkeypatch.setattr(LaurentPolynomial, "__init__", refuse)
        assert [generate_family("double_twist", 40),
                generate_family("torus", 60)] == expected

    def test_generation_builds_no_diagram(self, monkeypatch):
        """The family generator runs on the closed forms alone; the diagram
        builders are test oracles and never sit on the production path."""
        expected = generate_family("double_twist", 40)

        def refuse(*args, **kwargs):
            raise AssertionError("diagram built on the production path")

        monkeypatch.setattr(families, "double_twist_diagram", refuse)
        monkeypatch.setattr(families, "four_plat_diagram", refuse)
        monkeypatch.setattr(families, "from_even_under", refuse)
        monkeypatch.setattr(diagrams, "from_even_under", refuse)
        assert generate_family("double_twist", 40) == expected


class TestFourPlat:
    """The 4-plat builder beyond the one- and two-term families."""

    @staticmethod
    def determinant(twists):
        """Numerator of ak + 1/(a(k-1) + 1/(... + 1/a1))."""
        frac = Fraction(twists[0])
        for a in twists[1:]:
            frac = a + 1 / frac
        return frac.numerator

    def test_knots_up_to_four_terms(self):
        """Every knot [a1, ..., ak], k <= 4, 1 <= a_i <= 4, with at most 12
        crossings is alternating with sum(a_i) crossings, and |J(-1)| is
        its fraction's numerator, the two-bridge determinant."""
        knots = 0
        for k in range(1, 5):
            for twists in product(range(1, 5), repeat=k):
                if sum(twists) > 12:
                    continue
                d = four_plat_diagram(twists)
                if len(d.orientation[0]) != 1:
                    continue
                knots += 1
                assert d.n == sum(twists), twists
                assert is_alternating(d), twists
                lo, coeffs = jones(d).int_coeffs()
                at_minus_one = sum(c if (lo + i) % 2 == 0 else -c
                                   for i, c in enumerate(coeffs))
                assert abs(at_minus_one) == self.determinant(twists), twists
        assert knots == 200

    def test_negative_twists_rejected(self):
        with pytest.raises(ValueError):
            four_plat_diagram([2, -1])
        with pytest.raises(ValueError):
            torus_diagram(-3)
        with pytest.raises(ValueError):
            double_twist_diagram(-1, 2)


class TestFamilyCloud:
    """The cloud written straight from the closed forms equals aligning the
    canonicalized records, at the benchmark's family sizes."""

    @pytest.mark.parametrize("kind, limit", [
        ("torus", 300), ("double_twist", 21), ("double_twist", 91),
        ("double_twist", 151)])
    def test_matches_records(self, kind, limit):
        digest, cloud = family_cloud(kind, limit)
        want_digest, records = generate_family(kind, limit)
        assert digest == want_digest
        assert_same_cloud(cloud, records_cloud(records))

    @pytest.mark.parametrize("limit", [3, 4, 9, 91, 300, 2000])
    def test_member_arrays_match_the_member_lists(self, limit):
        """The array enumerator gives each member of a family once, and the
        member lists give the nested loops' members in generation order."""
        for kind, listed, looped, crossings in (
                ("torus", torus_members, torus_pairs, torus_crossing_number),
                ("double_twist", double_twist_members, double_twist_pairs,
                 lambda m, n: m + n)):
            m, n = families._member_arrays(kind, limit)
            assert m.dtype == n.dtype == np.int64
            pairs, want = list(zip(m.tolist(), n.tolist())), looped(limit)
            assert len(set(pairs)) == len(pairs)
            assert set(pairs) == set(want)
            assert listed(limit) == sorted(
                want, key=lambda mn: (crossings(*mn), mn))

    @pytest.mark.parametrize("kind, limit", [
        ("torus", 2000), ("double_twist", 601)])
    def test_fields_match_a_per_member_build(self, kind, limit):
        """Every field of the cloud built from whole arrays is the one
        built a member at a time: values, dtypes, the Python types in the
        tuples, and the norms bit for bit."""
        _, cloud = family_cloud(kind, limit)
        want = family_fields(kind, limit)
        got = {name: getattr(cloud, name) for name in want}
        for fields in (got, want):
            fields["norms"] = fields["norms"].view(np.int64)
            fields["lows"], fields["highs"] = fields.pop("spans")
        for name, w in want.items():
            g = got[name]
            if isinstance(w, np.ndarray):
                assert g.dtype == w.dtype and np.array_equal(g, w), name
            else:
                assert type(g) is type(w) and g == w, name
                if isinstance(w, tuple):
                    assert list(map(type, g)) == list(map(type, w)), name

    @pytest.mark.parametrize("kind, limit", [
        ("torus", 300), ("double_twist", 60)])
    def test_rows_match_the_row_functions(self, kind, limit):
        """Each row that rows() rebuilds from the difference form is its
        member's row function, reversed where the member is flipped, in
        its span and zero elsewhere, read in blocks that mix crossing
        numbers.  No torus member is flipped, so the cloud is also read
        with every flip turned over."""
        _, cloud = family_cloud(kind, limit)
        lows, highs = cloud.spans
        mirrored = replace(cloud, min_degree=-cloud.max_degree,
                           spans=(-highs, -lows), flip=~cloud.flip)
        row_of = {"torus": torus_row, "double_twist": double_twist_row}[kind]
        indices = np.arange(len(cloud.row_ids))
        for c in (cloud, mirrored):
            mixed = 0
            for a in range(0, len(indices), 37):
                chunk = indices[a:a + 37]
                mixed += len({c.crossing_numbers[i] for i in chunk}) > 1
                for i, got in zip(chunk.tolist(), c.rows(chunk).tolist()):
                    coeffs = row_of(int(c.m[i]), int(c.n[i]))[1]
                    start = int(c.spans[0][i]) - c.min_degree
                    want = [0] * c.width
                    want[start:start + len(coeffs)] = (
                        coeffs[::-1] if c.flip[i] else coeffs)
                    assert got == want, (c.row_ids[i], bool(c.flip[i]))
            assert mixed

    @pytest.mark.parametrize("kind, limit", [
        ("torus", 2000), ("double_twist", 301)])
    def test_norms_match_the_rows(self, kind, limit):
        """The closed-form norms are, bit for bit, the norms of the rows
        that rows() returns, as align's row_norms sums them."""
        _, cloud = family_cloud(kind, limit)
        indices = np.arange(len(cloud.row_ids))
        want = np.concatenate([row_norms(block)
                               for block in cloud.row_blocks(indices)])
        assert np.array_equal(cloud.norms.view(np.int64),
                              want.view(np.int64))

    def test_norms_read_no_row(self, monkeypatch):
        """family_cloud takes its norms from the closed forms: it builds
        with rows() raising."""
        def no_rows(self, indices):
            raise AssertionError("a row was read")

        monkeypatch.setattr(FamilyCloud, "rows", no_rows)
        for kind, limit in (("torus", 300), ("double_twist", 91)):
            _, cloud = family_cloud(kind, limit)
            assert len(cloud.norms) == len(cloud.row_ids)

    @pytest.mark.parametrize("kind, rid", [
        ("torus", "T(3,7)"), ("double_twist", "C(3,8)")])
    def test_wrong_difference_is_inexact(self, kind, rid, monkeypatch):
        """One wrong value of one member's u leaves that row nonzero past
        the cloud's columns, and rows() raises InexactDivision with its
        id; the other rows still read."""
        _, cloud = family_cloud(kind, 40)
        wrong = cloud.row_ids.index(rid)
        d, closed_form, squares, division = families._CLOSED_FORMS[kind]

        def corrupted(m, n):
            entries, values, peaks = closed_form(m, n)
            values = values.copy()
            values[(m == cloud.m[wrong]) & (n == cloud.n[wrong]), 1] += 1
            return entries, values, peaks

        monkeypatch.setitem(families._CLOSED_FORMS, kind,
                            (d, corrupted, squares, division))
        indices = np.arange(len(cloud.row_ids))
        with pytest.raises(InexactDivision, match=re.escape(rid)):
            cloud.rows(indices)
        assert cloud.rows(indices[indices != wrong]).shape == (
            len(indices) - 1, cloud.width)

    @pytest.mark.parametrize("kind, limit", [
        ("torus", 300), ("double_twist", 91),
        pytest.param("records", None, id="fixture-records")])
    def test_spans_match_the_rows(self, kind, limit):
        """The spans set when a cloud is built equal the ones scanned off
        its rows: a family's closed-form spans, and the spans record_cloud
        takes from each record's trimmed row."""
        if kind == "records":
            cloud = record_cloud([
                KnotRecord(name, TABLE_CROSSINGS[name],
                           LaurentPolynomial.from_text(text))
                for name, text in TABLE_POLYS.items()])
        else:
            _, cloud = family_cloud(kind, limit)
        got, want = cloud.spans, row_spans(cloud)
        assert len(got) == 2
        assert all(g.dtype == w.dtype and np.array_equal(g, w)
                   for g, w in zip(got, want))

    @pytest.mark.parametrize("kind, limit", [
        ("records", 30), ("torus", 30), ("double_twist", 21)])
    def test_empty_block(self, kind, limit):
        """rows() of no indices is an empty int64 block of full width, for
        a dataset cloud and both family clouds."""
        if kind == "records":
            cloud = records_cloud(generate_family("torus", limit)[1])
        else:
            _, cloud = family_cloud(kind, limit)
        block = cloud.rows(np.array([], dtype=np.int64))
        assert block.dtype == np.int64
        assert block.shape == (0, cloud.width)

    def test_holds_no_matrix(self):
        """Building a cloud holds a few blocks of rows at a time, far below
        the N x width int64 matrix of its rows."""
        cloud, peak = traced_peak(
            lambda: family_cloud("double_twist", 301)[1])
        dense_bytes = len(cloud.row_ids) * cloud.width * 8
        assert dense_bytes > 80e6  # 16,950 x 602
        assert peak < dense_bytes / 4

    def test_rows_in_id_order(self):
        _, cloud = family_cloud("double_twist", 12)
        assert list(cloud.row_ids) == sorted(cloud.row_ids)
        assert cloud.row_ids[:3] == ("C(1,10)", "C(1,2)", "C(1,4)")
        assert cloud.sigma_values == (None,) * len(cloud.row_ids)

    def test_tie_rows_unmirrored(self):
        """C(2k, 2k) spans degrees -2k..2k, a tie of the mirror rule: its
        row is the closed form's, as canonical_orientation keeps it."""
        _, cloud = family_cloud("double_twist", 12)
        for k in (1, 2, 3):
            rid = f"C({2 * k},{2 * k})"
            row = dense(cloud)[cloud.row_ids.index(rid)]
            nonzero = [int(c) for c in row if c]
            assert nonzero == [c for c in jones_double_twist(2 * k, 2 * k)
                               .int_coeffs()[1] if c], rid
            assert row[-cloud.min_degree - 2 * k] and \
                row[-cloud.min_degree + 2 * k], rid

    @pytest.mark.parametrize("kind, limit, operator", [
        ("torus", 300, (1, 0, -1)), ("double_twist", 151, (1, 2, 1))])
    def test_differences(self, kind, limit, operator):
        """differences() is D times each member's row from torus_row or
        double_twist_row, reversed where the member is flipped, and its
        peaks bound the row.  Tied members are included; no torus member
        is flipped, so the cloud is also checked with every flip turned
        over."""
        _, cloud = family_cloud(kind, limit)
        lows, highs = cloud.spans
        assert cloud.flip.any() == (kind == "double_twist")
        assert (np.abs(lows) == np.abs(highs)).any() == \
            (kind == "double_twist")
        mirrored = replace(cloud, min_degree=-cloud.max_degree,
                           spans=(-highs, -lows), flip=~cloud.flip)
        row_of = {"torus": torus_row, "double_twist": double_twist_row}[kind]
        for c in (cloud, mirrored):
            columns, values, peaks = c.differences(np.arange(len(c.row_ids)))
            for i, (m, n, flip) in enumerate(zip(
                    c.m.tolist(), c.n.tolist(), c.flip.tolist())):
                lo4, coeffs = row_of(m, n)
                assert (-c.spans[1][i] if flip else c.spans[0][i]) == lo4 // 4
                x = np.array(coeffs[::-1] if flip else coeffs)
                start = c.spans[0][i] - c.min_degree
                want = np.zeros(c.width + 2, dtype=np.int64)
                want[start:start + len(x) + 2] = np.convolve(x, operator)
                got = np.zeros(c.width + 2, dtype=np.int64)
                np.add.at(got, columns[i], values[i])
                assert np.array_equal(got, want), (c.row_ids[i], flip)
                assert np.abs(x).max() <= peaks[i], c.row_ids[i]

    @given(st.integers(2, 400), st.integers(1, 400))
    @example(2, 1)
    @example(3, 2)
    @example(4, 1)
    @example(3, 5)
    @settings(derandomize=True, deadline=None)
    def test_torus_squares(self, m, n):
        """||x||^2 of a torus row, m if m is odd and n otherwise, is the
        sum of its squared coefficients for every coprime 2 <= m < n and
        every parity mix: T(m, m + n) covers them all."""
        n += m
        assume(gcd(m, n) == 1)
        got = families._torus_squares(np.array([m]), np.array([n]))
        assert got.tolist() == [sum(c * c for c in torus_row(m, n)[1])]

    @given(st.integers(1, 400), st.integers(1, 400))
    @example(1, 2)
    @example(2, 1)
    @example(2, 2)
    @example(4, 3)
    @example(3, 4)
    @example(6, 8)
    @settings(derandomize=True, deadline=None)
    def test_double_twist_squares(self, m, n):
        """The closed form of ||x||^2 of a double twist row is the sum of
        its squared coefficients, in either order of (m, n): m = 1, ties
        and every parity mix of the knots (m n even) included."""
        assume(m * n % 2 == 0)
        got = families._double_twist_squares(np.array([m]), np.array([n]))
        assert got.tolist() == [sum(c * c for c in double_twist_row(m, n)[1])]

    def test_members_and_bad_inputs(self):
        assert family_members("torus", 7) == ("torus-7", [
            ("T(2,3)", 3, True, 2, 3), ("T(2,5)", 5, True, 2, 5),
            ("T(2,7)", 7, True, 2, 7)])
        with pytest.raises(ValueError):
            family_cloud("torus", 2)
        with pytest.raises(UnknownFormat):
            family_cloud("pretzel", 7)
