import pytest
from hypothesis import given, reject, settings, strategies as st

from knotfold import bracket
from knotfold.bracket import bracket_to_jones, jones, kauffman_bracket
from knotfold.diagrams import (
    DT_CONVENTIONS,
    DTSequence,
    PlanarDiagram,
    mirror,
    parse_dt,
    parse_pd,
    realize_dt,
    writhe,
)
from knotfold.errors import NotRealizable, SweepNotClosed, WidthOverflow
from knotfold.families import torus_diagram
from knotfold.laurent import LaurentPolynomial

from oracles import STATESUM_CAP, CapExceeded, bracket_statesum, skein_check


class TestBracketBasics:
    def test_unknot_zero_crossings(self):
        d = realize_dt(parse_dt(""))
        assert kauffman_bracket(d) == LaurentPolynomial.one("A")
        assert jones(d) == LaurentPolynomial.one("q")

    def test_positive_kink(self):
        """One-crossing unknot diagram: bracket -A^3, Jones 1."""
        d = parse_pd("X(1,1,2,2)")
        assert kauffman_bracket(d) == LaurentPolynomial.monomial(-1, 3, "A")
        assert jones(d) == LaurentPolynomial.one("q")

    def test_two_component_unlink_diagram(self):
        # Reidemeister-2 diagram of the 2-component unlink
        d = parse_pd("X(1,2,3,4) X(2,3,4,1)")
        assert jones(d) == LaurentPolynomial({2: -1, -2: -1}, "q")

    def test_hopf_link(self):
        d = parse_pd("X(1,4,2,3) X(3,2,4,1)")
        assert jones(d) == LaurentPolynomial({-2: -1, -10: -1}, "q")

    def test_statesum_cap(self):
        d = torus_diagram(STATESUM_CAP + 1)
        with pytest.raises(CapExceeded):
            bracket_statesum(d)

    def test_sweep_state_budget(self, monkeypatch):
        """The budget is read at call time, and a record over it ends as a
        WidthOverflow failure line."""
        from knotfold.pipeline import _compute_one

        monkeypatch.setattr(bracket, "SWEEP_STATE_BUDGET", 1)
        with pytest.raises(WidthOverflow):
            jones(realize_dt(parse_dt("4 8 10 2 6")))
        line = _compute_one(("k", "key", "dt", "4 8 10 2 6", "a", {}))
        assert line.startswith("k;key;!;WidthOverflow: ")

    def test_sweep_not_closed(self, monkeypatch):
        # an order that skips a crossing leaves strands open; the check is
        # a real error, so it also holds under python -O
        order = bracket._sweep_order
        monkeypatch.setattr(bracket, "_sweep_order", lambda d: order(d)[:-1])
        with pytest.raises(SweepNotClosed):
            kauffman_bracket(realize_dt(parse_dt("4 6 2")))


class TestEvaluatorEquivalence:
    def test_all_fixtures(self, fixture_diagrams):
        for name, d in fixture_diagrams.items():
            assert bracket_statesum(d) == kauffman_bracket(d), name

    def test_links_too(self):
        for text in ("X(1,3,2,4) X(3,1,4,2)",
                     "X(1,4,2,3) X(3,2,4,1)",
                     "X(1,1,2,2)"):
            d = parse_pd(text)
            assert bracket_statesum(d) == kauffman_bracket(d)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_torus_diagrams(self, n):
        # T(2, n): a link for even n, its two strands running the same way
        d = torus_diagram(n)
        assert bracket_statesum(d) == kauffman_bracket(d)
        assert writhe(d) == n

    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.permutations(range(2, 2 * n + 1, 2)),
        st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))))
    @settings(derandomize=True, deadline=None)
    def test_random_dt_codes(self, pairing):
        # random pairings include kinks: an odd time paired with a
        # neighbouring even time
        perm, signs = pairing
        code = DTSequence(tuple(s * e for s, e in zip(signs, perm)))
        try:
            diagrams = [realize_dt(code, c) for c in DT_CONVENTIONS]
        except NotRealizable:
            reject()
        for d in diagrams:
            for e in (d, mirror(d)):
                assert bracket_statesum(e) == kauffman_bracket(e), code.entries


def split_union(pieces):
    """PD diagram of the split union of PD diagrams: labels are shifted
    so no two pieces share one."""
    crossings, shift = [], 0
    for d in pieces:
        crossings += [tuple(lab + shift for lab in cr) for cr in d.crossings]
        shift += max(lab for cr in d.crossings for lab in cr)
    return PlanarDiagram(tuple(crossings))


KINK = parse_pd("X(1,1,2,2)")  # bracket -A^3


class TestSweepWidthEdge:
    """The packed sweep weights at the edge of their widths: a kink closes
    the most loops its crossing can, and negative kinks push exponents to
    the -5n end of the window."""

    @pytest.mark.parametrize("sign", (1, -1))
    def test_kink_chains(self, sign):
        # one strand with k kinks: <D> = (-A^3)^w, w = sign * k
        for k in range(1, 21):
            d = realize_dt(DTSequence(tuple(sign * e
                                            for e in range(2, 2 * k + 1, 2))))
            assert writhe(d) == sign * k
            assert kauffman_bracket(d) == \
                LaurentPolynomial.monomial((-1) ** k, 3 * sign * k, "A"), k

    @pytest.mark.parametrize("sign", (1, -1))
    def test_split_kinks(self, sign):
        # k disjoint kinks: <D> = (-A^(3 sign))^k delta^(k-1)
        delta = LaurentPolynomial({8: -1, -8: -1}, "A")  # -A^2 - A^-2
        piece = KINK if sign > 0 else mirror(KINK)
        want = LaurentPolynomial.monomial(-1, 3 * sign, "A")
        for k in range(1, 21):
            d = split_union([piece] * k)
            assert kauffman_bracket(d) == want, k
            want = want * delta * LaurentPolynomial.monomial(-1, 3 * sign, "A")

    def test_split_mixed_against_statesum(self):
        pieces = [KINK, mirror(KINK), parse_pd("X(1,4,2,3) X(3,2,4,1)"),
                  realize_dt(parse_dt("4 6 2")),
                  mirror(realize_dt(parse_dt("4 6 8 2")))]
        for a in pieces:
            for b in pieces:
                for c in (KINK, mirror(KINK)):
                    d = split_union([a, b, c, a])
                    assert bracket_statesum(d) == kauffman_bracket(d), \
                        d.crossings


class TestJones:
    def test_table_polynomials(self, fixture_diagrams, table_polys):
        for name, d in fixture_diagrams.items():
            assert jones(d) == table_polys[name], name

    def test_mirror_identity(self, fixture_diagrams):
        for name, d in fixture_diagrams.items():
            assert jones(mirror(d)) == jones(d).substitute_inverse(), name

    def test_writhe_invariance_of_normalization(self):
        """Kinked trefoil gives the same Jones as the reduced diagram."""
        plain = jones(realize_dt(parse_dt("4 6 2")))
        kinked = jones(parse_pd("X(1,5,2,4) X(3,1,4,6) X(5,3,6,8) X(7,7,8,2)"))
        assert kinked == plain


class TestSkein:
    def test_trefoil_triple(self):
        """Trefoil, unknot, Hopf link: the triple from switching and
        smoothing the top crossing of the trefoil."""
        l_plus = jones(realize_dt(parse_dt("4 6 2")))
        l_minus = LaurentPolynomial.one("q")
        l_zero = jones(parse_pd("X(1,3,2,4) X(3,1,4,2)"))
        assert skein_check(l_plus, l_minus, l_zero)

    def test_unknots_with_unlink(self):
        one = LaurentPolynomial.one("q")
        unlink = LaurentPolynomial({2: -1, -2: -1}, "q")
        assert skein_check(one, one, unlink)

    def test_identity_fails(self):
        one = LaurentPolynomial.one("q")
        assert not skein_check(one, one, one)


class TestBracketToJones:
    def test_zero_writhe_passthrough(self):
        b = LaurentPolynomial.monomial(1, 4, "A")
        assert bracket_to_jones(b, 0) == LaurentPolynomial.monomial(1, -1, "q")

    def test_odd_writhe_sign(self):
        b = LaurentPolynomial.monomial(-1, 3, "A")
        assert bracket_to_jones(b, 1) == LaurentPolynomial.one("q")
