import copy
import itertools
import pickle
import random

import pytest

from knotfold.bracket import jones
from knotfold.diagrams import (
    DTSequence,
    PlanarDiagram,
    _dt_crossing_tuples,
    all_dt_codes,
    dt_code,
    from_even_under,
    is_alternating,
    mirror,
    parse_dt,
    parse_pd,
    realize_dt,
    writhe,
)
from knotfold.errors import (
    BadArcMultiplicity,
    DuplicateOrGap,
    NonInteger,
    NotRealizable,
    OddEntry,
)
from knotfold.families import (
    double_twist_diagram,
    double_twist_is_knot,
    jones_double_twist,
)

from conftest import TABLE_DT


class TestDTParsing:
    def test_parse_whitespace_and_commas(self):
        assert parse_dt("4, 6, 2").entries == (4, 6, 2)
        assert parse_dt(" 4\t6\n2 ").entries == (4, 6, 2)

    def test_non_integer(self):
        with pytest.raises(NonInteger):
            parse_dt("4 six 2")

    def test_odd_entry(self):
        with pytest.raises(OddEntry):
            parse_dt("4 5 2")

    def test_zero_entry(self):
        with pytest.raises(OddEntry):
            parse_dt("4 0 2")

    def test_duplicate(self):
        with pytest.raises(DuplicateOrGap):
            parse_dt("4 4 2")

    def test_gap(self):
        with pytest.raises(DuplicateOrGap):
            parse_dt("4 8 2")

    def test_signs_allowed(self):
        assert parse_dt("-4 6 -2").entries == (-4, 6, -2)

    def test_empty_is_unknot(self):
        assert len(parse_dt("")) == 0


class TestPDValidation:
    def test_arc_multiplicity(self):
        with pytest.raises(BadArcMultiplicity):
            PlanarDiagram(((1, 2, 3, 4), (1, 2, 3, 5)))

    def test_bad_tuple_length(self):
        with pytest.raises(BadArcMultiplicity):
            PlanarDiagram(((1, 2, 3),))

    def test_pickle_and_copy(self):
        d = realize_dt(parse_dt("4 8 10 2 12 6"))
        for e in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
            assert e == d and e.faces == d.faces
            assert e.orientation == d.orientation

    def test_parse_rejects_garbage(self):
        with pytest.raises(BadArcMultiplicity):
            parse_pd("X(1,3,2,4) junk X(3,1,4,2)")


class TestRealization:
    def test_all_fixture_codes_realize(self):
        for name, code in TABLE_DT.items():
            d = realize_dt(parse_dt(code))
            assert d.n == len(parse_dt(code))

    def test_not_realizable(self):
        # found by exhaustive search: no crossing-sense assignment of this
        # pairing embeds in the plane
        with pytest.raises(NotRealizable):
            realize_dt(DTSequence((4, 6, 8, 10, 2)))

    def test_trefoil_structure(self):
        d = realize_dt(parse_dt("4 6 2"))
        assert writhe(d) in (3, -3)
        assert is_alternating(d)
        assert len(d.faces) == d.n + 2

    def test_realization_deterministic(self):
        a = realize_dt(parse_dt("4 6 8 2"))
        b = realize_dt(parse_dt("4 6 8 2"))
        assert a == b

    def test_roundtrip_all_fixtures(self):
        """dt_code recovers the input code among traversal choices."""
        for name, code in TABLE_DT.items():
            if not code:
                continue
            entries = parse_dt(code).entries
            d = realize_dt(DTSequence(entries))
            assert entries in all_dt_codes(d)

    def test_every_code_of_a_realization_keeps_jones(self):
        """realize -> all_dt_codes -> realize keeps the Jones polynomial of
        random prime diagrams, up to the mirror image that a DT code cannot
        fix.  Composite diagrams, kinks included, are left out: each
        interlacement component is pinned on its own, so another code of
        the same diagram may mirror one factor (granny and square knot)."""
        rng = random.Random(2019)
        checked = 0
        while checked < 120:
            n = rng.randint(3, 10)
            perm = rng.sample(range(2, 2 * n + 1, 2), n)
            code = DTSequence(tuple(rng.choice((1, -1)) * e for e in perm))
            if not _interlacement_connected(code):
                continue
            convention = rng.choice(("a", "b"))
            try:
                d = realize_dt(code, convention)
            except NotRealizable:
                continue
            checked += 1
            want = jones(d)
            codes = all_dt_codes(d, convention)
            assert code.entries in codes
            for entries in codes:
                assert jones(realize_dt(DTSequence(entries), convention)) in \
                    (want, want.substitute_inverse()), (code, entries)

    def test_convention_b_flips_signs(self):
        d = realize_dt(parse_dt("4 6 2"))
        a = dt_code(d, "a").entries
        b = dt_code(d, "b").entries
        assert b == tuple(-e for e in a)

    def test_brute_force_realizability_oracle(self):
        """Planarity search agrees with Euler-formula counting on all
        3-crossing sign patterns."""
        for signs in itertools.product((1, -1), repeat=3):
            for perm in itertools.permutations((2, 4, 6)):
                code = tuple(s * e for s, e in zip(signs, perm))
                try:
                    seq = DTSequence(code)
                except Exception:
                    continue
                try:
                    d = realize_dt(seq)
                    assert len(d.faces) == d.n + 2
                except NotRealizable:
                    # oracle: exhaustively confirm no sense assignment works
                    for mask in range(4):
                        eps = [1, 1 if mask & 1 == 0 else -1,
                               1 if mask & 2 == 0 else -1]
                        assert not _planar(seq, eps)


def _interlacement_connected(code):
    """Whether every two crossings are joined by a path of interlaced
    crossings: crossing w is interlaced with u when exactly one of w's two
    passage times lies strictly between u's."""
    chords = [sorted((2 * i + 1, abs(e))) for i, e in enumerate(code.entries)]
    seen, todo = {0}, [0]
    while todo:
        a, b = chords[todo.pop()]
        for w, (c, d) in enumerate(chords):
            if w not in seen and (a < c < b) != (a < d < b):
                seen.add(w)
                todo.append(w)
    return len(seen) == len(chords)


def _planar(code, eps):
    """Oracle: whether the senses ``eps`` embed the code in the plane, by
    the Euler face count of its rotation system."""
    d = PlanarDiagram(_dt_crossing_tuples(code, eps, "a"))
    return len(d.faces) == d.n + 2


def _search_senses(code):
    """Oracle: the exhaustive search realize_dt used to run.

    Masks over crossings 1..n-1 (crossing 0 fixed at +1) in binary
    counting order; the first whose rotation system passes the Euler face
    count wins.  Planarity does not depend on the sign convention, so one
    search serves both.  Returns None when no mask is planar.
    """
    n = len(code)
    for mask in range(1 << (n - 1)):
        eps = [1] + [1 if (mask >> k) & 1 == 0 else -1 for k in range(n - 1)]
        if _planar(code, eps):
            return eps
    return None


def _assert_matches_search(code):
    """realize_dt equals the search's diagram, or both find none; returns
    whether the code is realizable."""
    eps = _search_senses(code)
    for convention in ("a", "b"):
        if eps is None:
            with pytest.raises(NotRealizable):
                realize_dt(code, convention)
        else:
            want = PlanarDiagram(_dt_crossing_tuples(code, eps, convention))
            assert realize_dt(code, convention) == want, (code, convention)
    return eps is not None


class TestRealizationMatchesSearch:
    def test_every_pairing_up_to_7_crossings(self):
        rng = random.Random(1983)
        realizable = 0
        for n in range(1, 8):
            for perm in itertools.permutations(range(2, 2 * n + 1, 2)):
                code = DTSequence(tuple(rng.choice((1, -1)) * e
                                        for e in perm))
                realizable += _assert_matches_search(code)
        # both outcomes are exercised: 4094 of the 5913 pairings embed
        assert realizable == 4094

    @pytest.mark.parametrize("text", [
        "2", "2 4", "2 6 8 4", "4 6 2 10 12 8", "4 6 2 -10 -12 -8",
        "4 6 2 8 12 14 10", "6 8 10 2 4 14 16 12"])
    def test_connected_sums(self, text):
        # several interlacement components: each is pinned separately
        _assert_matches_search(parse_dt(text))

    def test_connected_sum_jones_is_product(self):
        trefoil = jones(realize_dt(parse_dt("4 6 2")))
        factors = (trefoil, trefoil.substitute_inverse())
        got = jones(realize_dt(parse_dt("4 6 2 10 12 8")))
        assert got in {a * b for a in factors for b in factors}

    def test_double_twist_40_crossings(self):
        # out of reach for the search: 2^39 masks per code
        m, n = 14, 26
        assert double_twist_is_knot(m, n)
        want = jones_double_twist(m, n)
        allowed = (want, want.substitute_inverse())
        for convention in ("a", "b"):
            codes = all_dt_codes(double_twist_diagram(m, n), convention)
            assert codes
            for entries in sorted(codes):
                d = realize_dt(DTSequence(entries), convention)
                assert d.n == m + n
                assert jones(d) in allowed


class TestMirror:
    def test_involution(self, fixture_diagrams):
        for name, d in fixture_diagrams.items():
            assert mirror(mirror(d)) == d

    def test_writhe_negates(self, fixture_diagrams):
        for name, d in fixture_diagrams.items():
            assert writhe(mirror(d)) == -writhe(d)

    def test_alternating_preserved(self, fixture_diagrams):
        for name, d in fixture_diagrams.items():
            assert is_alternating(mirror(d)) == is_alternating(d)


class TestOrientation:
    def test_knots_are_single_component(self, fixture_diagrams):
        for name, d in fixture_diagrams.items():
            assert len(d.orientation[0]) == 1

    def test_hopf_link_two_components(self):
        d = parse_pd("X(1,3,2,4) X(3,1,4,2)")
        assert len(d.orientation[0]) == 2

    def test_crossing_signs_sum_to_writhe(self, fixture_diagrams):
        for name, d in fixture_diagrams.items():
            assert sum(d.crossing_signs()) == writhe(d)

    def test_from_even_under_recovers_valid_orientation(self):
        from knotfold.bracket import jones

        d = parse_pd("X(1,5,2,4) X(3,1,4,6) X(5,3,6,2)")
        # feeding rotated tuples (under-strand on even slots but pointing
        # the wrong way) must still yield a valid diagram of the same knot
        rotated = tuple(tuple(cr[(2 + k) % 4] for k in range(4))
                        for cr in d.crossings)
        fixed = from_even_under(rotated)
        assert jones(fixed) == jones(d)
