from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from knotfold.diagrams import mirror, parse_dt, parse_pd, realize_dt
from knotfold.errors import Unsupported
from knotfold.families import double_twist_diagram, torus_diagram
from knotfold.signature import _sym_signature, signature_from_diagram


def fraction_signature(m):
    """Oracle: congruence reduction over the rationals."""
    n = len(m)
    w = [[Fraction(x) for x in row] for row in m]
    pos = neg = 0
    for k in range(n):
        if w[k][k] == 0:
            pivot = next((j for j in range(k + 1, n) if w[j][j] != 0), None)
            if pivot is not None:
                w[k], w[pivot] = w[pivot], w[k]
                for row in w:
                    row[k], row[pivot] = row[pivot], row[k]
            else:
                other = next((j for j in range(k + 1, n) if w[k][j] != 0), None)
                if other is None:
                    continue  # zero row/column: null direction
                for j in range(n):
                    w[k][j] += w[other][j]
                for row in w:
                    row[k] += row[other]
        d = w[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = w[i][k] / d
            if f:
                for j in range(k, n):
                    w[i][j] -= f * w[k][j]
                for row in w:
                    row[i] -= f * row[k]
    return pos - neg


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices of size 0-10.  Some have a zero
    diagonal, so the reduction must pivot on an off-diagonal entry, and
    some repeat a row and column, so they are singular."""
    n = draw(st.integers(0, 10))
    entries = st.integers(-4, 4)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entries)
    if n and draw(st.booleans()):
        for i in range(n):
            m[i][i] = 0
    if n >= 2 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n)))[:2]
        for i in range(n):
            m[dst][i] = m[src][i]
        for i in range(n):
            m[i][dst] = m[i][src]
    return m


def seifert_signature(v):
    """Oracle: signature of V + V^T for a Seifert matrix V."""
    n = len(v)
    sym = [[v[i][j] + v[j][i] for j in range(n)] for i in range(n)]
    return _sym_signature(sym)


class TestSymSignature:
    def test_diagonal(self):
        assert _sym_signature([[3, 0], [0, -1]]) == 0
        assert _sym_signature([[2, 0], [0, 5]]) == 2

    def test_zero_pivot_handling(self):
        assert _sym_signature([[0, 1], [1, 0]]) == 0

    def test_empty(self):
        assert _sym_signature([]) == 0

    @given(symmetric_matrices())
    @example([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    @example([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    @example([[0, 2, -1, 0], [2, 0, 3, 1], [-1, 3, 0, 0], [0, 1, 0, 0]])
    @example([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    @settings(derandomize=True, deadline=None)
    def test_matches_fraction_oracle(self, m):
        assert _sym_signature(m) == fraction_signature(m)


class TestSignature:
    def test_unknot(self):
        assert signature_from_diagram(realize_dt(parse_dt(""))) == 0

    def test_trefoil_chiralities(self):
        d = realize_dt(parse_dt("4 6 2"))
        a, b = signature_from_diagram(d), signature_from_diagram(mirror(d))
        assert a == -b and abs(a) == 2

    def test_trefoil_magnitude_vs_seifert_oracle(self):
        # genus-1 Seifert matrix of the trefoil
        assert abs(seifert_signature([[-1, 1], [0, -1]])) == 2

    def test_figure_eight_amphichiral(self):
        assert signature_from_diagram(realize_dt(parse_dt("4 6 8 2"))) == 0

    def test_fixture_values(self, fixture_diagrams):
        expected = {"0_1": 0, "3_1": 2, "4_1": 0, "5_1": 4, "5_2": 2,
                    "6_1": 0, "6_2": 2, "6_3": 0}
        for name, d in fixture_diagrams.items():
            assert signature_from_diagram(d) == expected[name], name

    def test_mirror_antisymmetry(self, fixture_diagrams):
        for name, d in fixture_diagrams.items():
            assert signature_from_diagram(mirror(d)) == \
                -signature_from_diagram(d), name

    def test_torus_2_n(self):
        # positive (2,n) torus knots have signature n - 1 here
        for n in (3, 5, 7):
            assert signature_from_diagram(torus_diagram(n)) == n - 1

    def test_double_twist_values(self):
        assert signature_from_diagram(double_twist_diagram(2, 3)) == 2
        assert signature_from_diagram(double_twist_diagram(2, 2)) == 0

    def test_sign_agrees_with_extreme_degree(self, fixture_diagrams,
                                             table_polys):
        """Positive signature pairs with positive extreme Jones degree,
        so the two mirror-selection rules agree on chiral fixtures."""
        for name, d in fixture_diagrams.items():
            sigma = signature_from_diagram(d)
            p = table_polys[name]
            if sigma > 0:
                assert abs(p.max_exp4()) > abs(p.min_exp4())

    def test_multi_component_rejected(self):
        with pytest.raises(Unsupported):
            signature_from_diagram(parse_pd("X(1,3,2,4) X(3,1,4,2)"))
