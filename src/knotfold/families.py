"""Closed-form Jones generators for torus and double twist families.

Torus knots use the classical closed form with an exact synthetic division.
Double twist knots C(m, n) take their writhe and Kauffman bracket from
closed forms in m, n and their parities, at O(m + n) integer operations
per member.  The diagram builders (torus_diagram, double_twist_diagram) are
test oracles for these closed forms; no production path calls them.
"""

from __future__ import annotations

from math import gcd

from .bracket import bracket_to_jones
from .diagrams import PlanarDiagram, from_even_under
from .errors import NotAKnot
from .laurent import QUARTER, LaurentPolynomial


def torus_crossing_number(m, n):
    """Crossing number of the (m,n) torus knot: min(m(n-1), n(m-1))."""
    return min(m * (n - 1), n * (m - 1))


def jones_torus(m, n):
    """Jones polynomial of the (m,n) torus knot.

    J = q^((m-1)(n-1)/2) (1 - q^(m+1) - q^(n+1) + q^(m+n)) / (1 - q^2),
    with the division required to be exact.
    """
    if m < 2 or n < 2:
        raise NotAKnot(f"torus parameters must be >= 2, got ({m}, {n})")
    if gcd(m, n) != 1:
        raise NotAKnot(f"T({m},{n}) is a link, not a knot (gcd > 1)")
    num = LaurentPolynomial({0: 1, 4 * (m + 1): -1, 4 * (n + 1): -1,
                             4 * (m + n): 1}, "q")
    den = LaurentPolynomial({0: 1, 8: -1}, "q")
    quot = num.exact_div(den)
    return quot.shift4(2 * (m - 1) * (n - 1))


def torus_members(max_crossings):
    """Coprime (m, n), 2 <= m < n, with crossing number <= max_crossings."""
    out = []
    m = 2
    while (m + 1) * (m - 1) <= max_crossings:
        n = m + 1
        while n * (m - 1) <= max_crossings:
            if gcd(m, n) == 1:
                out.append((m, n))
            n += 1
        m += 1
    return sorted(out, key=lambda mn: (torus_crossing_number(*mn), mn))


def torus_diagram(n):
    """Standard diagram of the (2, n) torus knot/link: closed 2-braid."""
    crossings = []
    t = [2 * j + 1 for j in range(n)]  # top arc entering crossing j
    b = [2 * j + 2 for j in range(n)]
    for j in range(n):
        tn, bn = t[(j + 1) % n], b[(j + 1) % n]
        crossings.append(_h_crossing(t[j], b[j], tn, bn))
    return PlanarDiagram(tuple(crossings))


def _h_crossing(t, b, t_out, b_out):
    """One positive crossing in a horizontal twist region.

    Strands run west to east; the bottom-west strand passes under.  CCW
    from the incoming under-strand: (WB, EB, ET, WT).
    """
    return (b, b_out, t_out, t)


def _v_crossing(l, r, l_out, r_out):
    """One crossing in a vertical twist region (strands run north to south).

    The north-east strand passes under; CCW from it: (NR, NL, SL, SR).
    """
    return (r, l, l_out, r_out)


def double_twist_diagram(m, n):
    """Diagram of the positive double twist knot/link with m + n crossings.

    Numerator closure of the tangle sum of a horizontal region with m
    crossings and a vertical region with n crossings (two-bridge link
    C(m, n), fraction m + 1/n).
    """
    if m < 0 or n < 0:
        raise ValueError("twist parameters must be nonnegative")
    if m == 0 and n == 0:
        return PlanarDiagram(())
    labels = iter(range(1, 10 * (m + n) + 10))
    parent = {}

    def fresh():
        lab = next(labels)
        parent[lab] = lab
        return lab

    def resolve(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def merge(x, y):
        rx, ry = resolve(x), resolve(y)
        if rx != ry:
            parent[rx] = ry

    wt, wb = fresh(), fresh()
    t, b = wt, wb
    h_crossings = []
    for _ in range(m):
        tn, bn = fresh(), fresh()
        h_crossings.append((t, b, tn, bn))
        t, b = tn, bn
    et, eb = t, b

    nl, nr = fresh(), fresh()
    l, r = nl, nr
    v_crossings = []
    for _ in range(n):
        ln, rn = fresh(), fresh()
        v_crossings.append((l, r, ln, rn))
        l, r = ln, rn
    sl, sr = l, r

    # Tangle sum: east side of H meets west side of V; numerator closure
    # joins the outer corners top-to-top and bottom-to-bottom.
    merge(et, nl)
    merge(eb, sl)
    merge(wt, nr)
    merge(wb, sr)

    crossings = []
    for t, b, tn, bn in h_crossings:
        crossings.append(_h_crossing(resolve(t), resolve(b),
                                     resolve(tn), resolve(bn)))
    for l, r, ln, rn in v_crossings:
        crossings.append(_v_crossing(resolve(l), resolve(r),
                                     resolve(ln), resolve(rn)))
    used = sorted({lab for cr in crossings for lab in cr})
    relab = {lab: i + 1 for i, lab in enumerate(used)}
    return from_even_under(tuple(tuple(relab[lab] for lab in cr)
                                 for cr in crossings))


def double_twist_is_knot(m, n):
    """C(m, n) is a knot iff its two-bridge determinant m*n + 1 is odd."""
    return (m * n) % 2 == 0


def double_twist_members(max_crossings):
    """Unordered twist parameter pairs giving knots with m + n crossings."""
    out = []
    for m in range(1, max_crossings):
        for n in range(m, max_crossings - m + 1):
            if double_twist_is_knot(m, n):
                out.append((m, n))
    return sorted(out, key=lambda mn: (mn[0] + mn[1], mn))


def double_twist_bracket(m, n):
    """Kauffman bracket of double_twist_diagram(m, n), in closed form.

    The regions unroll to A^m [h] + b [v] and c [h] + A^-n [v], with b and c
    alternating series in A^4, and the delta = -A^2 - A^-2 products of the
    closure telescope.  Every term lies on A^(-3m-n+4i), i = 0..m+n, with
    coefficient (-1)^(m+i) min(m, n, i, m+n-i), plus (-1)^m at i = 0, plus
    (-1)^n at i = m+n, minus 1 at i = m.  Only the tests build the diagram.
    """
    coeffs = [min(m, n, i, m + n - i) * (-1 if (m + i) % 2 else 1)
              for i in range(m + n + 1)]
    coeffs[0] += -1 if m % 2 else 1
    coeffs[m + n] += -1 if n % 2 else 1
    coeffs[m] -= 1
    return LaurentPolynomial({QUARTER * (4 * i - 3 * m - n): c
                              for i, c in enumerate(coeffs)}, "A")


def double_twist_writhe(m, n):
    """Writhe of double_twist_diagram(m, n), in closed form.

    The strand orientations depend only on the parities of m and n:
    -(m + n) if m is odd, m + n if m is even and n odd, and n - m if both
    are even.  Only the tests build the diagram.
    """
    if m % 2:
        return -(m + n)
    if n % 2:
        return m + n
    return n - m


def jones_double_twist(m, n):
    """Jones polynomial of the positive double twist knot C(m, n)."""
    if m < 0 or n < 0:
        raise ValueError("twist parameters must be nonnegative")
    return bracket_to_jones(double_twist_bracket(m, n), double_twist_writhe(m, n))
