"""Closed-form Jones generators for torus and double twist families.

Torus knots use the classical closed form, whose exact division by
1 - q^2 is a stride-2 prefix sum.  Double twist knots C(m, n) take their
writhe and Kauffman bracket from closed forms in m, n and their parities.
Both build their q-exponent dicts directly, at O(m + n) integer operations
per member.  The diagram builders (torus_diagram, double_twist_diagram) are
test oracles for these closed forms; no production path calls them.
"""

from __future__ import annotations

from math import gcd

from .diagrams import PlanarDiagram, from_even_under
from .errors import InexactDivision, NotAKnot
from .laurent import QUARTER, LaurentPolynomial


def torus_crossing_number(m, n):
    """Crossing number of the (m,n) torus knot: min(m(n-1), n(m-1))."""
    return min(m * (n - 1), n * (m - 1))


def jones_torus(m, n):
    """Jones polynomial of the (m,n) torus knot.

    J = q^((m-1)(n-1)/2) (1 - q^(m+1) - q^(n+1) + q^(m+n)) / (1 - q^2).
    The quotient of P / (1 - q^2) is the stride-2 prefix sum
    Q_k = P_k + Q_(k-2); the division is exact iff the two sums past the
    quotient's degree m + n - 2 vanish, and InexactDivision is raised
    otherwise.
    """
    if m < 2 or n < 2:
        raise NotAKnot(f"torus parameters must be >= 2, got ({m}, {n})")
    if gcd(m, n) != 1:
        raise NotAKnot(f"T({m},{n}) is a link, not a knot (gcd > 1)")
    top = m + n
    quot = [0] * (top + 1)
    quot[0] = quot[top] = 1
    quot[m + 1] -= 1
    quot[n + 1] -= 1
    for k in range(2, top + 1):
        quot[k] += quot[k - 2]
    if quot[top - 1] or quot[top]:
        raise InexactDivision(f"T({m},{n}) numerator not divisible by 1 - q^2")
    shift = 2 * (m - 1) * (n - 1)  # q^((m-1)(n-1)/2) in quarter units
    return LaurentPolynomial._trusted(
        {shift + QUARTER * k: c for k, c in enumerate(quot[:top - 1]) if c},
        "q")


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


def _double_twist_coeffs(m, n):
    """Bracket coefficients of double_twist_diagram(m, n) on A^(4i - 3m - n).

    The regions unroll to A^m [h] + b [v] and c [h] + A^-n [v], with b and c
    alternating series in A^4, and the delta = -A^2 - A^-2 products of the
    closure telescope.  Entry i, i = 0..m+n, is (-1)^(m+i) min(m, n, i,
    m+n-i), plus (-1)^m at i = 0, plus (-1)^n at i = m+n, minus 1 at i = m.
    Entries may be zero.
    """
    k = min(m, n)  # min(m, n, i, m+n-i) ramps up to k, stays, ramps down
    coeffs = [*range(k), *[k] * (m + n + 1 - 2 * k), *range(k - 1, -1, -1)]
    coeffs[1 - m % 2::2] = [-c for c in coeffs[1 - m % 2::2]]  # m + i odd
    coeffs[0] += -1 if m % 2 else 1
    coeffs[m + n] += -1 if n % 2 else 1
    coeffs[m] -= 1
    return coeffs


def double_twist_bracket(m, n):
    """Kauffman bracket of double_twist_diagram(m, n), in closed form.

    See _double_twist_coeffs for the formula.  Only the tests build the
    diagram.
    """
    return LaurentPolynomial._trusted(
        {QUARTER * (4 * i - 3 * m - n): c
         for i, c in enumerate(_double_twist_coeffs(m, n)) if c}, "A")


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
    """Jones polynomial of the positive double twist knot C(m, n).

    bracket_to_jones of the closed-form bracket and writhe, written out:
    (-A^3)^(-w) <D> with q = A^-4 puts bracket entry i on the stored
    q-exponent 3w + 3m + n - 4i with sign (-1)^w.
    """
    if m < 0 or n < 0:
        raise ValueError("twist parameters must be nonnegative")
    w = double_twist_writhe(m, n)
    sign = -1 if w % 2 else 1
    top = 3 * w + 3 * m + n
    return LaurentPolynomial._trusted(
        {top - 4 * i: sign * c
         for i, c in enumerate(_double_twist_coeffs(m, n)) if c}, "q")
