"""Closed-form Jones generators for torus and double twist families.

Torus knots use the classical closed form, whose exact division by
1 - q^2 is a stride-2 prefix sum.  Double twist knots C(m, n) take their
writhe and Kauffman bracket from closed forms in m, n and their parities.
Each formula lives in one row function (torus_row, double_twist_row) that
returns a member's dense coefficient list at O(m + n) integer operations;
jones_torus and jones_double_twist wrap those lists as polynomials for the
records that `generate` caches.  family_cloud, whose cloud is what an
analysis runs on, evaluates one other closed form per family, vectorized
over members, and the tests hold it to the row functions: after one fixed
difference operator D, 1 - q^2 for torus rows and (1 + q)^2 for double
twist rows, every row x is sparse, and FamilyCloud.differences writes
u = D x straight from (m, n) (4 entries per torus row, 13 per double
twist row, some of them repeated).  The moments (pca.DifferenceMoments)
are summed from u, FamilyCloud.rows rebuilds rows from u by integer
prefix sums, and the norms come from exact closed forms of ||x||^2.  So
a FamilyCloud keeps each member's parameters and degree span, not a
matrix, and a family's analysis never holds its N x width coefficients at
once; a filtration step reads its rows from this one cloud.

The closed forms are checked against explicit diagrams from one builder,
four_plat_diagram: the numerator closure of the rational tangle
[a1, ..., ak], whose fraction is ak + 1/(a(k-1) + 1/(... + 1/a1)).  Both
families are two-bridge: T(2, n) is the 4-plat [n] (fraction n) and
C(m, n) is [n, m] (fraction m + 1/n).  The builders are test oracles; no
production path calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from math import comb, gcd, isqrt
from typing import TYPE_CHECKING

from .cloud import Cloud, prefers_mirror
from .diagrams import from_even_under
from .errors import InexactDivision, NotAKnot, UnknownFormat
from .laurent import QUARTER, LaurentPolynomial

if TYPE_CHECKING:  # numpy loads in the functions that use it
    import numpy as np


def torus_crossing_number(m, n):
    """Crossing number of the (m,n) torus knot: min(m(n-1), n(m-1))."""
    return min(m * (n - 1), n * (m - 1))


def torus_row(m, n):
    """Jones polynomial of the (m,n) torus knot as (lo4, coefficients).

    Coefficient k sits on the stored exponent lo4 + 4k, that is on
    q^(lo4/4 + k); the first and last are nonzero.
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
    quot[0::2] = accumulate(quot[0::2])
    quot[1::2] = accumulate(quot[1::2])
    if quot[top - 1] or quot[top]:
        raise InexactDivision(f"T({m},{n}) numerator not divisible by 1 - q^2")
    del quot[top - 1:]
    return 2 * (m - 1) * (n - 1), quot  # q^((m-1)(n-1)/2) in quarter units


def jones_torus(m, n):
    """Jones polynomial of the (m,n) torus knot; see torus_row."""
    return _polynomial(*torus_row(m, n))


def _polynomial(lo4, coeffs):
    """The q-polynomial of a (lo4, coefficients) row."""
    return LaurentPolynomial._trusted(
        {lo4 + QUARTER * k: c for k, c in enumerate(coeffs) if c}, "q")


def torus_members(max_crossings):
    """Coprime (m, n), 2 <= m < n, with crossing number <= max_crossings,
    by crossing number, then (m, n)."""
    return sorted(((m, n) for m, ns in _member_ranges("torus", max_crossings)
                   for n in ns if gcd(m, n) == 1),
                  key=lambda mn: (torus_crossing_number(*mn), mn))


def four_plat_diagram(twists):
    """Numerator closure of the rational tangle [a1, ..., ak]: a 4-plat.

    The tangle's fraction is the continued fraction
    ak + 1/(a(k-1) + 1/(... + 1/a1)); its numerator is the determinant of
    the two-bridge knot or link.  The regions alternate so that the last
    one is horizontal: ak twists the east ends, a(k-1) the south ends, and
    so on, starting from the 0 tangle (arcs NW-NE, SW-SE) when k is odd
    and from the infinity tangle (arcs NW-SW, NE-SE) when k is even.  Every
    crossing has its over-strand NW-SE, so with all a_i >= 1 the diagram
    is alternating.  The closure joins NE to NW and SE to SW.
    """
    if any(a < 0 for a in twists):
        raise ValueError("twist parameters must be nonnegative")
    nw, ne, sw, se = (1, 1, 2, 2) if len(twists) % 2 else (1, 2, 1, 2)
    crossings = []
    for i, a in enumerate(twists):
        east = (len(twists) - i) % 2
        for _ in range(a):
            label = 2 * len(crossings) + 3  # fresh: label and label + 1
            # CCW from where the under-strand enters as the region grows:
            # (SW, SE, NE, NW) going east, (NE, NW, SW, SE) going south.
            if east:
                crossings.append((se, label + 1, label, ne))
                ne, se = label, label + 1
            else:
                crossings.append((se, sw, label, label + 1))
                sw, se = label, label + 1
    close = {ne: nw, se: sw}
    return from_even_under(tuple(tuple(close.get(lab, lab) for lab in cr)
                                 for cr in crossings))


def torus_diagram(n):
    """The (2, n) torus knot or link as the 4-plat [n]: a closed 2-braid
    with both strands running the same way, so its writhe is n."""
    return four_plat_diagram([n])


def double_twist_diagram(m, n):
    """The positive double twist knot or link C(m, n): the 4-plat [n, m],
    fraction m + 1/n, with m + n crossings."""
    return four_plat_diagram([n, m])


def double_twist_is_knot(m, n):
    """C(m, n) is a knot iff its two-bridge determinant m*n + 1 is odd."""
    return (m * n) % 2 == 0


def double_twist_members(max_crossings):
    """Unordered twist parameter pairs giving knots with m + n crossings,
    by crossing number, then (m, n)."""
    return sorted(((m, n) for m, ns in
                   _member_ranges("double_twist", max_crossings) for n in ns),
                  key=lambda mn: (mn[0] + mn[1], mn))


def _member_ranges(kind, limit):
    """Each m of a family's (m, n) up to limit crossings, with its range of
    n: torus 2 <= m < n with n (m - 1) <= limit, where the members are the
    n coprime to m; double twist 1 <= m <= n with m + n <= limit, every n
    for even m and the even n for odd m (double_twist_is_knot).  The
    member lists read the ranges a pair at a time, family_cloud as whole
    arrays (_member_arrays)."""
    if kind == "torus":
        return [(m, range(m + 1, limit // (m - 1) + 1))
                for m in range(2, isqrt(limit + 1) + 1)]
    return [(m, range(m + m % 2, limit - m + 1, 1 + m % 2))
            for m in range(1, limit // 2 + 1)]


def _member_arrays(kind, limit):
    """(m, n) of every member of a family up to limit crossings, as int64
    arrays, m-major: _member_ranges expanded by numpy, the torus pairs
    kept where gcd(m, n) = 1."""
    import numpy as np

    ranges = _member_ranges(kind, limit)
    m = np.repeat([m for m, _ in ranges], [len(ns) for _, ns in ranges])
    n = np.concatenate([np.arange(ns.start, ns.stop, ns.step)
                        for _, ns in ranges])
    if kind == "torus":
        coprime = np.gcd(m, n) == 1
        m, n = m[coprime], n[coprime]
    return m, n


def _double_twist_coeffs(m, n, sign=1):
    """sign times the bracket coefficients of double_twist_diagram(m, n),
    entry i on A^(4i - 3m - n).

    The regions unroll to A^m [h] + b [v] and c [h] + A^-n [v], with b and c
    alternating series in A^4, and the delta = -A^2 - A^-2 products of the
    closure telescope.  Entry i, i = 0..m+n, is (-1)^(m+i) min(m, n, i,
    m+n-i), plus (-1)^m at i = 0, plus (-1)^n at i = m+n, minus 1 at i = m.
    Entries may be zero; for m, n >= 1 the two end entries are +-1.
    """
    k = min(m, n)  # min(m, n, i, m+n-i) ramps up to k, stays, ramps down
    coeffs = [*range(k), *[k] * (m + n + 1 - 2 * k), *range(k - 1, -1, -1)]
    flip = (1 - m % 2 + (sign < 0)) % 2  # parity of i where sign (-1)^(m+i) < 0
    coeffs[flip::2] = [-c for c in coeffs[flip::2]]
    coeffs[0] += -sign if m % 2 else sign
    coeffs[m + n] += -sign if n % 2 else sign
    coeffs[m] -= sign
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


def double_twist_row(m, n):
    """Jones polynomial of the positive double twist knot C(m, n) as
    (lo4, coefficients), laid out as torus_row's.

    bracket_to_jones of the closed-form bracket and writhe, written out:
    (-A^3)^(-w) <D> with q = A^-4 puts bracket entry i on the stored
    q-exponent 3w + 3m + n - 4i with sign (-1)^w, so the row is the
    signed bracket list reversed.
    """
    if m < 0 or n < 0:
        raise ValueError("twist parameters must be nonnegative")
    w = double_twist_writhe(m, n)
    coeffs = _double_twist_coeffs(m, n, -1 if w % 2 else 1)
    coeffs.reverse()
    return 3 * w - m - 3 * n, coeffs


def jones_double_twist(m, n):
    """Jones polynomial of C(m, n); see double_twist_row."""
    return _polynomial(*double_twist_row(m, n))


def family_members(kind, limit):
    """(digest, members) of the torus or double twist knots with crossing
    number <= limit.

    Members are (id, crossing_number, alternating, m, n) in generation
    order: by crossing number, then (m, n).
    """
    digest = _family_digest(kind, limit)
    if kind == "torus":
        members = [(f"T({m},{n})", torus_crossing_number(m, n), m == 2, m, n)
                   for m, n in torus_members(limit)]
    else:
        members = [(f"C({m},{n})", m + n, True, m, n)
                   for m, n in double_twist_members(limit)]
    return digest, members


def _family_digest(kind, limit):
    """The digest of a family's knots up to limit crossings, f"{kind}-{limit}",
    raising ValueError or UnknownFormat for a family that has none."""
    if limit < 3:
        raise ValueError("limit must be >= 3")
    if kind not in ("torus", "double_twist"):
        raise UnknownFormat(f"unknown family {kind!r}")
    return f"{kind}-{limit}"


def _torus_differences(m, n):
    """u = (1 - q^2) x of each member's torus_row x, as (entries, values,
    peaks): u is the closed form's numerator, +1 at entry 0, -1 at m + 1
    and at n + 1, +1 at m + n.

    peaks bounds |x|: x takes the stride-2 prefix sums of u, and each
    parity class sums a run of (+1, -1, -1, +1) in order (m + 1 and n + 1
    share a class only when both are even, and then entry 0 is in it
    too), so every entry of x is 0 or +-1.
    """
    import numpy as np

    entries = np.stack([np.zeros_like(m), m + 1, n + 1, m + n], axis=1)
    values = np.broadcast_to(np.array([1, -1, -1, 1]), entries.shape)
    return entries, values, np.ones_like(m)


def _double_twist_differences(m, n):
    """u = (1 + q)^2 x of each member's double_twist_row x, as (entries,
    values, peaks).

    With k = min(m, n), c = m + n and e(i) = (-1)^i, x is e(c) times the
    alternating ramp e(n + j) min(k, j, c - j) plus the corrections e(n)
    at j = 0, e(m) at j = c and -1 at j = n (double_twist_row).  One
    factor 1 + q leaves the ramp's steps, +-1 on 1..k and on c-k+1..c, and
    the second leaves their ends: e(n+1) at j = 1, -e(n+k+1) at k + 1,
    -e(n+c-k+1) at c - k + 1 and e(n+c+1) at c + 1.  Each correction
    becomes (1, 2, 1) times itself from its j on.  Every value is times
    e(c).  peaks bounds |x| by k + 1: the ramp is at most k, and for
    1 <= m, n the corrections fall on distinct entries.
    """
    import numpy as np

    k, c = np.minimum(m, n), m + n
    zero = np.zeros_like(m)
    entries = np.stack([zero + 1, k + 1, c - k + 1, c + 1, zero, zero + 1,
                        zero + 2, c, c + 1, c + 2, n, n + 1, n + 2], axis=1)
    en, em = _sign(n), _sign(m)
    values = np.stack([_sign(n + 1), -_sign(n + k + 1),
                       -_sign(n + c - k + 1), _sign(n + c + 1),
                       en, 2 * en, en, em, 2 * em, em,
                       zero - 1, zero - 2, zero - 1], axis=1)
    values *= _sign(c)[:, None]
    return entries, values, k + 1


def _sign(i):
    """(-1)^i of an integer array."""
    return 1 - 2 * (i & 1)


def _torus_squares(m, n):
    """||x||^2 of each member's torus_row x, 2 <= m < n: the number of its
    nonzero entries, all +-1 (_torus_differences).  With m odd, x is +1 on
    the even entries below m + 1 and -1 on the (m - 1) / 2 entries of one
    parity class from n + 1 on, m in all; with m even, n is odd and the
    same holds with m and n swapped."""
    import numpy as np

    return np.where(m % 2, m, n)


def _double_twist_squares(m, n):
    """||x||^2 of each member's double_twist_row x, 1 <= m, n.

    With k = min(m, n) and c = m + n, the ramp min(k, j, c - j) is k on
    c - 2k + 1 entries and climbs 1..k - 1 at each end, so its squares sum
    to k^2 (c - 2k + 1) + (k - 1) k (2k - 1) / 3.  The corrections
    (_double_twist_differences) put +-1 on the ramp's zeros at j = 0 and
    j = c and turn its k at j = n into k - 1, which adds 2 - 2k + 1.
    """
    import numpy as np

    k, c = np.minimum(m, n), m + n
    return k * k * (c - 2 * k + 1) + (k - 1) * k * (2 * k - 1) // 3 - 2 * k + 3


def _prefix_sums(a, passes):
    """Divide each column of a by (1 - q^2)^passes in place down axis 0:
    passes rounds of stride-2 prefix sums."""
    import numpy as np

    for _ in range(passes):
        for parity in (0, 1):
            np.cumsum(a[parity::2], axis=0, out=a[parity::2])


def _divide(lags, passes, a):
    """Divide each column of a by a difference operator D in place down
    axis 0, where D (1 - q)^lags = (1 - q^2)^passes: lags differences,
    then _prefix_sums.  For the double twist D = (1 + q)^2 (two of each)
    a = D x passes through (1 - q^2)(1 + q) x, (1 - q^2)^2 x and
    (1 - q^2) x, so no entry is larger than 4 max |x|."""
    import numpy as np

    for _ in range(lags):
        # From the end, 16 rows at a time: numpy copies the rows an
        # overlapping subtraction reads, and 256-row copies fragment the
        # heap (cloud.NORM_BLOCK_ROWS): double twist <= 301 peaked 3.8 MB up.
        for stop in range(len(a), 1, -16):
            start = max(stop - 16, 1)
            np.subtract(a[start:stop], a[start - 1:stop - 1],
                        out=a[start:stop])
    _prefix_sums(a, passes)


# Each family's difference operator D = d0 + d1 q + d2 q^2, as its
# coefficients (d0, d1, d2), the closed forms of u = D x and of ||x||^2,
# and the (lags, passes) of the division by D (_divide).  Reversed, each D
# is itself times d2 / d0.
_CLOSED_FORMS = {
    "torus": ((1, 0, -1), _torus_differences, _torus_squares, (0, 1)),
    "double_twist": ((1, 2, 1), _double_twist_differences,
                     _double_twist_squares, (2, 2)),
}


@dataclass(frozen=True, eq=False)
class FamilyCloud(Cloud):
    """The cloud of a closed-form family, holding no matrix.

    Per member, in id order: the closed-form parameters (m, n) and
    ``flip`` where prefers_mirror picks the mirror image.  The closed-form
    row fills the member's span: its entry j sits at degree low + j, or at
    high - j where the member is flipped.  Rows are read from the
    difference form only: moments() sums differences(), and rows(indices)
    rebuilds just those rows from it.
    """

    kind: str
    m: np.ndarray
    n: np.ndarray
    flip: np.ndarray

    def rows(self, indices):
        """The rows at the given indices, rebuilt from differences() as
        _divide would, but with the differences taken on u's few entries,
        then stride-2 prefix sums along each row (numpy's are three times
        faster than with stride 1).  The columns past the width must come
        out zero, or InexactDivision names the first row that does not."""
        import numpy as np

        lags, passes = _CLOSED_FORMS[self.kind][3]
        columns, values, _ = self.differences(indices)
        block = np.zeros((len(indices), self.width + 2 + lags),
                         dtype=np.int64)
        columns += np.arange(0, block.size, block.shape[1])[:, None]
        for lag in range(lags + 1):  # (1 - q)^lags u, on u's entries
            np.add.at(block.reshape(-1), columns + lag,
                      (-1) ** lag * comb(lags, lag) * values)
        _prefix_sums(block.T, passes)
        bad = np.flatnonzero(block[:, self.width:].any(axis=1))
        if len(bad):
            raise InexactDivision(
                f"{self.row_ids[indices[bad[0]]]}: the row does not end "
                "within its span")
        return block[:, :self.width]

    def differences(self, indices):
        """u = D x of the rows at the given indices, D the family's
        difference operator, as (columns, values, peaks): row i of u is
        values[i] summed into columns[i], up to width + 2 columns, and
        peaks[i] bounds every |x| of row i.

        Entry j of a member's u sits in column low + j, low..high being
        the member's span in cloud columns.  Where the member is flipped,
        it sits in column high + 2 - j, times d2 / d0.
        """
        import numpy as np

        (d0, _, d2), closed_form, _, _ = _CLOSED_FORMS[self.kind]
        entries, values, peaks = closed_form(self.m[indices],
                                             self.n[indices])
        lows, highs = (s[indices][:, None] - self.min_degree
                       for s in self.spans)
        flip = self.flip[indices][:, None]
        columns = np.where(flip, highs + 2 - entries, lows + entries)
        if d2 != d0:
            values = np.where(flip, -values, values)
        return columns, values, peaks

    def moments(self):
        """Empty exact moments of this cloud's rows, which differences()
        feeds."""
        from .pca import DifferenceMoments

        coefficients, _, _, division = _CLOSED_FORMS[self.kind]
        return DifferenceMoments(self.width, partial(_divide, *division),
                                 sum(map(abs, coefficients)))


def family_cloud(kind, limit):
    """(digest, cloud): the FamilyCloud of a family.

    A member's row spans q^lo..q^hi, with lo as in torus_row and
    double_twist_row, and q^-hi..q^-lo, reversed, where prefers_mirror
    picks the mirror image.  The norms are np.sqrt of the closed forms of
    ||x||^2, exact integers below 2^53, so they have the bits that
    cloud.row_norms gives the rows; no row is evaluated.  So the cloud's
    rows, norms and metadata equal record_cloud of generate_family's
    canonicalized records, without a polynomial, record or coefficient
    list per member.  Members, spans and the mirror rule are evaluated on
    whole arrays; only the ids are built, and sorted, one at a time.
    """
    import numpy as np

    digest = _family_digest(kind, limit)
    m, n = _member_arrays(kind, limit)
    if kind == "torus":
        # (m - 1) n is torus_crossing_number, as m < n
        name, crossings, alternating = "T", (m - 1) * n, m == 2
        lo, hi = (m - 1) * (n - 1) // 2, m + n - 2
    else:
        name, crossings, alternating = "C", m + n, np.ones_like(m, bool)
        w = np.where(m % 2, -(m + n), np.where(n % 2, m + n, n - m))  # writhe
        lo, hi = 3 * w - m - 3 * n, m + n
        lo //= QUARTER  # double_twist_row's lo4, in whole degrees
    hi += lo
    flip = prefers_mirror(lo, hi)
    lows, highs = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
    ids = [f"{name}({a},{b})" for a, b in zip(m.tolist(), n.tolist())]
    order = np.array(sorted(range(len(ids)), key=ids.__getitem__))
    return digest, FamilyCloud(
        row_ids=tuple(map(ids.__getitem__, order.tolist())),
        min_degree=int(lows.min()),
        width=int(highs.max() - lows.min()) + 1,
        norms=np.sqrt(_CLOSED_FORMS[kind][2](m, n)[order]),
        class_flags=tuple(alternating[order].tolist()),
        sigma_values=(None,) * len(ids),
        crossing_numbers=tuple(crossings[order].tolist()),
        spans=(lows[order], highs[order]),
        kind=kind,
        m=m[order],
        n=n[order],
        flip=flip[order],
    )
