"""Slow reference implementations that the tests compare the library against.

None of these runs on a production path: the package evaluates the bracket
by its sweep alone, has no polynomial division or skein check, builds
family clouds without a polynomial or record per member, sets row spans
when a cloud is built instead of scanning its rows, never cuts a
filtration step into a cloud of its own, and feeds the accumulator whole
blocks, not single rows.  Family moments on the production path come
from the rows' difference form; the dense product of the rows
(family_spectrum) is their oracle.  Family clouds are built from whole
arrays; family_fields builds the same fields one member at a time, and
write_csv_per_value writes the report files one value at a time.
"""

from math import gcd

import numpy as np

from knotfold.cloud import AlignedCloud, align
from knotfold.errors import InexactDivision, KnotfoldError, VariableMismatch
from knotfold.families import _CLOSED_FORMS, double_twist_writhe
from knotfold.filtration import FiltrationStep, StepSpectrum
from knotfold.laurent import QUARTER, LaurentPolynomial
from knotfold.pca import CovarianceAccumulator, dimension_estimate, sym_eig

STATESUM_CAP = 24

# Smoothing of a crossing (slots 0..3, CCW from the incoming under-strand):
# the A-smoothing joins slots (0,1) and (2,3), the B-smoothing (0,3), (1,2).
_A_PAIRS = ((0, 1), (2, 3))
_B_PAIRS = ((0, 3), (1, 2))


class CapExceeded(KnotfoldError):
    """A diagram has more crossings than the state sum enumerates."""


def shift(p, exp4):
    """p times var**(exp4/4)."""
    return LaurentPolynomial({e + exp4: c for e, c in p.terms.items()}, p.var)


def bracket_statesum(d):
    """Kauffman bracket by the exhaustive sum over all 2^n smoothings,
    0-crossing unknot normalized to 1."""
    n = d.n
    if n > STATESUM_CAP:
        raise CapExceeded(
            f"{n} crossings exceeds the state-sum cap {STATESUM_CAP}")
    delta = LaurentPolynomial({8: -1, -8: -1}, "A")  # -A^2 - A^-2
    if n == 0:
        out = LaurentPolynomial.one("A")
        for _ in range(len(d.orientation[0]) - 1):
            out = out * delta
        return out
    mate = d.dart_mate
    arc_edges = [(a, b) for a, b in mate.items() if a < b]
    darts = [(ci, s) for ci in range(n) for s in range(4)]
    index = {dart: i for i, dart in enumerate(darts)}

    total = LaurentPolynomial.zero("A")
    delta_pows = {0: LaurentPolynomial.one("A")}

    for state in range(1 << n):
        parent = list(range(4 * n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
                return True
            return False

        loops = 4 * n  # darts; each union of distinct sets merges two
        for a, b in arc_edges:
            if union(index[a], index[b]):
                loops -= 1
        n_a = 0
        for ci in range(n):
            use_a = not (state >> ci) & 1
            n_a += use_a
            for s1, s2 in (_A_PAIRS if use_a else _B_PAIRS):
                if union(index[(ci, s1)], index[(ci, s2)]):
                    loops -= 1
        k = loops - 1
        if k not in delta_pows:
            p = delta_pows[max(delta_pows)]
            for j in range(max(delta_pows), k):
                p = p * delta
                delta_pows[j + 1] = p
        total = total + shift(delta_pows[k], 4 * (2 * n_a - n))  # A^(n_a - n_b)
    return total


def exact_div(p, divisor):
    """p / divisor by synthetic division; raises InexactDivision on any
    remainder."""
    if p.var != divisor.var:
        raise VariableMismatch(f"{p.var} vs {divisor.var}")
    if divisor.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return LaurentPolynomial.zero(p.var)
    # factor out monomials so both operands have min exponent 0, then run
    # ordinary long division, which terminates when the remainder degree
    # drops below the divisor degree
    offset = min(p.terms) - min(divisor.terms)
    div = {e - min(divisor.terms): c for e, c in divisor.terms.items()}
    rem = {e - min(p.terms): c for e, c in p.terms.items()}
    lead = max(div)
    lead_c = div[lead]
    quot = {}
    while rem:
        e = max(rem)
        c = rem[e]
        if e < lead or c % lead_c:
            raise InexactDivision(f"{p} not divisible by {divisor}")
        qe, qc = e - lead, c // lead_c
        quot[qe] = qc
        for de, dc in div.items():
            k = qe + de
            s = rem.get(k, 0) - qc * dc
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return LaurentPolynomial({e + offset: c for e, c in quot.items()}, p.var)


def skein_check(jp, jm, j0):
    """Exact test of (q^1/2 - q^-1/2) J0 = q^-1 J+ - q J-."""
    half = LaurentPolynomial({2: 1, -2: -1}, "q")
    qinv = LaurentPolynomial.monomial(1, -1, "q")
    qpos = LaurentPolynomial.monomial(1, 1, "q")
    return half * j0 == qinv * jp - qpos * jm


def row(rid, poly, alternating=None, sigma=None, crossing_number=None):
    """One align row: the polynomial's dense window and the metadata."""
    return (rid, *poly.int_coeffs(), alternating, sigma, crossing_number)


def records_cloud(records):
    """align over each record's row, with its alternating flag, sigma and
    crossing number."""
    return align([row(r.id, r.jones, r.alternating, r.sigma,
                      r.crossing_number) for r in records])


def dense(cloud):
    """Every row of a cloud, read through its rows() at once: the N x width
    matrix that a family cloud never holds."""
    return cloud.rows(np.arange(len(cloud.row_ids)))


def matrix_cloud(matrix):
    """A dataset cloud of an integer matrix's rows, in order, each spanning
    every column from degree 0."""
    return align([(f"r{i:06d}", 0, r.tolist(), None, None, None)
                  for i, r in enumerate(np.asarray(matrix))])


def family_spectrum(cloud):
    """The PCA of a whole cloud from the dense product of its rows, folded
    in one block at a time."""
    acc = CovarianceAccumulator(cloud.width)
    for block in cloud.row_blocks(np.arange(len(cloud.row_ids)),
                                  acc.block_rows):
        acc.add_block(block)
    return sym_eig(acc.finalize())


def row_spans(cloud):
    """Each row's lowest and highest degree with a nonzero entry, scanned
    off its rows, as two arrays; a zero row spans degree 0, as int_coeffs
    reads it."""
    lows, highs = [], []
    for block in cloud.row_blocks(np.arange(len(cloud.row_ids))):
        nonzero = block != 0
        found = nonzero.any(axis=1)
        lows.append(np.where(
            found, nonzero.argmax(axis=1) + cloud.min_degree, 0))
        highs.append(np.where(
            found, cloud.max_degree - nonzero[:, ::-1].argmax(axis=1), 0))
    return np.concatenate(lows), np.concatenate(highs)


def whole_step(label, cloud):
    """The step holding every row of a cloud, in the cloud's window."""
    return FiltrationStep(label, cloud, np.arange(len(cloud.row_ids)),
                          (cloud.min_degree, cloud.max_degree))


def step_cloud(step):
    """A step's rows cut to its degree window, as a dataset cloud of its
    own.

    Every row must be zero outside the window; the result then equals
    aligning those rows alone into that window.  The norms and spans are
    the source's: a row's float sum of squares is exact, whatever the zero
    padding, while it stays below 2^53.
    """
    source, rows = step.source, np.asarray(step.rows, dtype=np.int64)
    min_degree, max_degree = step.degrees
    start, width = min_degree - source.min_degree, max_degree - min_degree + 1
    matrix = source.rows(rows)[:, start:start + width].copy()
    return AlignedCloud(
        row_ids=tuple(source.row_ids[j] for j in rows),
        min_degree=min_degree,
        width=width,
        norms=source.norms[rows],
        class_flags=tuple(source.class_flags[j] for j in rows),
        sigma_values=tuple(source.sigma_values[j] for j in rows),
        crossing_numbers=tuple(source.crossing_numbers[j] for j in rows),
        spans=tuple(s[rows] for s in source.spans),
        matrix=matrix,
    )


def step_spectrum(step, variance_threshold=0.95):
    """The PCA of one step on its own, from its cut cloud's rows."""
    cloud = step_cloud(step)
    acc = CovarianceAccumulator(cloud.width).add_block(cloud.matrix)
    es = sym_eig(acc.finalize())
    lo, hi = step.degrees
    return StepSpectrum(
        label=step.label,
        count=len(step.rows),
        ambient_dim=hi - lo + 1,
        mean=acc.mean,
        eigensystem=es,
        dimension=dimension_estimate(es.normalized, variance_threshold),
        min_degree=lo,
        max_degree=hi,
    )


def add_rows(acc, *rows):
    """Fold rows into an accumulator one at a time, each as a one-row
    block; returns the accumulator."""
    for r in rows:
        acc.add_block(np.asarray(r)[None, :])
    return acc


def assert_same_cloud(got, want, label=None):
    """Two clouds hold the same rows: ids, row bytes and dtype, window,
    norms, class flags, sigma values, crossing numbers and spans."""
    assert got.row_ids == want.row_ids, label
    got_rows, want_rows = dense(got), dense(want)
    assert got_rows.dtype == want_rows.dtype, label
    assert got_rows.shape == want_rows.shape, label
    assert got_rows.tobytes() == want_rows.tobytes(), label
    assert (got.min_degree, got.max_degree) == \
        (want.min_degree, want.max_degree), label
    assert got.norms.tobytes() == want.norms.tobytes(), label
    assert got.class_flags == want.class_flags, label
    assert got.sigma_values == want.sigma_values, label
    assert got.crossing_numbers == want.crossing_numbers, label
    assert len(got.spans) == len(want.spans) == 2, label
    for g, w in zip(got.spans, want.spans):
        assert g.dtype == w.dtype and np.array_equal(g, w), label


def prefers_mirror_branching(lo, hi):
    """The extreme-degree rule written out: a tie |lo| = |hi| keeps the
    input, else the extreme degree of largest absolute value decides."""
    if abs(lo) == abs(hi):
        return False
    return (lo if abs(lo) > abs(hi) else hi) < 0


def torus_pairs(limit):
    """Coprime (m, n), 2 <= m < n, with n (m - 1) <= limit crossings, by
    nested loops."""
    out = []
    m = 2
    while (m + 1) * (m - 1) <= limit:
        n = m + 1
        while n * (m - 1) <= limit:
            if gcd(m, n) == 1:
                out.append((m, n))
            n += 1
        m += 1
    return out


def double_twist_pairs(limit):
    """(m, n), 1 <= m <= n, m + n <= limit, with m n even (a knot), by
    nested loops."""
    return [(m, n) for m in range(1, limit) for n in range(m, limit - m + 1)
            if m * n % 2 == 0]


def family_fields(kind, limit):
    """The fields of family_cloud(kind, limit), built a member at a time:
    the pairs from nested loops, each member's span from its row's lowest
    degree, the mirror rule's branches per member, then the members in id
    order by a key sort.  The norms are np.sqrt of the closed form of
    ||x||^2, as family_cloud takes them."""
    members = []
    for m, n in (torus_pairs if kind == "torus" else double_twist_pairs)(limit):
        if kind == "torus":  # torus_row's lo4 is 2 (m - 1) (n - 1)
            rid, alternating = f"T({m},{n})", m == 2
            crossings = min(m * (n - 1), n * (m - 1))
            lo = (m - 1) * (n - 1) // 2
            hi = lo + m + n - 2
        else:  # double_twist_row's lo4 is 3 w - m - 3 n
            rid, crossings, alternating = f"C({m},{n})", m + n, True
            lo = (3 * double_twist_writhe(m, n) - m - 3 * n) // QUARTER
            hi = lo + m + n
        flip = prefers_mirror_branching(lo, hi)
        members.append((rid, crossings, alternating, m, n, flip,
                        (-hi, -lo) if flip else (lo, hi)))
    members.sort(key=lambda member: member[0])
    rid, crossings, alternating, m, n, flip, span = zip(*members)
    m, n, lows, highs = (np.array(a) for a in (m, n, *zip(*span)))
    return {
        "row_ids": rid, "crossing_numbers": crossings,
        "class_flags": alternating, "sigma_values": (None,) * len(rid),
        "m": m, "n": n, "flip": np.array(flip), "spans": (lows, highs),
        "min_degree": int(lows.min()),
        "width": int(highs.max() - lows.min()) + 1,
        "norms": np.sqrt(_CLOSED_FORMS[kind][2](m, n)),
    }


def write_csv_per_value(path, header, rows):
    """A report file written one value at a time: each float as %.12g
    through an f-string, everything else through str."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")
