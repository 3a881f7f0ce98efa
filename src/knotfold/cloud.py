"""Jones coefficient point clouds.

Turns a family of knots into rows of integer coefficients: pick one knot
from each mirror pair, read off dense coefficient rows, and zero-pad them
into a family-wide degree window.  A cloud is one record, Cloud: per-row
metadata in id order (ids, norms, class flags, sigma, crossing numbers,
and the degree span of each row, set when the cloud is built) and one
contract for its rows, rows(indices): int64 rows at full width.  align
builds the dataset cloud, which keeps its rows in one matrix, from (id,
min_degree, coefficients, alternating, sigma, crossing_number) rows;
computed records (filtration.record_cloud) come this way.  The
closed-form families (families.family_cloud) keep no matrix: norms come
from closed forms, and rows, which only the projection reads, are
rebuilt from the sparse difference form when read.  Both pick the mirror
image by the one extreme-degree rule, prefers_mirror.  An analysis run
builds one cloud; a filtration step is a set of its rows and a degree
window, with no cloud of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .errors import EmptyFamily
from .laurent import LaurentPolynomial

if TYPE_CHECKING:  # numpy loads in the functions that use it
    import numpy as np

# Rows per float block in row_norms, in the covariance products and in the
# projection: 2 KiB per column.  Kept small because glibc raises its mmap
# threshold to the size of a freed mapped block, which sends later
# mid-size arrays to the fragmenting heap:
# torus <= 2000 (width 2998) peaks at 598 MB with 1024-row blocks and at
# 581 MB with 256-row ones.
NORM_BLOCK_ROWS = 256


@dataclass(frozen=True)
class KnotRecord:
    """One knot with its Jones polynomial and optional metadata."""

    id: str
    crossing_number: int
    jones: LaurentPolynomial
    alternating: bool = None
    sigma: int = None
    s_invariant: int = None
    mirror_applied: bool = False


def mirror_record(r):
    """Mirror a record: invert the Jones variable and negate sigma and s."""
    return replace(
        r,
        jones=r.jones.substitute_inverse(),
        sigma=None if r.sigma is None else -r.sigma,
        s_invariant=None if r.s_invariant is None else -r.s_invariant,
        mirror_applied=not r.mirror_applied,
    )


def canonical_orientation(r):
    """Choose between a knot and its mirror.

    Rule chain, skipping unknown quantities: keep the side with sigma > 0,
    else s > 0, else the extreme Jones degree of largest absolute value
    positive.  A tie on extreme degrees leaves the input unchanged.
    """
    if r.sigma is not None and r.sigma != 0:
        return r if r.sigma > 0 else mirror_record(r)
    if r.s_invariant is not None and r.s_invariant != 0:
        return r if r.s_invariant > 0 else mirror_record(r)
    if r.jones.is_zero():
        return r
    if prefers_mirror(r.jones.min_exp4(), r.jones.max_exp4()):
        return mirror_record(r)
    return r


def prefers_mirror(lo, hi):
    """The extreme-degree rule: True when, of a polynomial spanning degrees
    lo..hi, lo <= hi, the extreme degree of largest absolute value is
    negative.

    A tie |lo| = |hi|, a monomial included, keeps the input.  The rule is
    the same in any unit of degree.  With lo <= hi it is lo + hi < 0 and
    lo != hi, so it takes ints, giving a bool, and integer arrays alike,
    giving a bool array.
    """
    return (lo + hi < 0) & (lo != hi)


@dataclass(frozen=True, eq=False)
class Cloud:
    """What every cloud holds, and what it offers on top of rows(indices).

    Per row, in id order: row_ids, norms, class_flags, sigma_values,
    crossing_numbers and spans, two arrays of each row's lowest and
    highest degree, set when the cloud is built; the rows share the
    degree window min_degree..max_degree, width columns wide.
    rows(indices) returns the rows at the given ascending indices as an
    int64 array of full width.  Callers must not write to what rows
    returns.
    """

    row_ids: tuple
    min_degree: int
    width: int
    norms: np.ndarray
    class_flags: tuple
    sigma_values: tuple
    crossing_numbers: tuple
    spans: tuple

    @property
    def max_degree(self):
        return self.min_degree + self.width - 1

    def row_blocks(self, indices, size=NORM_BLOCK_ROWS):
        """rows() of the ascending indices, size of them at a time."""
        for i in range(0, len(indices), size):
            yield self.rows(indices[i:i + size])


@dataclass(frozen=True, eq=False)
class AlignedCloud(Cloud):
    """A dataset cloud: its rows padded into one shared degree window, in
    one int64 matrix."""

    matrix: np.ndarray

    def rows(self, indices):
        return matrix_rows(self.matrix, indices)


def matrix_rows(matrix, indices):
    """The matrix rows at the ascending indices: a view when they are
    consecutive."""
    if len(indices) and indices[-1] - indices[0] == len(indices) - 1:
        return matrix[indices[0]:indices[-1] + 1]
    return matrix[indices]


def align(rows):
    """Pad (id, min_degree, coefficients, alternating, sigma,
    crossing_number) rows into one cloud, in id order.

    Each row is written into one preallocated int64 matrix; numpy raises
    OverflowError for any coefficient outside int64.  A row spans the
    degrees it is given, from its min_degree on, zero end entries
    included.
    """
    import numpy as np

    rows = sorted(rows, key=lambda row: row[0])
    if not rows:
        raise EmptyFamily("cannot align an empty family")
    lo = min(row[1] for row in rows)
    hi = max(row[1] + len(row[2]) - 1 for row in rows)
    matrix = np.zeros((len(rows), hi - lo + 1), dtype=np.int64)
    for out, (_, start, coeffs, _, _, _) in zip(matrix, rows):
        out[start - lo:start - lo + len(coeffs)] = coeffs
    lows = np.array([row[1] for row in rows], dtype=np.int64)
    return AlignedCloud(
        row_ids=tuple(row[0] for row in rows),
        min_degree=lo,
        width=hi - lo + 1,
        norms=row_norms(matrix),
        class_flags=tuple(row[3] for row in rows),
        sigma_values=tuple(row[4] for row in rows),
        crossing_numbers=tuple(row[5] for row in rows),
        spans=(lows, lows + [len(row[2]) - 1 for row in rows]),
        matrix=matrix,
    )


def row_norms(matrix):
    """The Euclidean norm of each row of an integer matrix, squared and
    summed in float NORM_BLOCK_ROWS rows at a time, so no float copy of the
    whole matrix is made; each row is reduced as it would be in one piece."""
    import numpy as np

    return np.sqrt(np.concatenate([
        np.square(matrix[i:i + NORM_BLOCK_ROWS], dtype=float).sum(axis=1)
        for i in range(0, len(matrix), NORM_BLOCK_ROWS)]))
