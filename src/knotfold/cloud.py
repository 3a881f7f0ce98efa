"""Jones coefficient point clouds.

Turns a family of knots into an integer matrix: pick one knot from each
mirror pair, read off dense coefficient vectors, and zero-pad them into a
family-wide degree window aligned at the q^0 column.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .errors import EmptyFamily
from .laurent import LaurentPolynomial

if TYPE_CHECKING:  # numpy loads in align, its one user
    import numpy as np


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
    lo, hi = r.jones.min_exp4(), r.jones.max_exp4()
    if abs(lo) == abs(hi):
        return r
    extreme = lo if abs(lo) > abs(hi) else hi
    return r if extreme > 0 else mirror_record(r)


@dataclass(frozen=True)
class CoefficientVector:
    """Dense coefficient window of an integer-exponent Laurent polynomial."""

    min_degree: int
    coefficients: tuple

    @property
    def max_degree(self):
        return self.min_degree + len(self.coefficients) - 1


def coeff_vector(p):
    """Dense window of a q-polynomial; raises HalfIntegerExponent."""
    lo, coeffs = p.int_coeffs()
    return CoefficientVector(lo, tuple(coeffs))


@dataclass(frozen=True)
class AlignedCloud:
    """A family of coefficient rows padded into one shared degree window."""

    row_ids: tuple
    matrix: np.ndarray
    q0_column: int
    min_degree: int
    max_degree: int
    norms: np.ndarray
    class_flags: tuple
    sigma_values: tuple

    @property
    def width(self):
        return self.max_degree - self.min_degree + 1

    def subcloud(self, rows, min_degree, max_degree):
        """The given rows, in order, cut to [min_degree, max_degree].

        The window must lie inside this cloud's, and every row must be zero
        outside it; the result then equals aligning those rows alone into
        that window.  The norms are this cloud's: a row's float sum of
        squares is exact, whatever the zero padding, while it stays below
        2^53.
        """
        start = min_degree - self.min_degree
        matrix = self.matrix[rows, start:start + max_degree - min_degree + 1]
        return AlignedCloud(
            row_ids=tuple(self.row_ids[j] for j in rows),
            matrix=matrix,
            q0_column=-min_degree,
            min_degree=min_degree,
            max_degree=max_degree,
            norms=self.norms[rows],
            class_flags=tuple(self.class_flags[j] for j in rows),
            sigma_values=tuple(self.sigma_values[j] for j in rows),
        )


def align(family):
    """Pad a family of (id, CoefficientVector, metadata) into a cloud.

    Metadata is a mapping; keys ``alternating`` and ``sigma`` are carried
    through per row when present.  Each row is written into one
    preallocated int64 matrix; numpy raises OverflowError for any
    coefficient outside int64.
    """
    import numpy as np

    family = list(family)
    if not family:
        raise EmptyFamily("cannot align an empty family")
    lo = min(cv.min_degree for _, cv, _ in family)
    hi = max(cv.max_degree for _, cv, _ in family)
    matrix = np.zeros((len(family), hi - lo + 1), dtype=np.int64)
    for row, (_, cv, _) in zip(matrix, family):
        start = cv.min_degree - lo
        row[start:start + len(cv.coefficients)] = cv.coefficients
    return AlignedCloud(
        row_ids=tuple(rid for rid, _, _ in family),
        matrix=matrix,
        q0_column=-lo,
        min_degree=lo,
        max_degree=hi,
        norms=np.sqrt((matrix.astype(float) ** 2).sum(axis=1)),
        class_flags=tuple(meta.get("alternating") for _, _, meta in family),
        sigma_values=tuple(meta.get("sigma") for _, _, meta in family),
    )
