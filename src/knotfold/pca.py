"""Principal component analysis built from streaming covariance moments.

Covariance accumulation is done here from scratch; the eigensolve is
LAPACK's (``np.linalg.eigh``).  Knot clouds are integer matrices, and for
integer rows the accumulator keeps the exact raw moments N, s = sum x and
S = sum x x^T.  Each block of rows is multiplied in one float copy, no
larger than S, which is exact while max|x|^2 * rows < 2^53, and K =
(N S - s s^T) / (N (N - 1)) is formed once in int64.  So K has the same
bits for any block size, merge order or BLAS thread count, and a bound
that fails raises MomentOverflow instead of rounding.  Rows come in
blocks (add_block): a filtration step, rows plus a degree window with
no cloud of its own, adds the blocks its source cloud reads for it and
takes K of its window's columns (finalize(columns)).  Rows that are
sparse after a fixed difference operator D, as the closed-form families'
are, come as u = D x instead (DifferenceMoments): U = sum u u^T is summed
in int64 by scatter-adds, with no row product, and S = D^-1 U D^-T of a
window comes from integer prefix passes; centered_numerator forms K's
numerator from either kind of moments.  Float rows keep centered
moments.  Their product, the eigensolve and the projection run on one
BLAS thread, so results do not depend on the thread count.  The
projection centers and multiplies one block of rows of a cloud at a
time.  Inputs are never modified.
Everything downstream (explained variances, cumulative shares, dimension
estimation, projection) consumes the resulting eigensystem.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass

import numpy as np

from .cloud import NORM_BLOCK_ROWS
from .errors import (DimensionMismatch, InsufficientData, MomentOverflow,
                     NotSymmetric)

FLOAT_EXACT = 2 ** 53  # float64 holds every integer of smaller magnitude
INT64_LIMIT = 2 ** 63


class CovarianceAccumulator:
    """Mergeable running moments for a sample covariance matrix.

    Integer rows keep the count N, the int64 column sums s and the exact
    products S = sum x x^T: a float sum while every partial sum stays
    below 2^53, int64 past that.  ``bound`` is a running upper bound on
    every |S_ij|.  An integer product takes ``block_rows`` rows at a time:
    NORM_BLOCK_ROWS, or dim when that is more, so the float copy of a block
    is never larger than S and a wide product does not run as many thin
    ones (torus <= 2000, width 2998, on 2 vCPUs with OpenBLAS: 1.7 s in
    256-row blocks, 0.6 s in 2998-row ones).  Float rows keep the running
    mean and the centered second-moment matrix m2.  The first block with
    rows fixes the kind, and rows of the other kind are refused.  Integer
    shards merge exactly in any order, float shards up to round-off.
    """

    def __init__(self, dim):
        self.dim = dim
        self.block_rows = max(NORM_BLOCK_ROWS, dim)
        self.count = 0
        self.integer = None  # the kind of the rows held; None while empty
        self.mean = np.zeros(dim)

    def add_block(self, rows):
        """Accumulate a 2-D block at once.  A block with no rows leaves the
        accumulator as it is.

        An integer block is multiplied block_rows rows at a time, each in
        one float copy, and MomentOverflow is raised for a part whose
        product could round.  A float block is centered in its one private
        float copy and merged like any other shard.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise DimensionMismatch(
                f"block of shape {rows.shape} in a {self.dim}-dim accumulator")
        if not len(rows):
            return self
        if rows.dtype.kind in "biu":
            self._check_kind(True)
            for i in range(0, len(rows), self.block_rows):
                part = rows[i:i + self.block_rows]
                peak = max(int(part.max()), -int(part.min()))
                bound = peak * peak * len(part)
                if bound >= FLOAT_EXACT:
                    raise MomentOverflow(
                        f"{len(part)} rows with an entry of magnitude {peak}: "
                        "their products could round in float64")
                part_sum = part.sum(axis=0, dtype=np.int64)
                part = part.astype(float)
                self._add_exact(len(part), part_sum, part.T @ part, bound)
            return self
        other = CovarianceAccumulator(self.dim)
        rows = np.array(rows, dtype=float)
        other.count, other.integer = len(rows), False
        other.mean = rows.mean(axis=0)
        rows -= other.mean
        with _one_blas_thread():
            other.m2 = rows.T @ rows
        if self.count == 0:
            self.count, self.integer = other.count, False
            self.mean, self.m2 = other.mean, other.m2
            return self
        return self.merge(other)

    def _check_kind(self, integer):
        if self.integer is not None and self.integer != integer:
            raise DimensionMismatch(
                f"{'integer' if integer else 'float'} rows in an accumulator "
                f"of {'integer' if self.integer else 'float'} rows")

    def _add_exact(self, count, total, raw, bound):
        """Fold in integer moments, taking ownership of total and raw."""
        if self.count == 0:
            self.total, self.raw, self.bound = total, raw, bound
            self.integer = True
        else:
            bound += self.bound
            if bound >= INT64_LIMIT:
                raise MomentOverflow("the products of the rows overflow int64")
            if bound >= FLOAT_EXACT:  # a float sum could round
                self.raw = self.raw.astype(np.int64, copy=False)
                raw = raw.astype(np.int64, copy=False)
            self.raw += raw
            self.total += total
            self.bound = bound
        self.count += count
        self.mean = self.total / self.count

    def merge(self, other):
        if other.dim != self.dim:
            raise DimensionMismatch(f"{self.dim} vs {other.dim}")
        if other.count == 0:
            return self
        self._check_kind(other.integer)
        if other.integer:
            self._add_exact(other.count, other.total.copy(), other.raw.copy(),
                            other.bound)
            return self
        if self.count == 0:
            self.count, self.integer = other.count, False
            self.mean = other.mean.copy()
            self.m2 = other.m2.copy()
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self.m2 = (self.m2 + other.m2
                   + np.outer(delta, delta) * (self.count * other.count / total))
        self.mean = self.mean + delta * (other.count / total)
        self.count = total
        return self

    def finalize(self, columns=slice(None)):
        """Sample covariance of the given columns (a slice; all of them by
        default).

        Integer rows: K = (N S - s s^T) / (N (N - 1)), the numerator exact
        in int64 (centered_numerator), so K is exactly symmetric.  Float
        rows: (K + K^T) / 2 of K = M2 / (n - 1).
        """
        n = self.count
        if n < 2:
            raise InsufficientData(
                f"covariance needs at least 2 rows, have {n}")
        if not self.integer:
            k = self.m2[columns, columns] / (n - 1)
            k += k.T  # numpy buffers the overlapping k.T: (k + k.T) bit for bit
            k /= 2.0
            return k
        return centered_numerator(self, columns)[0] / (n * (n - 1))

    def window(self, columns):
        """The exact int64 S and s of the given columns (a slice), S as a
        fresh array."""
        return self.raw[columns, columns].astype(np.int64), \
            self.total[columns]


class DifferenceMoments:
    """Exact moments of integer rows given in a difference form.

    Each row x comes as u = D x, D a fixed polynomial d0 + d1 q + d2 q^2 in
    the column shift, which is sparse where x is dense.  The count N, the
    int64 sums U = sum u u^T and sum u are kept dim + 2 columns wide, as u
    runs two columns past x, and S = D^-1 U D^-T and s = D^-1 sum u of a
    window come from undo, D^-1 as in-place integer differences and
    prefix passes down the columns of an array.  ``bound`` is the sum of each row's max |x|
    squared, so it bounds every |S_ij| as CovarianceAccumulator's does,
    and spread^2 * bound, spread = |d0| + |d1| + |d2|, bounds every
    intermediate of U and of the passes.
    """

    def __init__(self, dim, undo, spread):
        self.dim, self.undo, self.spread = dim, undo, spread
        self.count = self.bound = 0
        self.raw = np.zeros((dim + 2, dim + 2), dtype=np.int64)
        self.total = np.zeros(dim + 2, dtype=np.int64)

    def add(self, columns, values, peaks):
        """Fold in rows given as u: row i has values[i] summed into
        columns[i] (repeats add up), and peaks[i] bounds its |x|.
        MomentOverflow is raised, with nothing folded in, when the sums
        could leave int64."""
        bound = self.bound + sum(p * p for p in peaks.tolist())
        if self.spread ** 2 * bound >= INT64_LIMIT:
            raise MomentOverflow(
                f"{self.count + len(peaks)} rows with max |x| up to "
                f"{int(peaks.max())}: their difference moments overflow int64")
        width = self.dim + 2
        np.add.at(self.raw.reshape(-1),
                  (columns[:, :, None] * width + columns[:, None, :]).ravel(),
                  (values[:, :, None] * values[:, None, :]).ravel())
        np.add.at(self.total, columns.ravel(), values.ravel())
        self.count += len(peaks)
        self.bound = bound
        return self

    def window(self, columns):
        """The exact int64 S and s of the given columns (a slice) and of
        the two columns past them, S as a fresh array.  Every row must be
        zero outside the given columns, and then the two past them come
        out zero."""
        start, stop, _ = columns.indices(self.dim)
        part = slice(start, stop + 2)
        raw, total = self.raw[part, part].copy(), self.total[part].copy()
        self.undo(raw)
        self.undo(raw.T)
        self.undo(total)
        return raw, total


def centered_numerator(acc, columns):
    """(N S - s s^T, s) of the given columns (a slice) of an integer
    accumulator's rows, in int64.

    Every intermediate is at most N * bound in magnitude (Cauchy-Schwarz
    bounds |s_i s_j| and |N S_ij - s_i s_j| by it), so it is exact and
    exactly symmetric; MomentOverflow is raised when that bound reaches
    2^63."""
    n = acc.count
    if n * acc.bound >= INT64_LIMIT:
        raise MomentOverflow(
            f"N S of {n} rows overflows int64 (|S_ij| up to {acc.bound})")
    k, total = acc.window(columns)
    k *= n
    for i in range(0, len(k), NORM_BLOCK_ROWS):
        k[i:i + NORM_BLOCK_ROWS] -= np.multiply.outer(
            total[i:i + NORM_BLOCK_ROWS], total)
    return k, total


@dataclass(frozen=True)
class EigenSystem:
    """Descending eigenpairs with normalized and cumulative variances."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i is v_i
    normalized: np.ndarray
    cumulative: np.ndarray

    @property
    def dim(self):
        return len(self.eigenvalues)


@functools.cache
def _blas_thread_setters():
    """``openblas_set_num_threads_local`` of each OpenBLAS mapped into the
    process, numpy's among them; empty where there is none."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip()
                            for line in fh if "openblas" in line})
    except OSError:
        return ()
    setters = []
    for path in paths:
        try:
            fn = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
        setters.append(fn)
    return tuple(setters)


_BLAS_PIN = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS to one thread for the body.

    The covariance product and the eigensolve change in the last bits with
    the BLAS thread count, and that survives the report's rounding.  The
    lock keeps concurrent callers from restoring each other's setting.
    """
    setters = _blas_thread_setters()
    with _BLAS_PIN:
        previous = [set_threads(1) for set_threads in setters]
        try:
            yield
        finally:
            for set_threads, count in zip(setters, previous):
                set_threads(count)


def sym_eig(k):
    """Orthonormal eigensystem of a symmetric matrix, descending order.

    The eigenvector sign convention makes the entry of largest absolute
    value positive (ties broken by lowest index) so outputs are
    deterministic.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise NotSymmetric(f"matrix shape {k.shape} is not square")
    if not np.isfinite(k).all():
        raise NotSymmetric("matrix has a non-finite entry")
    n = k.shape[0]
    scale = max(1.0, k.max(initial=0.0), -k.min(initial=0.0))
    skew = max((np.abs(k[i:i + NORM_BLOCK_ROWS]  # a block of rows at a time
                       - k[:, i:i + NORM_BLOCK_ROWS].T).max()
                for i in range(0, n, NORM_BLOCK_ROWS)), default=0.0)
    if skew > 1e-9 * scale:
        raise NotSymmetric("matrix is not symmetric within 1e-9 relative")
    if skew:  # an exactly symmetric K is its own symmetrization
        k = (k + k.T) / 2.0
    with _one_blas_thread():
        lam, vec = np.linalg.eigh(k)  # eigh works on a copy of k
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    vec = vec[:, order]
    if n:  # argmax refuses an empty axis
        vec[:, vec[np.abs(vec).argmax(axis=0), np.arange(n)] < 0] *= -1
    total = lam.sum()
    normalized = lam / total if total > 0 else np.zeros(n)
    return EigenSystem(lam, vec, normalized, np.cumsum(normalized))


def dimension_estimate(normalized, threshold=0.95):
    """Smallest k whose cumulative explained variance reaches the threshold."""
    reached = np.flatnonzero(np.cumsum(normalized) >= threshold)
    return int(reached[0]) + 1 if len(reached) else len(normalized)


def project(cloud, mean, es, k, rows=None, columns=slice(None)):
    """Express centered rows in the first k principal directions: the given
    columns (a slice; all of them by default) of every row of the cloud,
    or of the given ascending row indices, read through its rows(indices).

    NORM_BLOCK_ROWS rows at a time are read, centered in a private float
    copy and multiplied, so the input is left as it is and no float copy
    of the whole matrix is made."""
    if k > es.dim or len(range(cloud.width)[columns]) != es.dim:
        raise DimensionMismatch(
            f"cannot project {cloud.width} columns, cut to {columns}, onto "
            f"{k} of {es.dim} axes")
    if rows is None:
        rows = np.arange(len(cloud.row_ids))
    axes = es.eigenvectors[:, :k]
    out = np.empty((len(rows), k))
    with _one_blas_thread():
        for i in range(0, len(rows), NORM_BLOCK_ROWS):
            block = cloud.rows(rows[i:i + NORM_BLOCK_ROWS])[:, columns]
            np.matmul(block - mean, axes, out=out[i:i + NORM_BLOCK_ROWS])
    return out
