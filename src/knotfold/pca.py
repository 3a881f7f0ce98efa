"""Principal component analysis built from streaming covariance moments.

Covariance accumulation is done here from scratch; the eigensolve is
LAPACK's (``np.linalg.eigh``).  The covariance product, the eigensolve and
the projection run on one BLAS thread, so results do not depend on the
thread count.  A covariance block or a projection holds at most one float
copy of its matrix at a time: it centers a private copy in place, and
inputs are never modified.  Everything downstream (explained variances,
cumulative shares, dimension estimation, projection) consumes the
resulting eigensystem.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientData, NotSymmetric


class CovarianceAccumulator:
    """Mergeable running moments for a sample covariance matrix.

    Holds the count, the running mean, and the centered second-moment
    matrix; shards accumulated independently merge exactly (up to float
    round-off) in any order.
    """

    def __init__(self, dim):
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros((dim, dim))

    def add(self, row):
        row = np.asarray(row, dtype=float)
        if row.shape != (self.dim,):
            raise DimensionMismatch(
                f"row of length {row.shape} in a {self.dim}-dim accumulator")
        return self.add_block(row[None, :])

    def add_block(self, rows):
        """Accumulate a 2-D block at once, merged like any other shard, so
        a block of one row gives the same bits as ``add``.  A block with no
        rows leaves the accumulator as it is.

        The block is centered in its one private float copy, so the input
        is never modified and no second N x d array is made.
        """
        rows = np.array(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise DimensionMismatch(
                f"block of shape {rows.shape} in a {self.dim}-dim accumulator")
        if not len(rows):
            return self
        other = CovarianceAccumulator(self.dim)
        other.count = rows.shape[0]
        other.mean = rows.mean(axis=0)
        rows -= other.mean
        with _one_blas_thread():
            other.m2 = rows.T @ rows
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
            return self
        return self.merge(other)

    def merge(self, other):
        if other.dim != self.dim:
            raise DimensionMismatch(f"{self.dim} vs {other.dim}")
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
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

    def finalize(self):
        """Sample covariance K = M2 / (n - 1)."""
        if self.count < 2:
            raise InsufficientData(
                f"covariance needs at least 2 rows, have {self.count}")
        k = self.m2 / (self.count - 1)
        k += k.T  # numpy buffers the overlapping k.T: (k + k.T) bit for bit
        k /= 2.0
        return k


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
    skew = k - k.T  # rebound to its max below, so eigh runs without it
    skew = np.abs(skew, out=skew).max(initial=0.0)
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


def project(matrix, mean, es, k):
    """Express centered rows in the first k principal directions.

    The rows are centered in one private float copy; the input is left as
    it is."""
    matrix = np.array(matrix, dtype=float)
    if k > es.dim or matrix.shape[1] != es.dim:
        raise DimensionMismatch(
            f"cannot project shape {matrix.shape} onto {k} of {es.dim} axes")
    matrix -= mean
    with _one_blas_thread():
        return matrix @ es.eigenvectors[:, :k]
