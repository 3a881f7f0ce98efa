"""Nested-family analyses: filtrations, spectra, and stability diagnostics.

A filtration is an increasing sequence of knot sets, here by crossing
number or by coefficient-vector norm.  A step is rows plus a window:
ascending row indices of one cloud (record_cloud's dataset cloud, or
families.family_cloud's, which holds no matrix) and the degree window
those rows span, read off the cloud's spans.  It has no cloud of its
own; its rows are read through the cloud's rows(indices), a block at a
time.  Each step gets its own PCA, from exact integer moments that run
over the steps: a step folds in only the rows it adds.  A family cloud's
rows enter in their sparse difference form, so no family row is read
for the moments, and each family step's moments must keep five Jones
identities exactly (_check_identities).  The diagnostics
compare steps: explained-variance trajectories, principal angles
between consecutive steps, relative spreads, and norm histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cloud import NORM_BLOCK_ROWS, Cloud, align
from .errors import (EmptyFamily, InexactDivision, JonesIdentityFailure,
                     Unsupported, WindowOverflow)
from .families import FamilyCloud
from .pca import (CovarianceAccumulator, centered_numerator,
                  dimension_estimate, sym_eig)

TRACKED_COMPONENTS = 6
PROJECTION_COMPONENTS = 3

CLASS_FILTERS = ("all", "alternating", "nonalternating")


@dataclass(frozen=True, eq=False)
class FiltrationStep:
    """One level of a filtration: a label, ascending row indices of a
    source cloud, and the degree window (min_degree, max_degree) they are
    read in.  Every row must be zero outside the window.  A step has no
    cloud of its own: its rows are read through source.rows(indices)."""

    label: str
    source: Cloud
    rows: np.ndarray
    degrees: tuple


def _window(rows, spans):
    """The degree window (min_degree, max_degree) that the given rows span;
    spans is their cloud's."""
    lows, highs = spans
    return int(lows[rows].min()), int(highs[rows].max())


def record_cloud(records):
    """The cloud of computed records: each record's dense Jones row
    (int_coeffs), aligned once, with its alternating flag, sigma and
    crossing number."""
    return align((r.id, *r.jones.int_coeffs(), r.alternating, r.sigma,
                  r.crossing_number) for r in records)


def _class_rows(cloud, class_filter):
    """Boolean mask of the cloud's rows that pass the class filter.  An
    unknown alternating flag (None) counts as nonalternating."""
    alternating = np.array(cloud.class_flags, dtype=bool)
    if class_filter == "all":
        return np.ones_like(alternating)
    if class_filter == "alternating":
        return alternating
    if class_filter == "nonalternating":
        return ~alternating
    raise ValueError(f"unknown class filter {class_filter!r}")


def crossing_filtration(cloud, k_min, k_max, class_filter="all"):
    """Nested steps of the rows with crossing number <= k, k = k_min..k_max.

    Steps come one at a time, in order, so a caller holds only the step it
    works on.  Each is the subset of the cloud's rows that pass the class
    filter and have crossing number <= k, in the degree window those rows
    span, so its rows read in that window equal aligning that step alone.
    Only the k from the smallest to the largest crossing number of those
    rows are visited (any other would be empty or repeat the last step),
    but a k_min above them all gets one step holding every such row.  A
    cloud with a row that has no crossing number is refused at the call.
    """
    if k_min > k_max:
        raise ValueError(f"k_min {k_min} exceeds k_max {k_max}")
    for rid, c in zip(cloud.row_ids, cloud.crossing_numbers):
        if c is None:
            raise Unsupported(f"row {rid!r} has no crossing number")
    chosen = _class_rows(cloud, class_filter)
    crossings = np.array(cloud.crossing_numbers)
    first, last = k_max + 1, k_max  # no class row, no step
    if chosen.any():
        first = max(k_min, int(crossings[chosen].min()))
        last = min(k_max, max(first, int(crossings[chosen].max())))

    def steps():
        for k in range(first, last + 1):
            rows = np.flatnonzero(chosen & (crossings <= k))
            yield FiltrationStep(str(k), cloud, rows,
                                 _window(rows, cloud.spans))

    return steps()


def norm_filtration(cloud, levels, class_filter="all"):
    """Central-norm subsets doubling in size up to the n rows that pass the
    class filter (EmptyFamily when none does).

    Level i (i = levels-1 .. 0) keeps the ceil(n / 2^i) rows of smallest
    norm (ties broken by row id), in the degree window the n rows span.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    rows = np.flatnonzero(_class_rows(cloud, class_filter))
    if not len(rows):
        raise EmptyFamily("cannot align an empty family")
    degrees = _window(rows, cloud.spans)
    norms, ids = cloud.norms.tolist(), cloud.row_ids
    order = sorted(rows.tolist(), key=lambda j: (norms[j], ids[j]))
    steps = []
    for i in range(levels - 1, -1, -1):
        take = -(-len(order) // (1 << i))  # ceil
        steps.append(FiltrationStep(f"r_{i}", cloud,
                                    np.sort(order[:take]), degrees))
    return steps


@dataclass(frozen=True)
class StepSpectrum:
    """PCA output of one filtration step.  In an eigensystem_trajectory,
    every step but the last holds only its first TRACKED_COMPONENTS
    eigenvector columns."""

    label: str
    count: int
    ambient_dim: int
    mean: np.ndarray
    eigensystem: object
    dimension: int
    min_degree: int
    max_degree: int


def _spectrum(step, k, mean, variance_threshold):
    es = sym_eig(k)
    lo, hi = step.degrees
    return StepSpectrum(
        label=step.label,
        count=len(step.rows),
        ambient_dim=hi - lo + 1,
        mean=mean,
        eigensystem=es,
        dimension=dimension_estimate(es.normalized, variance_threshold),
        min_degree=lo,
        max_degree=hi,
    )


def _tracked(spectrum):
    """The spectrum with only its first TRACKED_COMPONENTS eigenvectors, as
    a copy: a view would keep the full basis alive."""
    es = spectrum.eigensystem
    return replace(spectrum, eigensystem=replace(
        es, eigenvectors=es.eigenvectors[:, :TRACKED_COMPONENTS].copy()))


def eigensystem_trajectory(steps, variance_threshold=0.95):
    """Per-step spectra of the steps holding enough rows for a PCA (one-record
    steps, whose covariance is undefined, are skipped), and the last of
    those steps, or None.

    One accumulator runs over the steps, in their source's columns.  Each
    step folds in only the rows it adds to the step before, so every row
    enters once, and its K is the running moments cut to its degree window.
    That is exact: the moments are integer sums, and every row is zero
    outside its step's window.  A family cloud's rows enter in their sparse
    difference form (FamilyCloud.differences), with no row product, and
    each of its steps is checked (_family_covariance); a dataset cloud's
    rows enter in dense blocks.  A step with another source, or that drops
    a row of the step before, starts the sums again.  The moments are freed
    before the last eigensolve.  Earlier spectra keep TRACKED_COMPONENTS
    eigenvector columns, all the angles read; the last keeps every column,
    for the projection.
    """
    spectra, acc, held, last = [], None, None, None
    usable = (s for s in steps if len(s.rows) >= 2)
    following = next(usable, None)
    while following is not None:
        step, following = following, next(usable, None)
        source, rows = step.source, step.rows
        family = isinstance(source, FamilyCloud)
        if (acc is None or last.source is not source
                or np.count_nonzero(held[rows]) != acc.count):
            acc = (source.moments() if family
                   else CovarianceAccumulator(source.width))
            held = np.zeros(len(source.row_ids), dtype=bool)
        added = rows[~held[rows]]
        if family:
            for i in range(0, len(added), NORM_BLOCK_ROWS):
                acc.add(*source.differences(added[i:i + NORM_BLOCK_ROWS]))
        else:
            for block in source.row_blocks(added, acc.block_rows):
                acc.add_block(block)
        held[rows] = True
        lo, hi = step.degrees
        columns = slice(lo - source.min_degree, hi - source.min_degree + 1)
        k, mean = (_family_covariance(acc, columns, step) if family
                   else (acc.finalize(columns), acc.mean[columns]))
        if following is None:  # the moments go before the last eigensolve
            acc = held = None
        if spectra:
            spectra[-1] = _tracked(spectra[-1])
        spectra.append(_spectrum(step, k, mean, variance_threshold))
        del k
        last = step
    return spectra, last


def _family_covariance(acc, columns, step):
    """K and the mean of the step's window from a family's difference
    moments, checked.  Their int64 N S - s s^T, which runs past the window
    (DifferenceMoments.window), must keep the Jones identities
    (_check_identities), and be zero past the window, or InexactDivision
    names the step.  K is written over it, so a step holds one square
    temporary besides the moments; numpy copies each overlapping block it
    divides."""
    k, total = centered_numerator(acc, columns)
    _check_identities(k, step)
    width = columns.stop - columns.start
    if k[width:].any() or total[width:].any():
        raise InexactDivision(f"step {step.label}: the moments are not "
                              "divisible by the difference operator")
    n = acc.count
    covariance = k.view(np.float64)  # K takes the numerator's place, a
    for i in range(0, len(k), NORM_BLOCK_ROWS):  # block of rows at a time
        np.divide(k[i:i + NORM_BLOCK_ROWS], n * (n - 1),
                  out=covariance[i:i + NORM_BLOCK_ROWS])
    return covariance[:width, :width], total[:width] / n


def _check_identities(numerator, step):
    """Raise JonesIdentityFailure, naming the identity and the step, unless
    the int64 N S - s s^T of columns from the step's lowest degree on
    sends each of five integer vectors exactly to zero.

    Every Jones row x of a knot, in degrees deg from lo on, has V(1) = 1,
    V'(1) = 0, V(w) = 1 with w = e^(2 pi i / 3), and Im V(i) = 0, so x.v is
    one constant over all rows for v = 1, deg - lo, 2 cos(2 pi deg / 3),
    the sign of sin(2 pi deg / 3), and sin(pi deg / 2).  Each such v is a
    null vector of N S - s s^T.  The int64 products may wrap, but a true
    zero stays zero.
    """
    offset = np.arange(len(numerator))  # deg - lo
    deg = offset + step.degrees[0]
    identities = {
        "V(1) = 1": np.ones_like(deg),
        "V'(1) = 0": offset,
        "Re V(w) = 1": np.where(deg % 3, -1, 2),
        "Im V(w) = 0": np.array([0, 1, -1])[deg % 3],
        "Im V(i) = 0": np.array([0, 1, 0, -1])[deg % 4],
    }
    products = numerator @ np.stack(list(identities.values()), axis=1)
    for name, column in zip(identities, products.T):
        if column.any():
            raise JonesIdentityFailure(
                f"step {step.label}: the moments break {name}")


def embed_direction(vec, src_window, dst_window):
    """Zero-pad an eigenvector from a smaller degree window into a larger."""
    slo, shi = src_window
    dlo, dhi = dst_window
    if slo < dlo or shi > dhi:
        raise WindowOverflow(
            f"window [{slo}, {shi}] does not embed in [{dlo}, {dhi}]")
    out = np.zeros(dhi - dlo + 1)
    out[slo - dlo: slo - dlo + len(vec)] = vec
    return out


def angle_trajectory(spectra):
    """Principal angles between consecutive steps, per tracked component.

    theta_{i,j} is the angle between v = v_i(step j+1) and w =
    embed(v_i(step j)) up to sign, in [0, pi/2].  It is computed in the
    chord form 2 asin(|v - s w| / 2) with s = sign(v . w), which stays
    accurate near 0 where arccos |v . w| loses half the digits.  Rows are
    (transition label, component index starting at 1, theta radians).
    """
    out = []
    for prev, cur in zip(spectra, spectra[1:]):
        k = min(TRACKED_COMPONENTS, prev.ambient_dim, cur.ambient_dim)
        for i in range(k):
            v_prev = embed_direction(prev.eigensystem.eigenvectors[:, i],
                                     (prev.min_degree, prev.max_degree),
                                     (cur.min_degree, cur.max_degree))
            v_cur = cur.eigensystem.eigenvectors[:, i]
            s = 1.0 if v_cur @ v_prev >= 0 else -1.0
            chord = float(np.linalg.norm(v_cur - s * v_prev))
            out.append((f"{prev.label}->{cur.label}", i + 1,
                        2.0 * math.asin(min(1.0, chord / 2.0))))
    return out


def relative_spread(values):
    """(max - min) / mean of a per-step series, as a percentage."""
    values = list(values)
    if not values:
        raise ValueError("empty series")
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    return (max(values) - min(values)) / mean * 100.0


def spread_table(spectra):
    """Relative spread of each tracked normalized variance across steps."""
    k = min([TRACKED_COMPONENTS] + [s.ambient_dim for s in spectra])
    table = []
    for i in range(k):
        series = [float(s.eigensystem.normalized[i]) for s in spectra]
        table.append((i + 1, relative_spread(series)))
    return table


def norm_histogram(cloud, bins, rows=slice(None)):
    """Equal-width norm histograms over [0, r_max] by alternating class, of
    the given rows of the cloud (all of them by default).

    Returns (edges, counts dict with keys alternating / nonalternating /
    combined).
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    norms = cloud.norms[rows]
    r_max = float(norms.max()) or 1.0
    edges = np.linspace(0.0, r_max, bins + 1)
    flags = _class_rows(cloud, "alternating")[rows]
    alt, _ = np.histogram(norms[flags], bins=edges)
    nonalt, _ = np.histogram(norms[~flags], bins=edges)
    combined, _ = np.histogram(norms, bins=edges)
    return edges, {"alternating": alt, "nonalternating": nonalt,
                   "combined": combined}
