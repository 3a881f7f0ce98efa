"""Nested-family analyses: filtrations, spectra, and stability diagnostics.

A filtration is an increasing sequence of knot sets, here by crossing
number or by coefficient-vector norm.  Every step is a row and column
slice of one aligned cloud (record_cloud, or families.family_cloud), cut
to the degree window its rows span.  Each step gets its own PCA; the
diagnostics compare steps: explained-variance trajectories, principal
angles between consecutive steps, relative spreads, and norm histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import AlignedCloud, align
from .errors import EmptyFamily, Unsupported, WindowOverflow
from .pca import CovarianceAccumulator, dimension_estimate, sym_eig

TRACKED_COMPONENTS = 6
PROJECTION_COMPONENTS = 3

CLASS_FILTERS = ("all", "alternating", "nonalternating")


def _class_match(alternating, class_filter):
    if class_filter == "all":
        return True
    if class_filter == "alternating":
        return bool(alternating)
    if class_filter == "nonalternating":
        return not alternating
    raise ValueError(f"unknown class filter {class_filter!r}")


@dataclass(frozen=True)
class FiltrationStep:
    """One level of a filtration: a label and its aligned cloud (or None)."""

    label: str
    cloud: AlignedCloud

    @property
    def empty(self):
        return self.cloud is None


def record_cloud(records):
    """The cloud of computed records: each record's dense Jones row
    (int_coeffs), aligned once, with its alternating flag, sigma and
    crossing number."""
    return align((r.id, *r.jones.int_coeffs(), r.alternating, r.sigma,
                  r.crossing_number) for r in records)


def _class_rows(cloud, class_filter):
    """Boolean mask of the cloud's rows that pass the class filter."""
    return np.array([_class_match(f, class_filter) for f in cloud.class_flags],
                    dtype=bool)


def crossing_filtration(cloud, k_min, k_max, class_filter="all"):
    """Nested clouds of the rows with crossing number <= k, k = k_min..k_max.

    Steps come one at a time, in order, so a caller holds only the step it
    works on.  Each is the subset of the cloud's rows that pass the class
    filter and have crossing number <= k, cut to the degree window those
    rows span, so it equals aligning that step alone.  Empty steps are
    reported with a None cloud rather than raised.  A cloud with a row
    that has no crossing number is refused at the call.
    """
    if k_min > k_max:
        raise ValueError(f"k_min {k_min} exceeds k_max {k_max}")
    for rid, c in zip(cloud.row_ids, cloud.crossing_numbers):
        if c is None:
            raise Unsupported(f"row {rid!r} has no crossing number")
    chosen = _class_rows(cloud, class_filter)
    crossings = np.array(cloud.crossing_numbers)
    spans = cloud.row_spans()

    def steps():
        for k in range(k_min, k_max + 1):
            rows = np.flatnonzero(chosen & (crossings <= k))
            yield FiltrationStep(
                str(k), cloud.select(rows, spans) if len(rows) else None)

    return steps()


def class_cloud(cloud, class_filter):
    """The cloud's rows that pass the class filter, cut to the degree window
    they span; EmptyFamily when none does."""
    rows = np.flatnonzero(_class_rows(cloud, class_filter))
    if not len(rows):
        raise EmptyFamily("cannot align an empty family")
    return cloud.select(rows)


def norm_filtration(cloud, levels):
    """Central-norm subsets doubling in size up to the full cloud.

    Level i (i = levels-1 .. 0) keeps the ceil(n / 2^i) rows of smallest
    norm (ties broken by row id).  All levels share the parent cloud's
    degree window.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    n = len(cloud.row_ids)
    order = sorted(range(n), key=lambda i: (cloud.norms[i], cloud.row_ids[i]))
    steps = []
    for i in range(levels - 1, -1, -1):
        take = -(-n // (1 << i))  # ceil
        steps.append(FiltrationStep(f"r_{i}", cloud.subcloud(
            sorted(order[:take]), cloud.min_degree, cloud.max_degree)))
    return steps


@dataclass(frozen=True)
class StepSpectrum:
    """PCA output of one filtration step."""

    label: str
    count: int
    ambient_dim: int
    mean: np.ndarray
    eigensystem: object
    dimension: int
    min_degree: int
    max_degree: int


def step_spectrum(step, variance_threshold=0.95):
    cloud = step.cloud
    acc = CovarianceAccumulator(cloud.matrix.shape[1])
    acc.add_block(cloud.matrix)
    es = sym_eig(acc.finalize())
    return StepSpectrum(
        label=step.label,
        count=cloud.matrix.shape[0],
        ambient_dim=cloud.matrix.shape[1],
        mean=acc.mean,
        eigensystem=es,
        dimension=dimension_estimate(es.normalized, variance_threshold),
        min_degree=cloud.min_degree,
        max_degree=cloud.max_degree,
    )


def eigensystem_trajectory(steps, variance_threshold=0.95):
    """Per-step spectra for the steps holding enough rows for a PCA.

    Empty steps and one-record steps (whose covariance is undefined)
    are skipped.
    """
    return [step_spectrum(s, variance_threshold) for s in steps
            if not s.empty and len(s.cloud.row_ids) >= 2]


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


def angle_trajectory(spectra, tracked=TRACKED_COMPONENTS):
    """Principal angles between consecutive steps, per tracked component.

    theta_{i,j} is the angle between v = v_i(step j+1) and w =
    embed(v_i(step j)) up to sign, in [0, pi/2].  It is computed in the
    chord form 2 asin(|v - s w| / 2) with s = sign(v . w), which stays
    accurate near 0 where arccos |v . w| loses half the digits.  Rows are
    (transition label, component index starting at 1, theta radians).
    """
    out = []
    for prev, cur in zip(spectra, spectra[1:]):
        k = min(tracked, prev.ambient_dim, cur.ambient_dim)
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


def spread_table(spectra, tracked=TRACKED_COMPONENTS):
    """Relative spread of each tracked normalized variance across steps."""
    k = min([tracked] + [s.ambient_dim for s in spectra])
    table = []
    for i in range(k):
        series = [float(s.eigensystem.normalized[i]) for s in spectra]
        table.append((i + 1, relative_spread(series)))
    return table


def norm_histogram(cloud, bins):
    """Equal-width norm histograms over [0, r_max] by alternating class.

    Returns (edges, counts dict with keys alternating / nonalternating /
    combined).
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    r_max = float(cloud.norms.max()) if len(cloud.norms) else 1.0
    if r_max == 0:
        r_max = 1.0
    edges = np.linspace(0.0, r_max, bins + 1)
    flags = np.array([bool(f) for f in cloud.class_flags])
    alt, _ = np.histogram(cloud.norms[flags], bins=edges)
    nonalt, _ = np.histogram(cloud.norms[~flags], bins=edges)
    combined, _ = np.histogram(cloud.norms, bins=edges)
    return edges, {"alternating": alt, "nonalternating": nonalt,
                   "combined": combined}
