"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL
line.  Criteria needing an external knot table (the public <= 13
crossing DT tables are user-supplied inputs, not bundled) are skipped
with a reason when KNOTFOLD_DT13 is not set to a dataset path.
"""

import functools
import gc
import math
import os
import statistics
import time

import numpy as np
import pytest

from knotfold.bracket import bracket_to_jones, jones, kauffman_bracket
from knotfold.cloud import KnotRecord, align, canonical_orientation
from knotfold.diagrams import mirror, parse_pd, writhe
from knotfold.families import (
    double_twist_diagram,
    family_cloud,
    jones_double_twist,
    torus_diagram,
)
from knotfold.filtration import (
    angle_trajectory,
    crossing_filtration,
    eigensystem_trajectory,
    norm_filtration,
    norm_histogram,
    record_cloud,
)
from knotfold.laurent import LaurentPolynomial
from knotfold.pca import CovarianceAccumulator, dimension_estimate, sym_eig
from knotfold.pipeline import (
    AnalysisConfig,
    InvariantCache,
    compute_batch,
    generate_family,
    ingest,
    run_analysis,
)

from conftest import FIXTURE_FILE, TABLE_MATRIX
from oracles import (assert_same_cloud, bracket_statesum, records_cloud, row,
                     skein_check)

DT13 = os.environ.get("KNOTFOLD_DT13")
FULL_DOUBLE_TWIST = os.environ.get("KNOTFOLD_FULL_DOUBLE_TWIST")


def criterion(n):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                verdict = "SKIP" if isinstance(exc, pytest.skip.Exception) \
                    else "FAIL"
                print(f"\nCRITERION {n}: {verdict}")
                raise
            print(f"\nCRITERION {n}: PASS")
        return wrapper
    return deco


def family_spectrum(cloud):
    acc = CovarianceAccumulator(cloud.matrix.shape[1])
    acc.add_block(cloud.matrix)
    return sym_eig(acc.finalize())


def checked_family_cloud(kind, limit):
    """family_cloud, asserted equal to aligning generate_family's records."""
    _, cloud = family_cloud(kind, limit)
    _, records = generate_family(kind, limit)
    assert_same_cloud(cloud, records_cloud(records))
    return cloud


def dt13_records():
    if not DT13:
        pytest.skip("set KNOTFOLD_DT13 to a user-supplied <= 13 crossing "
                    "DT table (id;crossing_number;code per line); no such "
                    "table is bundled")
    ds = ingest([DT13])
    records, failures = compute_batch(ds, InvariantCache(None),
                                      max_failure_fraction=0.01)
    assert not failures, failures[:3]
    return records


@criterion(1)
def test_criterion_1_table_golden(fixture_diagrams, table_polys):
    t0 = time.time()
    records = []
    for name, d in fixture_diagrams.items():
        rec = canonical_orientation(KnotRecord(name, d.n, jones(d)))
        assert rec.jones == table_polys[name], name
        records.append(rec)
    cloud = align([row(r.id, r.jones) for r in records])
    assert cloud.matrix.shape == (8, 11)
    for i, name in enumerate(cloud.row_ids):
        assert cloud.matrix[i].tolist() == TABLE_MATRIX[name], name
    assert cloud.matrix[cloud.row_ids.index("6_3")].tolist() == \
        [-1, 2, -2, 3, -2, 2, -1, 0, 0, 0, 0]
    assert time.time() - t0 < 1.0


@criterion(2)
def test_criterion_2_skein(fixture_diagrams):
    l_plus = jones(fixture_diagrams["3_1"])
    l_minus = LaurentPolynomial.one("q")
    l_zero = jones(parse_pd("X(1,3,2,4) X(3,1,4,2)"))
    assert skein_check(l_plus, l_minus, l_zero)


@criterion(3)
def test_criterion_3_mirror_identity(fixture_diagrams):
    for name, d in fixture_diagrams.items():
        assert jones(mirror(d)) == jones(d).substitute_inverse(), name


@criterion(4)
def test_criterion_4_evaluator_equivalence(fixture_diagrams):
    t0 = time.time()
    diagrams = dict(fixture_diagrams)
    for n in (3, 5, 7, 9, 11):
        diagrams[f"T(2,{n})"] = torus_diagram(n)
    for m, n in ((2, 5), (3, 6), (5, 6), (6, 6)):
        diagrams[f"C({m},{n})"] = double_twist_diagram(m, n)
    for name, d in diagrams.items():
        assert d.n <= 12
        assert bracket_statesum(d) == kauffman_bracket(d), name
    for m in range(0, 10):
        for n in range(0, 10):
            if not 0 < m + n <= 10:
                continue
            d = double_twist_diagram(m, n)
            assert jones_double_twist(m, n) == \
                bracket_to_jones(bracket_statesum(d), writhe(d)), (m, n)
    assert time.time() - t0 < 60.0


@criterion(5)
def test_criterion_5_torus_reproduction():
    t0 = time.time()
    cloud = checked_family_cloud("torus", 2000)
    assert len(cloud.row_ids) == 4501
    es = family_spectrum(cloud)
    assert cloud.matrix.shape[1] == 2998
    assert es.cumulative[24] > 0.95  # S_25; S_24 deliberately not asserted
    assert time.time() - t0 < 1800.0
    del cloud, es
    gc.collect()


@criterion(6)
def test_criterion_6_double_twist_reduced():
    es = family_spectrum(checked_family_cloud("double_twist", 301))
    s3, s4 = float(es.cumulative[2]), float(es.cumulative[3])
    assert s4 >= s3
    # heavy head: the first handful of components carry most variance
    assert s4 > 0.9
    assert es.normalized[0] == es.normalized.max()
    if FULL_DOUBLE_TWIST:
        es = family_spectrum(family_cloud("double_twist", 2001)[1])
        assert float(es.cumulative[3]) > 0.969 - 0.01
        assert abs(float(es.cumulative[2]) - 0.948) <= 0.01
    del es
    gc.collect()


@criterion(7)
def test_criterion_7_crossing_filtration_dt13():
    t0 = time.time()
    records = dt13_records()
    steps = crossing_filtration(record_cloud(records), 11, 13)
    spectra, _ = eigensystem_trajectory(steps)
    assert [s.label for s in spectra] == ["11", "12", "13"]
    for s in spectra:
        assert 0.986 <= float(s.eigensystem.cumulative[2]) <= 0.994, s.label
        assert s.dimension == 3, s.label
    for s in spectra[1:]:
        assert abs(float(s.eigensystem.cumulative[1]) - 0.9507) <= 0.003, \
            s.label
    assert time.time() - t0 < 300.0


@criterion(8)
def test_criterion_8_property_suite(fixture_diagrams, tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 12))

    # covariance merge vs single pass
    whole = CovarianceAccumulator(12).add_block(x).finalize()
    parts = CovarianceAccumulator(12).add_block(x[:25]).merge(
        CovarianceAccumulator(12).add_block(x[25:])).finalize()
    assert np.abs(whole - parts).max() <= 1e-10 * max(1, np.abs(whole).max())

    # eigensystem contracts
    es = sym_eig(whole)
    v, lam = es.eigenvectors, es.eigenvalues
    assert np.abs(v.T @ v - np.eye(12)).max() <= 1e-10
    assert np.abs(whole @ v - v * lam).max() <= \
        1e-8 * max(1, np.abs(whole).max())
    assert abs(np.trace(whole) - lam.sum()) <= 1e-8 * abs(np.trace(whole))
    assert abs(es.normalized.sum() - 1.0) <= 1e-12

    # scale equivariance
    es2 = sym_eig(CovarianceAccumulator(12).add_block(7.5 * x).finalize())
    assert np.abs(es2.normalized - es.normalized).max() <= 1e-10
    assert dimension_estimate(es.normalized) == dimension_estimate(es2.normalized)

    # angle range and self-angle
    records = [KnotRecord(n, d.n, jones(d), alternating=True)
               for n, d in fixture_diagrams.items()]
    records = [canonical_orientation(r) for r in records]
    steps = list(crossing_filtration(record_cloud(records), 4, 6))
    spectra, _ = eigensystem_trajectory(steps)
    for _, _, theta in angle_trajectory(spectra):
        assert 0.0 <= theta <= math.pi / 2 + 1e-12
    for _, _, theta in angle_trajectory([spectra[-1], spectra[-1]]):
        assert theta < 1e-8

    # filtration nesting and embedded-row equality
    for prev, cur in zip(steps, steps[1:]):
        assert set(prev.cloud.row_ids) <= set(cur.cloud.row_ids)
    small, large = steps[0].cloud, steps[-1].cloud
    shift = small.min_degree - large.min_degree
    w = small.matrix.shape[1]
    for i, name in enumerate(small.row_ids):
        j = large.row_ids.index(name)
        assert np.array_equal(small.matrix[i],
                              large.matrix[j, shift:shift + w]), name
    nsteps = norm_filtration(large, 3)
    for prev, cur in zip(nsteps, nsteps[1:]):
        assert set(prev.cloud.row_ids) <= set(cur.cloud.row_ids)

    # byte determinism across worker counts, end to end
    ds = ingest([FIXTURE_FILE])
    caches, bundles = [], []
    for workers in (1, 2):
        cpath = str(tmp_path / f"cache_{workers}.txt")
        recs, failures = compute_batch(ds, InvariantCache(cpath),
                                       workers=workers)
        assert not failures
        with open(cpath, "rb") as fh:
            caches.append(fh.read())
        out = str(tmp_path / f"rep_{workers}")
        run_analysis(record_cloud(recs), AnalysisConfig(), out,
                     digests=[ds.digest])
        bundle = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                bundle[name] = fh.read()
        bundles.append(bundle)
    assert caches[0] == caches[1]
    assert bundles[0] == bundles[1]


@criterion(9)
def test_criterion_9_histogram_contract():
    records = dt13_records()
    cloud = align([row(r.id, r.jones, r.alternating) for r in records])
    _, counts = norm_histogram(cloud, 20)
    assert np.array_equal(counts["alternating"] + counts["nonalternating"],
                          counts["combined"])
    flags = np.array([bool(f) for f in cloud.class_flags])
    alt = statistics.median(cloud.norms[flags])
    nonalt = statistics.median(cloud.norms[~flags])
    assert nonalt < alt
