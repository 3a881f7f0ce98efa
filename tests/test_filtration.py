import math

import numpy as np
import pytest

from knotfold import filtration
from knotfold.cloud import AlignedCloud, KnotRecord, align
from knotfold.errors import EmptyFamily, Unsupported, WindowOverflow
from knotfold.families import family_cloud
from knotfold.filtration import (
    CLASS_FILTERS,
    TRACKED_COMPONENTS,
    FiltrationStep,
    _class_match,
    angle_trajectory,
    crossing_filtration,
    eigensystem_trajectory,
    embed_direction,
    norm_filtration,
    norm_histogram,
    record_cloud,
    relative_spread,
    spread_table,
    step_spectrum,
)
from knotfold.laurent import LaurentPolynomial
from knotfold.pipeline import (InvariantCache, compute_batch, generate_family,
                               ingest)

from conftest import FIXTURE_FILE, TABLE_CROSSINGS, TABLE_POLYS
from oracles import assert_same_cloud, row


def fixture_records():
    return [KnotRecord(name, TABLE_CROSSINGS[name],
                       LaurentPolynomial.from_text(text), alternating=True)
            for name, text in TABLE_POLYS.items()]


def steps_of(records, k_min, k_max, class_filter="all"):
    """The crossing filtration of the records' cloud, as a list."""
    return list(crossing_filtration(record_cloud(records), k_min, k_max,
                                    class_filter))


def staircase_cloud(n=8):
    """A width-1 cloud whose k-th row has norm exactly k."""
    return align([row(f"r{k}", LaurentPolynomial({0: k}, "q"),
                      alternating=k % 2 == 0) for k in range(1, n + 1)])


def make_cloud(matrix):
    matrix = np.asarray(matrix, dtype=np.int64)
    n = len(matrix)
    return AlignedCloud(
        row_ids=tuple(f"p{i}" for i in range(n)),
        matrix=matrix,
        min_degree=0,
        norms=np.sqrt((matrix.astype(float) ** 2).sum(axis=1)),
        class_flags=(True,) * n,
        sigma_values=(None,) * n,
        crossing_numbers=(0,) * n,
    )


def per_step_filtration(records, k_min, k_max, class_filter="all"):
    """Oracle: every step with rows selected, sorted and aligned on its
    own."""
    steps = []
    for k in range(k_min, k_max + 1):
        chosen = [r for r in records
                  if r.crossing_number <= k
                  and _class_match(r.alternating, class_filter)]
        chosen.sort(key=lambda r: r.id)
        if not chosen:
            continue
        steps.append(FiltrationStep(str(k), align(
            [row(r.id, r.jones, r.alternating, r.sigma, r.crossing_number)
             for r in chosen])))
    return steps


def assert_same_steps(got, want):
    assert [s.label for s in got] == [s.label for s in want]
    for g, w in zip(got, want):
        assert_same_cloud(g.cloud, w.cloud, g.label)


class TestCrossingFiltrationMatchesPerStep:
    """One alignment cut per step equals aligning every step alone."""

    def test_fixture_dataset_all_classes(self):
        ds = ingest([FIXTURE_FILE])
        records, _ = compute_batch(ds, InvariantCache(None), workers=1)
        for cls in CLASS_FILTERS:
            assert_same_steps(steps_of(records, -1, 6, cls),
                              per_step_filtration(records, -1, 6, cls))

    def test_double_twist_family(self):
        _, records = generate_family("double_twist", 40)
        assert_same_steps(steps_of(records, 10, 40),
                          per_step_filtration(records, 10, 40))

    def test_double_twist_family_cloud(self):
        """The closed-form family cloud filters like its records."""
        _, records = generate_family("double_twist", 40)
        _, cloud = family_cloud("double_twist", 40)
        assert_same_steps(list(crossing_filtration(cloud, 10, 40)),
                          per_step_filtration(records, 10, 40))

    def test_constant_jones(self):
        """Constant polynomials have the one-column window [0, 0]."""
        records = [KnotRecord("c", 2, LaurentPolynomial.one("q"),
                              alternating=False, sigma=0)]
        records += fixture_records()
        assert_same_steps(steps_of(records, 0, 6),
                          per_step_filtration(records, 0, 6))

    def test_aligns_once(self, monkeypatch):
        calls = []

        def counting_align(family):
            calls.append(1)
            return align(family)

        monkeypatch.setattr(filtration, "align", counting_align)
        list(crossing_filtration(record_cloud(fixture_records()), 3, 6))
        assert len(calls) == 1


class TestCrossingFiltration:
    def test_steps_come_one_at_a_time(self, monkeypatch):
        """Each step is cut from the cloud only when it is asked for, so a
        caller holds one step's matrix at a time."""
        cloud = record_cloud(fixture_records())
        cuts = []
        subcloud = AlignedCloud.subcloud

        def counted(self, *args):
            cuts.append(args[1:])
            return subcloud(self, *args)

        monkeypatch.setattr(AlignedCloud, "subcloud", counted)
        steps = crossing_filtration(cloud, 3, 6)
        assert cuts == []
        assert len(next(steps).cloud.row_ids) == 2 and cuts == [(0, 4)]
        assert [len(s.cloud.row_ids) for s in steps] == [3, 5, 8]
        assert len(cuts) == 4

    def test_step_sizes(self):
        steps = steps_of(fixture_records(), 3, 6)
        assert [s.label for s in steps] == ["3", "4", "5", "6"]
        assert [len(s.cloud.row_ids) for s in steps] == [2, 3, 5, 8]

    def test_nesting(self):
        steps = steps_of(fixture_records(), 3, 6)
        for prev, cur in zip(steps, steps[1:]):
            assert set(prev.cloud.row_ids) <= set(cur.cloud.row_ids)

    def test_rows_agree_across_steps(self):
        """A knot's embedded row is the same in every window containing it."""
        steps = steps_of(fixture_records(), 5, 6)
        small, large = steps[0].cloud, steps[1].cloud
        shift = small.min_degree - large.min_degree
        for i, name in enumerate(small.row_ids):
            j = large.row_ids.index(name)
            w = small.matrix.shape[1]
            assert np.array_equal(small.matrix[i],
                                  large.matrix[j, shift:shift + w]), name

    def test_empty_steps_reported(self):
        """A k without rows yields no step."""
        assert steps_of(fixture_records(), 1, 3,
                        class_filter="nonalternating") == []

    def test_first_step_is_populated(self):
        """The steps start at the smallest populated crossing number, so a
        far lower k_min visits no empty k and yields the same steps."""
        records = fixture_records()
        first = next(crossing_filtration(record_cloud(records), -10**12, 6))
        assert first.label == str(min(r.crossing_number for r in records))
        assert_same_steps(steps_of(records, -10**12, 6),
                          steps_of(records, 0, 6))

    def test_class_filter(self):
        steps = steps_of(fixture_records(), 6, 6,
                                    class_filter="alternating")
        assert len(steps[0].cloud.row_ids) == 8

    def test_cloud_without_crossing_numbers(self):
        """A cloud aligned without crossing-number metadata is refused when
        the filtration is asked for, not when it is iterated, and the
        error names the row."""
        cloud = align([row("a", LaurentPolynomial.one("q"))])
        with pytest.raises(Unsupported, match="'a'"):
            crossing_filtration(cloud, 0, 1)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            crossing_filtration(record_cloud(fixture_records()), 5, 4)

    def test_bad_class_filter(self):
        with pytest.raises(ValueError):
            crossing_filtration(record_cloud(fixture_records()), 3, 3,
                                class_filter="odd")


class TestNormFiltration:
    def test_class_filter(self):
        """The levels are cut from the class-filtered rows, in the window
        they span."""
        cloud = align([row(f"r{k}", LaurentPolynomial.monomial(k, k),
                           alternating=k % 2 == 0) for k in range(1, 9)])
        steps = norm_filtration(cloud, 2, "alternating")
        assert [s.cloud.row_ids for s in steps] == [("r2", "r4"),
                                                    ("r2", "r4", "r6", "r8")]
        assert all((s.cloud.min_degree, s.cloud.max_degree) == (2, 8)
                   for s in steps)

    def test_no_class_rows(self):
        """A class filter that keeps no row is refused at the call."""
        with pytest.raises(EmptyFamily):
            norm_filtration(staircase_cloud(4).subcloud([1, 3], 0, 0), 2,
                            "nonalternating")

    def test_sizes_and_radii(self):
        steps = norm_filtration(staircase_cloud(8), 3)
        assert [s.label for s in steps] == ["r_2", "r_1", "r_0"]
        assert [len(s.cloud.row_ids) for s in steps] == [2, 4, 8]
        assert [s.cloud.norms.max() for s in steps] == [2.0, 4.0, 8.0]

    def test_innermost_keeps_smallest_norms(self):
        steps = norm_filtration(staircase_cloud(8), 3)
        assert steps[0].cloud.row_ids == ("r1", "r2")

    def test_nesting(self):
        steps = norm_filtration(staircase_cloud(11), 4)
        for prev, cur in zip(steps, steps[1:]):
            assert set(prev.cloud.row_ids) <= set(cur.cloud.row_ids)

    def test_window_shared_with_parent(self):
        cloud = align([row(name, LaurentPolynomial.from_text(t))
                       for name, t in TABLE_POLYS.items()])
        for s in norm_filtration(cloud, 2):
            assert (s.cloud.min_degree, s.cloud.max_degree) == \
                (cloud.min_degree, cloud.max_degree)

    def test_full_level_is_whole_cloud(self):
        cloud = staircase_cloud(5)
        last = norm_filtration(cloud, 3)[-1]
        assert last.cloud.row_ids == cloud.row_ids

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            norm_filtration(staircase_cloud(4), 0)


class TestSpectra:
    def test_step_spectrum_fields(self):
        step = steps_of(fixture_records(), 6, 6)[0]
        spec = step_spectrum(step)
        assert spec.count == 8 and spec.ambient_dim == 11
        assert 1 <= spec.dimension <= 11
        assert abs(spec.eigensystem.cumulative[-1] - 1.0) <= 1e-12

    def test_trajectory_skips_empty(self):
        """No step is made for an empty k; the top cloud is the last step
        analyzed."""
        records = [r for r in fixture_records() if r.crossing_number >= 5]
        steps = steps_of(records, 4, 6)
        assert [s.label for s in steps] == ["5", "6"]
        specs, top = eigensystem_trajectory(steps)
        assert [s.label for s in specs] == ["5", "6"]
        assert top is steps[-1].cloud

    def test_trajectory_skips_one_record_steps(self):
        steps = steps_of(fixture_records(), -1, 4)
        assert [len(s.cloud.row_ids) for s in steps] == [1, 1, 1, 2, 3]
        specs, top = eigensystem_trajectory(steps)
        assert [s.label for s in specs] == ["3", "4"]
        assert top is steps[-1].cloud
        assert eigensystem_trajectory(steps[:3]) == ([], None)


class TestEmbedDirection:
    def test_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(embed_direction(v, (0, 2), (0, 2)), v)

    def test_padding(self):
        v = np.array([1.0, 2.0])
        out = embed_direction(v, (1, 2), (-1, 3))
        assert out.tolist() == [0.0, 0.0, 1.0, 2.0, 0.0]

    def test_overflow(self):
        with pytest.raises(WindowOverflow):
            embed_direction(np.ones(3), (-1, 1), (0, 2))


class TestAngles:
    def test_self_angle_zero(self):
        spec = step_spectrum(steps_of(fixture_records(), 6, 6)[0])
        for _, _, theta in angle_trajectory([spec, spec]):
            assert theta <= 1e-8

    def test_range_and_labels(self):
        steps = steps_of(fixture_records(), 4, 6)
        rows = angle_trajectory(eigensystem_trajectory(steps)[0])
        labels = {label for label, _, _ in rows}
        assert labels == {"4->5", "5->6"}
        assert {idx for _, idx, _ in rows} == set(
            range(1, TRACKED_COMPONENTS + 1))
        for _, idx, theta in rows:
            assert 0.0 <= theta <= math.pi / 2 + 1e-12

    def test_swapped_components_give_right_angle(self):
        a = make_cloud([[3, 0], [-3, 0], [1, 0], [-1, 0], [0, 1], [0, -1]])
        b = make_cloud([[0, 3], [0, -3], [0, 1], [0, -1], [1, 0], [-1, 0]])
        specs = [step_spectrum(FiltrationStep("a", a)),
                 step_spectrum(FiltrationStep("b", b))]
        for _, _, theta in angle_trajectory(specs):
            assert theta == pytest.approx(math.pi / 2)


class TestSpread:
    def test_constant_series(self):
        assert relative_spread([0.4, 0.4, 0.4]) == 0.0

    def test_hand_example(self):
        assert relative_spread([0.75, 0.78]) == pytest.approx(3.9215686274, abs=1e-9)

    def test_empty_series(self):
        with pytest.raises(ValueError):
            relative_spread([])

    def test_table_shape(self):
        steps = steps_of(fixture_records(), 4, 6)
        table = spread_table(eigensystem_trajectory(steps)[0])
        assert [i for i, _ in table] == list(
            range(1, TRACKED_COMPONENTS + 1))
        assert all(v >= 0 for _, v in table)


class TestHistogram:
    def test_partition(self):
        cloud = staircase_cloud(8)
        edges, counts = norm_histogram(cloud, 4)
        assert len(edges) == 5 and edges[0] == 0.0 and edges[-1] == 8.0
        assert counts["combined"].sum() == 8
        assert np.array_equal(counts["alternating"] + counts["nonalternating"],
                              counts["combined"])

    def test_single_bin(self):
        _, counts = norm_histogram(staircase_cloud(5), 1)
        assert counts["combined"].tolist() == [5]

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            norm_histogram(staircase_cloud(3), 0)
