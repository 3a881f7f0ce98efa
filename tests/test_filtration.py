import math

import numpy as np
import pytest

from knotfold import filtration
from knotfold.cloud import KnotRecord, align
from knotfold.errors import (EmptyFamily, JonesIdentityFailure,
                             MomentOverflow, Unsupported, WindowOverflow)
from knotfold.families import (FamilyCloud, family_cloud, jones_torus,
                               torus_crossing_number)
from knotfold.filtration import (
    CLASS_FILTERS,
    TRACKED_COMPONENTS,
    FiltrationStep,
    angle_trajectory,
    crossing_filtration,
    eigensystem_trajectory,
    embed_direction,
    norm_filtration,
    norm_histogram,
    record_cloud,
    relative_spread,
    spread_table,
)
from knotfold.laurent import LaurentPolynomial
from knotfold.pca import (CovarianceAccumulator, DifferenceMoments,
                          centered_numerator)
from knotfold.pipeline import (InvariantCache, compute_batch, generate_family,
                               ingest)

from conftest import FIXTURE_FILE, TABLE_CROSSINGS, TABLE_POLYS
from oracles import (assert_same_cloud, family_spectrum, row, step_cloud,
                     step_spectrum, whole_step)


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
    """A cloud of the matrix's rows (fewer than ten), each spanning every
    column from degree 0."""
    return align([(f"p{i}", 0, list(r), True, None, 0)
                  for i, r in enumerate(matrix)])


def ids(step):
    """The row ids of a step, read off its source."""
    return tuple(step.source.row_ids[j] for j in step.rows)


def in_class(alternating, class_filter):
    """The class rule: an unknown alternating flag counts as nonalternating."""
    return {"all": True, "alternating": bool(alternating),
            "nonalternating": not alternating}[class_filter]


def per_step_filtration(records, k_min, k_max, class_filter="all"):
    """Oracle: every step with rows selected, sorted and aligned on its
    own."""
    steps = []
    for k in range(k_min, k_max + 1):
        chosen = [r for r in records
                  if r.crossing_number <= k
                  and in_class(r.alternating, class_filter)]
        chosen.sort(key=lambda r: r.id)
        if not chosen:
            continue
        steps.append(whole_step(str(k), align(
            [row(r.id, r.jones, r.alternating, r.sigma, r.crossing_number)
             for r in chosen])))
    return steps


def assert_same_steps(got, want):
    assert [s.label for s in got] == [s.label for s in want]
    for g, w in zip(got, want):
        assert_same_cloud(step_cloud(g), step_cloud(w), g.label)


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
    def test_steps_come_one_at_a_time(self):
        """Each step is made only when it is asked for, so a caller holds
        one step at a time."""
        cloud = record_cloud(fixture_records())
        steps = crossing_filtration(cloud, 3, 6)
        assert iter(steps) is steps
        first = next(steps)
        assert len(first.rows) == 2 and first.degrees == (0, 4)
        assert [len(s.rows) for s in steps] == [3, 5, 8]

    def test_step_sizes(self):
        steps = steps_of(fixture_records(), 3, 6)
        assert [s.label for s in steps] == ["3", "4", "5", "6"]
        assert [len(s.rows) for s in steps] == [2, 3, 5, 8]

    def test_nesting(self):
        steps = steps_of(fixture_records(), 3, 6)
        for prev, cur in zip(steps, steps[1:]):
            assert set(ids(prev)) <= set(ids(cur))

    def test_rows_agree_across_steps(self):
        """A knot's embedded row is the same in every window containing it."""
        steps = steps_of(fixture_records(), 5, 6)
        small, large = step_cloud(steps[0]), step_cloud(steps[1])
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

    def test_last_step_is_populated(self):
        """The steps end at the largest populated crossing number, so a far
        higher k_max yields no repeat of the last step."""
        records = fixture_records()
        assert [s.label for s in steps_of(records, 3, 2000)] == \
            ["3", "4", "5", "6"]
        assert_same_steps(steps_of(records, 3, 2000), steps_of(records, 3, 6))

    def test_k_min_above_the_data(self):
        """A k_min above every crossing number gets one step, holding every
        row."""
        steps = steps_of(fixture_records(), 10, 20)
        assert [s.label for s in steps] == ["10"]
        assert len(steps[0].rows) == 8

    def test_k_max_below_the_data(self):
        """A k_max below every crossing number gets no step."""
        assert steps_of(fixture_records(), -5, -1) == []

    def test_k_max_below_the_class_rows(self):
        """A k_max below every class-filtered crossing number gets no step,
        though rows of the other class lie below it."""
        records = fixture_records() + [
            KnotRecord("8_19", 8, LaurentPolynomial.from_text(
                "-1*q^8 + 1*q^5 + 1*q^3"), alternating=False)]
        assert steps_of(records, 3, 7, class_filter="nonalternating") == []
        steps = steps_of(records, 3, 9, class_filter="nonalternating")
        assert [s.label for s in steps] == ["8"]
        assert ids(steps[0]) == ("8_19",)

    def test_class_filter(self):
        steps = steps_of(fixture_records(), 6, 6,
                                    class_filter="alternating")
        assert len(steps[0].rows) == 8

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
        assert [ids(s) for s in steps] == [("r2", "r4"),
                                           ("r2", "r4", "r6", "r8")]
        assert all(s.degrees == (2, 8) for s in steps)

    def test_no_class_rows(self):
        """A class filter that keeps no row is refused at the call."""
        with pytest.raises(EmptyFamily):
            norm_filtration(step_cloud(FiltrationStep(
                "even", staircase_cloud(4), np.array([1, 3]), (0, 0))), 2,
                "nonalternating")

    def test_sizes_and_radii(self):
        steps = norm_filtration(staircase_cloud(8), 3)
        assert [s.label for s in steps] == ["r_2", "r_1", "r_0"]
        assert [len(s.rows) for s in steps] == [2, 4, 8]
        assert [s.source.norms[s.rows].max() for s in steps] == \
            [2.0, 4.0, 8.0]

    def test_innermost_keeps_smallest_norms(self):
        steps = norm_filtration(staircase_cloud(8), 3)
        assert ids(steps[0]) == ("r1", "r2")

    def test_nesting(self):
        steps = norm_filtration(staircase_cloud(11), 4)
        for prev, cur in zip(steps, steps[1:]):
            assert set(ids(prev)) <= set(ids(cur))

    def test_window_shared_with_parent(self):
        cloud = align([row(name, LaurentPolynomial.from_text(t))
                       for name, t in TABLE_POLYS.items()])
        for s in norm_filtration(cloud, 2):
            assert s.degrees == (cloud.min_degree, cloud.max_degree)

    def test_full_level_is_whole_cloud(self):
        cloud = staircase_cloud(5)
        last = norm_filtration(cloud, 3)[-1]
        assert ids(last) == cloud.row_ids

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            norm_filtration(staircase_cloud(4), 0)


class TestSpectra:
    def test_step_spectrum_fields(self):
        step = steps_of(fixture_records(), 6, 6)[0]
        (spec,), _ = eigensystem_trajectory([step])
        assert spec.count == 8 and spec.ambient_dim == 11
        assert 1 <= spec.dimension <= 11
        assert abs(spec.eigensystem.cumulative[-1] - 1.0) <= 1e-12

    def test_trajectory_skips_empty(self):
        """No step is made for an empty k; the top step is the last one
        analyzed."""
        records = [r for r in fixture_records() if r.crossing_number >= 5]
        steps = steps_of(records, 4, 6)
        assert [s.label for s in steps] == ["5", "6"]
        specs, top = eigensystem_trajectory(steps)
        assert [s.label for s in specs] == ["5", "6"]
        assert top is steps[-1]

    def test_trajectory_skips_one_record_steps(self):
        steps = steps_of(fixture_records(), -1, 4)
        assert [len(s.rows) for s in steps] == [1, 1, 1, 2, 3]
        specs, top = eigensystem_trajectory(steps)
        assert [s.label for s in specs] == ["3", "4"]
        assert top is steps[-1]
        assert eigensystem_trajectory(steps[:3]) == ([], None)

    def test_earlier_steps_keep_tracked_directions(self):
        """Every spectrum but the last keeps the tracked eigenvectors only,
        and the angles and spreads read the same values as from whole
        spectra."""
        _, cloud = family_cloud("double_twist", 40)
        steps = list(crossing_filtration(cloud, 20, 40))
        specs, _ = eigensystem_trajectory(steps)
        whole = [step_spectrum(s) for s in steps]
        assert len(specs) == len(whole) > 2
        for spec in specs[:-1]:
            assert spec.eigensystem.eigenvectors.shape == (
                spec.ambient_dim, min(TRACKED_COMPONENTS, spec.ambient_dim))
        last = specs[-1]
        assert last.eigensystem.eigenvectors.shape == (last.ambient_dim,) * 2
        assert angle_trajectory(specs) == angle_trajectory(whole)
        assert spread_table(specs) == spread_table(whole)


def mixed_records():
    """The fixture knots, all alternating, and four nonalternating torus
    knots of 8 to 15 crossings."""
    return fixture_records() + [
        KnotRecord(f"T({m},{n})", torus_crossing_number(m, n),
                   jones_torus(m, n), alternating=False)
        for m, n in ((3, 4), (3, 5), (3, 7), (4, 5))]


def assert_running_sums_match_oracle(steps):
    """The trajectory's spectra equal each step's PCA on its own cloud, to
    1e-12 relative."""
    steps = list(steps)
    got, top = eigensystem_trajectory(steps)
    want = [step_spectrum(s) for s in steps if len(s.rows) >= 2]
    assert len(got) == len(want) > 1
    assert top is [s for s in steps if len(s.rows) >= 2][-1]

    def close(a, b):
        return np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())

    for g, w in zip(got, want):
        assert (g.label, g.count, g.ambient_dim, g.dimension,
                g.min_degree, g.max_degree) == \
            (w.label, w.count, w.ambient_dim, w.dimension,
             w.min_degree, w.max_degree)
        assert close(g.mean, w.mean), g.label
        assert close(g.eigensystem.eigenvalues, w.eigensystem.eigenvalues)
        assert close(g.eigensystem.normalized, w.eigensystem.normalized)
        tracked = g.eigensystem.eigenvectors.shape[1]
        assert close(g.eigensystem.eigenvectors,
                     w.eigensystem.eigenvectors[:, :tracked]), g.label


class TestRunningSums:
    """One accumulator runs over the steps, and every step's K is the
    running moments cut to its window."""

    @pytest.mark.parametrize("cls", CLASS_FILTERS)
    def test_classes(self, cls):
        assert_running_sums_match_oracle(
            crossing_filtration(record_cloud(mixed_records()), -1, 15, cls))

    def test_double_twist(self):
        _, cloud = family_cloud("double_twist", 40)
        assert_running_sums_match_oracle(crossing_filtration(cloud, 10, 40))

    @pytest.mark.parametrize("cls", CLASS_FILTERS)
    def test_norm_filtration(self, cls):
        assert_running_sums_match_oracle(
            norm_filtration(record_cloud(mixed_records()), 2, cls))

    def test_double_twist_norm_filtration(self):
        _, cloud = family_cloud("double_twist", 40)
        assert_running_sums_match_oracle(norm_filtration(cloud, 4))

    def test_unnested_steps_start_again(self):
        """Steps that are not nested, or come from other clouds, get their
        own sums."""
        steps = steps_of(fixture_records(), 4, 6)
        assert_running_sums_match_oracle([steps[2], steps[0], steps[1]])
        other = [whole_step(s.label, step_cloud(s)) for s in steps]
        assert_running_sums_match_oracle([steps[1], other[2], steps[2]])

    def test_each_row_enters_once(self, monkeypatch):
        """Each family member's difference row u is folded in once."""
        counted = []
        add = DifferenceMoments.add

        def counting(self, columns, values, peaks):
            counted.append(len(peaks))
            return add(self, columns, values, peaks)

        monkeypatch.setattr(DifferenceMoments, "add", counting)
        _, cloud = family_cloud("double_twist", 40)
        specs, top = eigensystem_trajectory(crossing_filtration(cloud, 10, 40))
        assert len(specs) == 31
        assert sum(counted) == len(top.rows) == len(cloud.row_ids)


def captured_covariances(monkeypatch):
    """The K of each step that eigensystem_trajectory solves, as bytes, in
    order."""
    seen, solve = [], filtration.sym_eig

    def capture(k):
        seen.append(k.tobytes())
        return solve(k)

    monkeypatch.setattr(filtration, "sym_eig", capture)
    return seen


def window(step):
    """The columns of a step's degree window in its source."""
    lo, hi = step.degrees
    return slice(lo - step.source.min_degree, hi - step.source.min_degree + 1)


class TestDifferenceMoments:
    """A family's steps take S, s and K from the sparse difference form of
    their rows: the bits of the dense product of those rows, and the top
    step, which holds every row, the spectrum of family_spectrum."""

    @pytest.mark.parametrize("kind, limit, k_min", [
        ("torus", 300, 250), ("double_twist", 151, 140)])
    def test_every_step_matches_the_dense_product(self, monkeypatch, kind,
                                                  limit, k_min):
        _, cloud = family_cloud(kind, limit)
        steps = list(crossing_filtration(cloud, k_min, limit))
        solved = captured_covariances(monkeypatch)
        specs, _ = eigensystem_trajectory(steps)
        assert len(specs) == len(steps) == limit - k_min + 1
        acc = cloud.moments()
        product = CovarianceAccumulator(cloud.width)
        held = np.zeros(len(cloud.row_ids), dtype=bool)
        for step, spec, k in zip(steps, specs, solved):
            added = step.rows[~held[step.rows]]
            held[step.rows] = True
            acc.add(*cloud.differences(added))
            product.add_block(cloud.rows(added))
            columns = window(step)
            width = columns.stop - columns.start
            s_diff, total_diff = acc.window(columns)
            s_prod, total_prod = product.window(columns)
            assert not s_diff[width:].any() and not s_diff[:, width:].any()
            assert not total_diff[width:].any()
            assert s_diff[:width, :width].tobytes() == s_prod.tobytes()
            assert total_diff[:width].tobytes() == total_prod.tobytes()
            assert k == product.finalize(columns).tobytes(), step.label
            assert spec.mean.tobytes() == \
                product.mean[columns].tobytes(), step.label
        assert len(step.rows) == len(cloud.row_ids)
        assert spec.eigensystem.eigenvalues.tobytes() == \
            family_spectrum(cloud).eigenvalues.tobytes()

    def test_unnested_steps_restart(self, monkeypatch):
        """A step that drops rows of the step before starts new sums, and
        each K is still that of its rows alone."""
        _, cloud = family_cloud("double_twist", 40)
        steps = list(crossing_filtration(cloud, 10, 40))
        made, moments = [], FamilyCloud.moments
        monkeypatch.setattr(FamilyCloud, "moments",
                            lambda self: made.append(1) or moments(self))
        solved = captured_covariances(monkeypatch)
        order = [steps[20], steps[5], steps[6], steps[30]]
        eigensystem_trajectory(order)
        assert len(made) == 2
        for step, k in zip(order, solved):
            alone = CovarianceAccumulator(cloud.width).add_block(
                cloud.rows(step.rows))
            assert k == alone.finalize(window(step)).tobytes(), step.label

    def test_one_wrong_entry_breaks_an_identity(self, monkeypatch):
        """One wrong entry of one member's u is caught at the first step
        that holds it, by an identity the error names."""
        _, cloud = family_cloud("double_twist", 40)
        wrong = cloud.row_ids.index("C(3,8)")
        differences = FamilyCloud.differences

        def corrupted(self, indices):
            columns, values, peaks = differences(self, indices)
            values = values.copy()
            values[indices == wrong, 4] += 1
            return columns, values, peaks

        monkeypatch.setattr(FamilyCloud, "differences", corrupted)
        with pytest.raises(JonesIdentityFailure,
                           match=r"^step 11: the moments break V\(1\) = 1$"):
            eigensystem_trajectory(crossing_filtration(cloud, 10, 40))

    def test_bounds(self):
        """Sums that could leave int64 raise MomentOverflow: U and the
        prefix passes (spread^2 times the sum of max |x|^2) when rows are
        added, with nothing folded in, and N S when K is formed."""
        for kind, spread in (("torus", 2), ("double_twist", 4)):
            acc = family_cloud(kind, 30)[1].moments()
            one = np.zeros((1, 1), dtype=np.int64), np.ones((1, 1), int)
            with pytest.raises(MomentOverflow):
                acc.add(*one, np.array([2 ** 32 // spread]))
            assert acc.count == 0 and not acc.raw.any()
            acc.add(*one, np.array([2 ** 31 // spread - 1]))
            assert acc.count == 1
        acc = family_cloud("torus", 30)[1].moments()
        for _ in range(16):
            acc.add(*one, np.array([2 ** 28]))
        with pytest.raises(MomentOverflow):
            centered_numerator(acc, slice(None))


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
        specs = [step_spectrum(whole_step("a", a)),
                 step_spectrum(whole_step("b", b))]
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

    def test_rows(self):
        """The histogram of some rows is that of their own cloud."""
        cloud = staircase_cloud(8)
        rows = np.array([1, 4, 5, 7])
        want_edges, want = norm_histogram(
            step_cloud(FiltrationStep("some", cloud, rows, (0, 0))), 3)
        edges, counts = norm_histogram(cloud, 3, rows)
        assert np.array_equal(edges, want_edges)
        assert all(np.array_equal(counts[c], want[c]) for c in want)

    def test_single_bin(self):
        _, counts = norm_histogram(staircase_cloud(5), 1)
        assert counts["combined"].tolist() == [5]

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            norm_histogram(staircase_cloud(3), 0)
