import hashlib
import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import knotfold
from knotfold.cli import main
from knotfold.diagrams import parse_dt, realize_dt
from knotfold.errors import (BadEnvironment, KnotfoldError, Unreadable,
                             UnknownFormat)
from knotfold.families import jones_torus
from knotfold.filtration import crossing_filtration, record_cloud
from knotfold.pipeline import (
    AnalysisConfig,
    InvariantCache,
    cache_key,
    compute_batch,
    default_workers,
    generate_family,
    ingest,
    record_key,
    run_analysis,
)

from conftest import FIXTURE_FILE, TABLE_POLYS
from oracles import records_cloud


# Two DT codes with valid syntax that admit no planar embedding.
UNREALIZABLE = "nr-5;5;4 6 8 10 2\nnr-6;6;2 6 8 10 12 4\n"


# Pieces of dataset lines, so that random lines get past the first checks.
LINE_FRAGMENTS = (b"3_1", b"k", b";", b"3", b"-1", b"0", b"4 6 2", b" 8", b"-",
                  b" ", b"sigma=", b"s=", b"alternating=", b"=", b"#", b",",
                  b"X(1,4,2,5)", b"(", b"99999999999999999999", b"\xff",
                  b"\r", b"\x00", b"\xe2\x80\xa8", b"\xc3\xa9")


def stub_pool(monkeypatch):
    """Patch an in-process executor into concurrent.futures; returns the
    list of max_workers it is constructed with."""
    import concurrent.futures

    sizes = []

    class StubPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
    return sizes


def count_compute_one(monkeypatch):
    """Count pipeline._compute_one calls; returns the list of record ids
    it is called for."""
    from knotfold import pipeline

    calls = []

    def counted(job, _compute_one=pipeline._compute_one):
        calls.append(job[0])
        return _compute_one(job)

    monkeypatch.setattr(pipeline, "_compute_one", counted)
    return calls


def run_cli(args, **env):
    """Run the CLI in a fresh interpreter, as a shell user would."""
    src = os.path.dirname(os.path.dirname(knotfold.__file__))
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "knotfold.cli", *args],
                          env=env, capture_output=True, text=True, timeout=300)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def bundle_bytes(out_dir):
    return {name: read_bytes(os.path.join(out_dir, name))
            for name in sorted(os.listdir(out_dir))}


class TestIngest:
    def test_fixture_file(self):
        ds = ingest([FIXTURE_FILE])
        assert len(ds.records) == 8 and not ds.rejects
        assert ds.records[1].id == "3_1"
        assert ds.records[1].payload == "4 6 2"

    def test_digest_stability(self):
        a = ingest([FIXTURE_FILE]).digest
        b = ingest([FIXTURE_FILE]).digest
        raw = read_bytes(FIXTURE_FILE)
        assert a == b == hashlib.sha256(raw).hexdigest()

    def test_rejects_with_line_numbers(self, tmp_path):
        p = tmp_path / "bad.dt"
        p.write_text("ok;3;4 6 2\n"
                     "missing-fields\n"
                     "oddball;3;4 6 3\n"
                     "negative;-1;4 6 2\n"
                     "meta;3;4 6 2;flavor=x\n")
        ds = ingest([str(p)])
        assert [r.id for r in ds.records] == ["ok"]
        assert [(lineno, reason.split(":")[0])
                for _, lineno, reason in ds.rejects] == [
            (2, "UnknownFormat"), (3, "OddEntry"),
            (4, "UnknownFormat"), (5, "UnknownFormat")]

    def test_non_utf8_line_is_quarantined(self, tmp_path):
        p = tmp_path / "bytes.dt"
        p.write_bytes(b"ok;3;4 6 2\nbad\xff;3;4 6 2\nalso;4;4 6 8 2\n")
        ds = ingest([str(p)])
        assert [r.id for r in ds.records] == ["ok", "also"]
        assert [(lineno, reason.split(":")[0])
                for _, lineno, reason in ds.rejects] == [(2, "UnknownFormat")]

    @given(st.sampled_from(["dt", "pd"]), st.lists(st.one_of(
        st.binary(max_size=24),
        st.lists(st.sampled_from(LINE_FRAGMENTS), max_size=10).map(b"".join)),
        max_size=8))
    @settings(derandomize=True, deadline=None)
    def test_random_byte_lines(self, tmp_path_factory, fmt, lines):
        """Any bytes end as records or quarantined rejects, one per data
        line, and raise nothing."""
        path = tmp_path_factory.getbasetemp() / "fuzz.dt"
        data = b"\n".join(lines)
        path.write_bytes(data)
        ds = ingest([str(path)], fmt)
        text = data.decode("utf-8", errors="surrogateescape")
        want = [n for n, line in enumerate(text.splitlines(), start=1)
                if line.strip() and not line.strip().startswith("#")]
        got = [r.lineno for r in ds.records] + [n for _, n, _ in ds.rejects]
        assert sorted(got) == want

    def test_repeated_id_is_quarantined(self, tmp_path):
        # results and failures name records by id
        a, b = tmp_path / "a.dt", tmp_path / "b.dt"
        a.write_text("3_1;3;4 6 2\n3_1;4;4 6 8 2\n4_1;4;4 6 8 2\n")
        b.write_text("4_1;4;4 8 6 2\nnew;3;4 6 2\n")
        ds = ingest([str(a), str(b)])
        assert [(r.id, r.lineno) for r in ds.records] == [
            ("3_1", 1), ("4_1", 3), ("new", 2)]
        assert ds.rejects == (
            (str(a), 2, f"DuplicateId: id '3_1' already used at {a}:1"),
            (str(b), 1, f"DuplicateId: id '4_1' already used at {a}:3"))
        records, _ = compute_batch(ds, InvariantCache(None), workers=1)
        assert records[0].jones.to_text() == TABLE_POLYS["3_1"]

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        p = tmp_path / "c.dt"
        p.write_text("# header\n\nk;3;4 6 2\n")
        assert len(ingest([str(p)]).records) == 1

    def test_meta_columns(self, tmp_path):
        p = tmp_path / "m.dt"
        p.write_text("k;3;4 6 2;sigma=-2;alternating=1\n")
        ds = ingest([str(p)])
        assert ds.records[0].meta == {"sigma": "-2", "alternating": "1"}

    def test_bad_meta_values_are_quarantined(self, tmp_path):
        """A metadata value that is not what the record claims to carry is
        refused at ingest, never cached: a knot's signature is even."""
        p = tmp_path / "m.dt"
        p.write_text("odd;3;4 6 2;sigma=5\n"
                     "yes;3;4 6 2;alternating=yes\n"
                     "word;3;4 6 2;sigma=x\n"
                     "frac;3;4 6 2;s=1.5\n"
                     "ok;3;4 6 2;sigma=-2;s=3;alternating=False\n")
        ds = ingest([str(p)])
        assert [r.id for r in ds.records] == ["ok"]
        assert [(lineno, reason) for _, lineno, reason in ds.rejects] == [
            (1, "UnknownFormat: sigma must be an even integer, got '5'"),
            (2, "UnknownFormat: alternating must be one of "
                "0/1/true/false/True/False, got 'yes'"),
            (3, "UnknownFormat: sigma must be an even integer, got 'x'"),
            (4, "UnknownFormat: s must be an integer, got '1.5'")]

    def test_missing_file(self):
        with pytest.raises(Unreadable):
            ingest(["/nonexistent/file.dt"])

    def test_unknown_format(self):
        with pytest.raises(UnknownFormat):
            ingest([FIXTURE_FILE], format="gauss")


class TestComputeBatch:
    def test_table_polynomials_cached(self, tmp_path):
        ds = ingest([FIXTURE_FILE])
        cache = InvariantCache(str(tmp_path / "cache.txt"))
        records, failures = compute_batch(ds, cache, workers=1)
        assert not failures and len(records) == 8
        by_id = {r.id: r for r in records}
        for name, text in TABLE_POLYS.items():
            assert by_id[name].jones.to_text() == text, name
            assert not by_id[name].mirror_applied, name

    def test_warm_rerun_recomputes_nothing(self, tmp_path):
        ds = ingest([FIXTURE_FILE])
        path = str(tmp_path / "cache.txt")
        compute_batch(ds, InvariantCache(path), workers=1)
        first = read_bytes(path)
        cache = InvariantCache(path)
        assert all(cache.get(record_key("dt", "a", r)) for r in ds.records)
        records, failures = compute_batch(ds, cache, workers=1)
        assert len(records) == 8 and not failures
        assert read_bytes(path) == first

    def test_worker_count_does_not_change_cache(self, tmp_path):
        ds = ingest([FIXTURE_FILE])
        p1, p2 = str(tmp_path / "c1.txt"), str(tmp_path / "c2.txt")
        compute_batch(ds, InvariantCache(p1), workers=1)
        compute_batch(ds, InvariantCache(p2), workers=3)
        assert read_bytes(p1) == read_bytes(p2)

    def test_crash_resume_equivalence(self, tmp_path):
        """A cache truncated mid-run resumes to the same final bytes."""
        ds = ingest([FIXTURE_FILE])
        full = str(tmp_path / "full.txt")
        compute_batch(ds, InvariantCache(full), workers=1)
        partial = str(tmp_path / "partial.txt")
        with open(full) as src, open(partial, "w") as dst:
            for line in list(src)[:3]:
                dst.write(line)
        compute_batch(ds, InvariantCache(partial), workers=1)
        assert read_bytes(partial) == read_bytes(full)

    def test_bracket_needs_no_division(self, tmp_path):
        """The sweep returns the bracket itself: LaurentPolynomial has no
        division, and no package function named for one runs in a batch,
        which gives the same records and cache bytes as an unwatched one."""
        from knotfold.laurent import LaurentPolynomial

        assert [a for a in dir(LaurentPolynomial) if "div" in a] == []
        ds = ingest([FIXTURE_FILE])
        p1, p2 = str(tmp_path / "c1.txt"), str(tmp_path / "c2.txt")
        want = compute_batch(ds, InvariantCache(p1), workers=1)

        package = os.path.dirname(knotfold.__file__)
        called = set()

        def watch(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                called.add(frame.f_code.co_name)

        sys.setprofile(watch)
        try:
            got = compute_batch(ds, InvariantCache(p2), workers=1)
        finally:
            sys.setprofile(None)
        assert "kauffman_bracket" in called
        assert [name for name in called if "div" in name] == []
        assert got == want
        assert read_bytes(p1) == read_bytes(p2)

    def test_torn_last_line_resumes_to_same_bytes(self, tmp_path):
        """A cache cut at any byte, inside its header or any line, resumes
        to the bytes and outcomes of an uninterrupted run."""
        p = tmp_path / "ds.dt"
        with open(FIXTURE_FILE) as fh:  # 0_1, 3_1 and 4_1
            p.write_text("".join(fh.readlines()[:4]) + UNREALIZABLE)
        ds = ingest([str(p)])
        full = tmp_path / "full.txt"
        want = compute_batch(ds, InvariantCache(str(full)), workers=1,
                             max_failure_fraction=1.0)
        assert len(want[0]) == 3 and len(want[1]) == 2
        data = full.read_bytes()
        torn = tmp_path / "torn.txt"
        for cut in range(len(data)):
            torn.write_bytes(data[:cut])
            got = compute_batch(ds, InvariantCache(str(torn)), workers=1,
                                max_failure_fraction=1.0)
            assert got == want, cut
            assert torn.read_bytes() == data, cut

    def test_undecodable_cache_line_skipped(self, tmp_path):
        ds = ingest([FIXTURE_FILE])
        path = tmp_path / "cache.txt"
        compute_batch(ds, InvariantCache(str(path)), workers=1)
        lines = path.read_text().splitlines(keepends=True)
        rid, key, _ = lines[1].split(";", 2)
        lines[1] = f"{rid};{key};1*q^;?;1;0\n"
        path.write_text("".join(lines))
        cache = InvariantCache(str(path))
        assert cache.get(key) is None
        records, failures = compute_batch(ds, cache, workers=1)
        assert len(records) == 8 and not failures

    def test_failures_surface_and_raise(self, tmp_path):
        p = tmp_path / "bad.dt"
        p.write_text("good;3;4 6 2\nbroken;5;4 6 8 10 2\n")
        ds = ingest([str(p)])
        cache = InvariantCache(None)
        with pytest.raises(KnotfoldError):
            compute_batch(ds, cache, workers=1)
        records, failures = compute_batch(ds, cache, workers=1,
                                          max_failure_fraction=0.5)
        assert [r.id for r in records] == ["good"]
        assert failures[0][0] == "broken"

    def test_meta_overrides(self, tmp_path):
        p = tmp_path / "m.dt"
        p.write_text("k;3;4 6 2;sigma=-2;s=-2\n")
        ds = ingest([str(p)])
        records, _ = compute_batch(ds, InvariantCache(None), workers=1)
        # the supplied sigma = -2 forces a mirror during canonicalization
        assert records[0].sigma == 2 and records[0].mirror_applied

    def test_pool_capped_at_job_count(self, tmp_path, monkeypatch):
        """A forked pool starts all its workers at once, so it gets no more
        workers than there are uncached records, and none for one."""
        sizes = stub_pool(monkeypatch)
        p = tmp_path / "three.dt"
        with open(FIXTURE_FILE) as fh:
            p.write_text("".join(fh.readlines()[2:5]))
        ds = ingest([str(p)])
        cache = InvariantCache(None)
        records, failures = compute_batch(ds, cache, workers=64)
        assert sizes == [3] and len(records) == 3 and not failures
        del cache.entries[record_key("dt", "a", ds.records[0])]
        del cache.entries[record_key("dt", "a", ds.records[2])]
        compute_batch(ds, cache, workers=64)
        assert sizes == [3, 2]
        del cache.entries[record_key("dt", "a", ds.records[1])]
        compute_batch(ds, cache, workers=64)
        assert sizes == [3, 2]

    def test_warm_run_starts_no_pool(self, tmp_path, monkeypatch):
        """Failures are cached with results: a warm run constructs no
        executor, computes nothing and returns the cold run's failures, and
        the warm CLI prints them and exits 2 as the cold one does."""
        sizes = stub_pool(monkeypatch)
        calls = count_compute_one(monkeypatch)
        p = tmp_path / "ds.dt"
        with open(FIXTURE_FILE) as fh:
            p.write_text(fh.read() + UNREALIZABLE)
        ds = ingest([str(p)])
        path = str(tmp_path / "cache.txt")
        cold = compute_batch(ds, InvariantCache(path), workers=2,
                             max_failure_fraction=1.0)
        assert sizes == [2] and len(calls) == 10
        assert [rid for rid, _ in cold[1]] == ["nr-5", "nr-6"]
        warm = compute_batch(ds, InvariantCache(path), workers=2,
                             max_failure_fraction=1.0)
        assert sizes == [2] and len(calls) == 10
        assert warm == cold

        args = ["compute", str(p), "--cache", str(tmp_path / "cli.txt"),
                "--workers", "2"]
        first, second = (CliRunner().invoke(main, args) for _ in range(2))
        assert first.exit_code == second.exit_code == 2
        assert "failure nr-6: NotRealizable:" in first.output
        assert second.output == first.output
        assert sizes == [2, 2] and len(calls) == 20

    def test_convention_is_part_of_the_key(self, tmp_path):
        """A convention-b run on a cache written under convention a
        computes its own lines, byte-identical to a fresh b run's."""
        ds = ingest([FIXTURE_FILE])
        mixed, fresh = tmp_path / "mixed.txt", tmp_path / "fresh.txt"
        compute_batch(ds, InvariantCache(str(mixed)), workers=1,
                      convention="a")
        first = mixed.read_bytes()
        got = compute_batch(ds, InvariantCache(str(mixed)), workers=1,
                            convention="b")
        want = compute_batch(ds, InvariantCache(str(fresh)), workers=1,
                             convention="b")
        assert got == want
        header = first[:first.index(b"\n") + 1]
        assert mixed.read_bytes() == first + fresh.read_bytes()[len(header):]

    def test_unchanged_records_reuse_their_lines(self, tmp_path,
                                                 monkeypatch):
        """Neither the id nor the dataset is in a record's key: renamed
        records in a new dataset are served from the cache under their new
        ids, and only a record with new content is computed."""
        path = str(tmp_path / "cache.txt")
        old = compute_batch(ingest([FIXTURE_FILE]), InvariantCache(path),
                            workers=1)[0]
        p = tmp_path / "renamed.dt"
        with open(FIXTURE_FILE) as fh:
            p.write_text("".join("x" + line for line in fh.readlines()[1:])
                         + "new;3;4 6 2;sigma=-2\n")
        calls = count_compute_one(monkeypatch)
        records, _ = compute_batch(ingest([str(p)]), InvariantCache(path),
                                   workers=1)
        assert calls == ["new"]
        assert [r.id for r in records] == ["x" + r.id for r in old] + ["new"]
        assert [(r.jones, r.sigma) for r in records[:-1]] == \
            [(r.jones, r.sigma) for r in old]


class TestComputeOne:
    def test_one_walk_per_diagram(self, monkeypatch):
        """A record traces its diagram's dart mate, orientation and faces
        once; realization, bracket, writhe, signature and the alternation
        check share them."""
        from knotfold import diagrams
        from knotfold.families import double_twist_diagram
        from knotfold.pipeline import _compute_one

        code = min(diagrams.all_dt_codes(double_twist_diagram(6, 9)))
        assert len(code) == 15
        calls = {}
        for name in ("_dart_mate", "_orientation", "_faces"):
            def counted(*args, _name=name, _fn=getattr(diagrams, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(diagrams, name, counted)
        payload = " ".join(map(str, code))
        line = _compute_one(("k", "key", "dt", payload, "a", {}))
        assert line.startswith("k;key;") and ";!;" not in line
        assert calls == {"_dart_mate": 1, "_orientation": 1, "_faces": 1}


def fixture_pd_text():
    """The fixture dataset with each DT code replaced by the PD text of
    its realized diagram; 0_1 gets an empty code."""
    lines = []
    with open(FIXTURE_FILE) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rid, crossings, code = line.strip().split(";")
            pd = " ".join("X({},{},{},{})".format(*cr)
                          for cr in realize_dt(parse_dt(code)).crossings)
            lines.append(f"{rid};{crossings};{pd}\n")
    return "".join(lines)


class TestPDDataset:
    def test_same_records_as_dt(self, tmp_path):
        p = tmp_path / "fixtures.pd"
        p.write_text(fixture_pd_text())
        ds = ingest([str(p)], "pd")
        assert len(ds.records) == 8 and not ds.rejects
        assert ds.records[0].payload == ""
        got = compute_batch(ds, InvariantCache(None), workers=1)
        want = compute_batch(ingest([FIXTURE_FILE]), InvariantCache(None),
                             workers=1)
        assert got == want and not got[1]

    def test_convention_not_in_the_key(self, tmp_path, monkeypatch):
        """Computing a PD record does not read the DT sign convention, so a
        convention-b run on a cache written under convention a computes
        nothing and appends nothing."""
        p, cache = tmp_path / "fixtures.pd", tmp_path / "cache.txt"
        p.write_text(fixture_pd_text())
        args = ["compute", "--format", "pd", str(p), "--cache", str(cache),
                "--workers", "1", "--dt-sign-convention"]
        first = CliRunner().invoke(main, args + ["a"])
        assert first.exit_code == 0, first.output
        written = cache.read_bytes()
        calls = count_compute_one(monkeypatch)
        second = CliRunner().invoke(main, args + ["b"])
        assert second.exit_code == 0, second.output
        assert calls == [] and cache.read_bytes() == written
        assert second.output == first.output

    def test_dt_keys_keep_the_convention(self):
        """A DT record's key is still the hash over the schema version,
        format, convention, payload and metadata, so existing DT caches
        stay valid."""
        rec = ingest([FIXTURE_FILE]).records[1]
        for convention in ("a", "b"):
            assert record_key("dt", convention, rec) == cache_key(
                "dt", convention, rec.payload, sorted(rec.meta.items()))

    def test_cli_reports_malformed_line(self, tmp_path):
        p = tmp_path / "fixtures.pd"
        p.write_text(fixture_pd_text() + "bad;3;X(1,2,3)\n")
        result = CliRunner().invoke(main, ["ingest", "--format", "pd", str(p)])
        assert result.exit_code == 0
        assert "records 8 rejects 1" in result.stdout
        assert result.stderr.startswith(
            f"reject {p}:9 BadArcMultiplicity: ")


# 8_19, the torus knot T(3, 4): the smallest non-alternating knot.
T34 = "8_19;8;4 8 -12 2 -14 -16 -6 -10"


class TestNonAlternating:
    def test_computed(self, tmp_path):
        p = tmp_path / "t34.dt"
        p.write_text(T34 + "\n")
        (rec,), _ = compute_batch(ingest([str(p)]), InvariantCache(None),
                                  workers=1)
        assert rec.alternating is False and rec.sigma == 6
        assert rec.jones == jones_torus(3, 4)

    def test_alternating_override_is_cached(self, tmp_path):
        p = tmp_path / "t34.dt"
        p.write_text(T34 + ";alternating=1\n")
        path = tmp_path / "cache.txt"
        (rec,), _ = compute_batch(ingest([str(p)]), InvariantCache(str(path)),
                                  workers=1)
        assert rec.alternating is True
        assert path.read_text().splitlines()[1].split(";")[4] == "1"

    def test_nonalternating_filtration_step(self, tmp_path):
        p = tmp_path / "ds.dt"
        with open(FIXTURE_FILE) as fh:
            p.write_text(fh.read() + T34 + "\n")
        records, _ = compute_batch(ingest([str(p)]), InvariantCache(None),
                                   workers=1)
        steps = list(crossing_filtration(record_cloud(records), 3, 8,
                                         "nonalternating"))
        assert [s.label for s in steps] == ["8"]
        assert steps[-1].cloud.row_ids == ("8_19",)


class TestDefaultWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("KNOTFOLD_WORKERS", "3")
        assert default_workers() == 3

    def test_floor_of_one(self, monkeypatch):
        monkeypatch.setenv("KNOTFOLD_WORKERS", "0")
        assert default_workers() == 1

    def test_non_integer_env(self, monkeypatch):
        monkeypatch.setenv("KNOTFOLD_WORKERS", "abc")
        with pytest.raises(BadEnvironment, match="KNOTFOLD_WORKERS.*'abc'"):
            default_workers()


class TestGenerateFamily:
    def test_torus_counts(self):
        digest, records = generate_family("torus", 7)
        assert digest == "torus-7"
        assert [r.id for r in records] == ["T(2,3)", "T(2,5)", "T(2,7)"]
        assert all(r.alternating for r in records)

    def test_double_twist_counts(self):
        _, records = generate_family("double_twist", 5)
        assert [r.id for r in records] == \
            ["C(1,2)", "C(2,2)", "C(1,4)", "C(2,3)"]

    def test_records_canonical(self):
        from knotfold.cloud import canonical_orientation

        for _, records in (generate_family("torus", 12),
                           generate_family("double_twist", 8)):
            for r in records:
                assert canonical_orientation(r) is r, r.id

    def test_cache_population(self, tmp_path):
        path = str(tmp_path / "fam.txt")
        generate_family("torus", 7, InvariantCache(path))
        cache = InvariantCache(path)
        assert cache.get(cache_key("torus", "T(2,3)")) is not None

    def test_regenerate_formats_nothing(self, tmp_path, monkeypatch):
        """A second generate into the same file writes nothing and formats
        no line for the records the file already holds."""
        from knotfold.laurent import LaurentPolynomial

        path = tmp_path / "fam.txt"
        args = ["generate", "--family", "double-twist", "--max-crossings",
                "12", "--cache", str(path)]
        assert CliRunner().invoke(main, args).exit_code == 0
        first = path.read_bytes()
        assert first.count(b"\n") == 1 + 24  # the header, then the members
        calls = []
        to_text = LaurentPolynomial.to_text

        def counted(self, *args):
            calls.append(self)
            return to_text(self, *args)

        monkeypatch.setattr(LaurentPolynomial, "to_text", counted)
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0 and "generated 24 knots" in result.output
        assert path.read_bytes() == first and calls == []

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            generate_family("torus", 2)
        with pytest.raises(UnknownFormat):
            generate_family("pretzel", 7)


EXPECTED_BUNDLE = {"trajectory.csv", "angles.csv", "spread.csv",
                   "projection.csv", "run_manifest",
                   "histogram_alternating.csv",
                   "histogram_nonalternating.csv",
                   "histogram_combined.csv"}


class TestRunAnalysis:
    def _cloud(self):
        ds = ingest([FIXTURE_FILE])
        records, _ = compute_batch(ds, InvariantCache(None), workers=1)
        return record_cloud(records)

    def test_bundle_contract(self, tmp_path):
        out = str(tmp_path / "rep")
        spectra = run_analysis(self._cloud(), AnalysisConfig(), out,
                               digests=["x"])
        names = set(os.listdir(out))
        assert EXPECTED_BUNDLE | {f"spectrum_step_{s.label}" + ".csv"
                                  for s in spectra} == names
        with open(os.path.join(out, "run_manifest")) as fh:
            manifest = json.load(fh)
        assert manifest["record_count"] == 8
        assert manifest["dataset_digests"] == ["x"]
        assert [s["label"] for s in manifest["steps"]] == ["3", "4", "5", "6"]
        assert "time" not in json.dumps(manifest)

    def test_rerun_byte_identical(self, tmp_path):
        cloud = self._cloud()
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_analysis(cloud, AnalysisConfig(), a)
        run_analysis(cloud, AnalysisConfig(), b)
        assert bundle_bytes(a) == bundle_bytes(b)

    def test_norm_filtration_bundle(self, tmp_path):
        out = str(tmp_path / "norm")
        spectra = run_analysis(self._cloud(),
                               AnalysisConfig(filtration="norm", levels=3),
                               out)
        assert [s.label for s in spectra] == ["r_2", "r_1", "r_0"]
        assert os.path.exists(os.path.join(out, "spectrum_step_r_0.csv"))

    @pytest.mark.parametrize("kind", ["crossing", "norm"])
    def test_one_filtration_pass(self, tmp_path, monkeypatch, kind):
        """A run walks its filtration once; the histogram and projection
        come from the top step of that walk, not from a second pass."""
        from knotfold import filtration

        calls = []
        for name in ("crossing_filtration", "norm_filtration"):
            def counted(*args, _name=name, _fn=getattr(filtration, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(filtration, name, counted)
        out = tmp_path / "rep"
        run_analysis(self._cloud(), AnalysisConfig(filtration=kind, k_max=5),
                     str(out))
        assert calls == [f"{kind}_filtration"]
        rows = 5 if kind == "crossing" else 8
        assert len((out / "projection.csv").read_text().splitlines()) == \
            rows + 1

    def test_no_steps_raises(self, tmp_path):
        with pytest.raises(KnotfoldError):
            run_analysis(self._cloud(),
                         AnalysisConfig(class_filter="nonalternating"),
                         str(tmp_path / "x"))


class TestCli:
    def test_ingest(self):
        result = CliRunner().invoke(main, ["ingest", FIXTURE_FILE])
        assert result.exit_code == 0
        assert "records 8 rejects 0" in result.output

    def test_compute_and_analyze(self, tmp_path):
        runner = CliRunner()
        cache = str(tmp_path / "cache.txt")
        result = runner.invoke(main, ["compute", FIXTURE_FILE,
                                      "--cache", cache, "--workers", "1"])
        assert result.exit_code == 0, result.output
        assert "computed 8 records, 0 failures" in result.output
        out = str(tmp_path / "rep")
        result = runner.invoke(main, ["analyze", FIXTURE_FILE,
                                      "--cache", cache, "--out", out])
        assert result.exit_code == 0, result.output
        assert "step 6: n=8 d=11" in result.output
        assert os.path.exists(os.path.join(out, "run_manifest"))

    def test_compute_failure_exit_code(self, tmp_path):
        p = tmp_path / "bad.dt"
        p.write_text("broken;5;4 6 8 10 2\n")
        result = CliRunner().invoke(
            main, ["compute", str(p), "--cache", str(tmp_path / "c.txt"),
                   "--workers", "1"])
        assert result.exit_code == 2

    def test_generate(self, tmp_path):
        result = CliRunner().invoke(
            main, ["generate", "--family", "torus", "--max-crossings", "7",
                   "--cache", str(tmp_path / "c.txt")])
        assert result.exit_code == 0
        assert "generated 3 knots" in result.output

    def test_analyze_family(self, tmp_path):
        out = str(tmp_path / "rep")
        result = CliRunner().invoke(
            main, ["analyze", "--family", "double-twist",
                   "--max-crossings", "8", "--kmin", "3", "--kmax", "8",
                   "--out", out])
        assert result.exit_code == 0, result.output
        assert os.path.exists(os.path.join(out, "trajectory.csv"))

    def test_analyze_family_leaves_cache_untouched(self, tmp_path):
        """Family runs recompute from the closed forms: --cache is neither
        created nor read, and the bundle is the one a cacheless run
        writes."""
        args = ["analyze", "--family", "double-twist", "--max-crossings",
                "12", "--kmin", "3", "--kmax", "12"]
        cache = tmp_path / "c.txt"
        with_cache, without = str(tmp_path / "a"), str(tmp_path / "b")
        result = CliRunner().invoke(
            main, args + ["--cache", str(cache), "--out", with_cache])
        assert result.exit_code == 0, result.output
        assert not cache.exists()
        result = CliRunner().invoke(main, args + ["--out", without])
        assert result.exit_code == 0, result.output
        assert bundle_bytes(with_cache) == bundle_bytes(without)

    def test_analyze_family_builds_no_member_objects(self, tmp_path,
                                                     monkeypatch):
        """analyze --family writes each member's row straight from its
        closed form: no LaurentPolynomial or KnotRecord is constructed on
        the way."""
        from knotfold import cloud as cloud_module
        from knotfold.laurent import LaurentPolynomial

        built = []

        def counting(cls, name):
            original = cls.__dict__[name]
            if isinstance(original, classmethod):
                fn = original.__func__

                def counted(klass, *args, **kwargs):
                    built.append(cls.__name__)
                    return fn(klass, *args, **kwargs)
                return classmethod(counted)

            def counted_init(self, *args, **kwargs):
                built.append(cls.__name__)
                return original(self, *args, **kwargs)
            return counted_init

        for cls, name in ((LaurentPolynomial, "__init__"),
                          (LaurentPolynomial, "_trusted"),
                          (cloud_module.KnotRecord, "__init__")):
            monkeypatch.setattr(cls, name, counting(cls, name))
        out = str(tmp_path / "rep")
        result = CliRunner().invoke(
            main, ["analyze", "--family", "double-twist", "--max-crossings",
                   "21", "--kmin", "21", "--kmax", "21", "--out", out])
        assert result.exit_code == 0, result.output
        assert "step 21: n=" in result.output
        assert built == []
        _, records = generate_family("double_twist", 21)  # the counters count
        assert built.count("KnotRecord") >= len(records) > 0

    def test_analyze_torus_matches_record_path(self, tmp_path):
        """analyze --family torus writes the bundle that run_analysis
        writes over the cloud of generate_family's records, for each class
        filter and for the norm filtration."""
        digest, records = generate_family("torus", 60)
        for extra, config in (
                (["--class", "alt"], AnalysisConfig(
                    k_min=20, k_max=60, class_filter="alternating")),
                (["--class", "nonalt"], AnalysisConfig(
                    k_min=20, k_max=60, class_filter="nonalternating")),
                (["--filtration", "norm", "--levels", "3"], AnalysisConfig(
                    filtration="norm", k_min=20, k_max=60, levels=3))):
            got, want = tmp_path / "cli", tmp_path / "records"
            result = CliRunner().invoke(
                main, ["analyze", "--family", "torus", "--max-crossings",
                       "60", "--kmin", "20", "--kmax", "60", *extra,
                       "--out", str(got)])
            assert result.exit_code == 0, result.output
            run_analysis(records_cloud(records), config, str(want),
                         digests=[digest])
            assert bundle_bytes(got) == bundle_bytes(want), extra

    def test_analyze_family_manifest_digest(self, tmp_path):
        out = str(tmp_path / "rep")
        result = CliRunner().invoke(
            main, ["analyze", "--family", "double-twist",
                   "--max-crossings", "12", "--kmin", "12", "--kmax", "12",
                   "--out", out])
        assert result.exit_code == 0, result.output
        with open(os.path.join(out, "run_manifest")) as fh:
            manifest = json.load(fh)
        digest, _ = generate_family("double_twist", 12)
        assert manifest["dataset_digests"] == [digest]

    def test_analyze_family_needs_max_crossings(self, tmp_path):
        result = CliRunner().invoke(
            main, ["analyze", "--family", "torus",
                   "--out", str(tmp_path / "rep")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "--max-crossings" in result.output

    @pytest.mark.parametrize("args", [
        ["analyze", "--family", "torus", "--max-crossings", "2"],
        ["analyze", FIXTURE_FILE, "--kmin", "5", "--kmax", "3"],
        ["analyze", FIXTURE_FILE, "--filtration", "norm", "--levels", "0"],
        ["analyze", FIXTURE_FILE, "--bins", "0"],
        ["generate", "--family", "torus", "--max-crossings", "2"],
    ])
    def test_bad_option_is_usage_error(self, tmp_path, args):
        extra = (["--cache", str(tmp_path / "c.txt")] if args[0] == "generate"
                 else ["--out", str(tmp_path / "rep")])
        result = CliRunner().invoke(main, args + extra)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command", ["compute", "analyze"])
    def test_non_integer_workers_env(self, tmp_path, command):
        extra = (["--cache", str(tmp_path / "c.txt")] if command == "compute"
                 else ["--out", str(tmp_path / "rep")])
        result = run_cli([command, FIXTURE_FILE] + extra,
                         KNOTFOLD_WORKERS="abc")
        assert result.returncode == 2
        assert "KNOTFOLD_WORKERS must be an integer, got 'abc'" in result.stderr
        assert "Traceback" not in result.stderr

    def test_negative_workers_option(self, tmp_path):
        result = run_cli(["compute", FIXTURE_FILE, "--cache",
                          str(tmp_path / "c.txt"), "--workers", "-3"])
        assert result.returncode == 2
        assert "--workers" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "c.txt").exists()

    @pytest.mark.parametrize("threshold", ["0", "2", "-0.5", "nan", "inf"])
    def test_variance_threshold_out_of_range(self, tmp_path, threshold):
        result = CliRunner().invoke(
            main, ["analyze", FIXTURE_FILE, "--variance-threshold", threshold,
                   "--out", str(tmp_path / "rep")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "--variance-threshold" in result.output

    @pytest.mark.parametrize("threshold", ["1.0", "0.95"])
    def test_variance_threshold_in_range(self, tmp_path, threshold):
        result = CliRunner().invoke(
            main, ["analyze", FIXTURE_FILE, "--variance-threshold", threshold,
                   "--out", str(tmp_path / "rep")])
        assert result.exit_code == 0, result.output
        assert "step 6: n=8 d=11" in result.output

    def test_analyze_error_exit_code(self, tmp_path):
        result = CliRunner().invoke(
            main, ["analyze", FIXTURE_FILE, "--class", "nonalt",
                   "--out", str(tmp_path / "rep")])
        assert result.exit_code == 1
        assert "error:" in result.output

    @pytest.mark.parametrize("args, code, named", [
        (["ingest", "{dir}"], 1, "{dir}"),
        (["compute", "{dir}", "--cache", "{tmp}/c.txt"], 1, "{dir}"),
        (["compute", FIXTURE_FILE, "--cache", "{dir}"], 1, "{dir}"),
        (["generate", "--family", "torus", "--max-crossings", "7",
          "--cache", "{dir}"], 1, "{dir}"),
        (["analyze", FIXTURE_FILE, "--cache", "{dir}", "--out", "{tmp}/rep"],
         1, "{dir}"),
        (["analyze", FIXTURE_FILE, "--out", "{old}"], 1, "{old}"),
        (["compute", FIXTURE_FILE, "--cache", "{old}"], 1, "{old}"),
        (["analyze", FIXTURE_FILE, "--cache", "{old}", "--out", "{tmp}/rep"],
         1, "{old}"),
        (["export", "--what", "trajectory", "--out", "{tmp}/none"], 2,
         "{tmp}/none"),
    ])
    def test_error_without_traceback(self, tmp_path, args, code, named):
        """A directory where a file belongs, an existing file as --out, a
        missing bundle and a cache without this schema's header end as one
        error naming the path, never a traceback; the cache is left as it
        was."""
        (tmp_path / "dir").mkdir()
        old = tmp_path / "old.txt"  # a cache line of the headerless layout
        old.write_text("3_1;" + "0" * 64 + ";-1*q^4 + 1*q^3 + 1*q^1;2;1;0\n")
        before = old.read_bytes()
        paths = {"dir": tmp_path / "dir", "old": old, "tmp": tmp_path}
        result = run_cli([a.format(**paths) for a in args])
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr
        assert "error" in result.stderr.lower()
        assert named.format(**paths) in result.stderr
        assert old.read_bytes() == before

    def test_unusable_out_computes_nothing(self, tmp_path):
        """An --out that cannot be a directory is refused before any
        record is computed into the cache."""
        out, cache = tmp_path / "file", tmp_path / "cx.txt"
        out.write_text("")
        result = run_cli(["analyze", FIXTURE_FILE, "--cache", str(cache),
                          "--out", str(out)])
        assert result.returncode == 1
        assert "cannot create report directory" in result.stderr
        assert not cache.exists()

    def test_export(self, tmp_path):
        runner = CliRunner()
        out = str(tmp_path / "rep")
        runner.invoke(main, ["analyze", FIXTURE_FILE, "--out", out])
        result = runner.invoke(main, ["export", "--what", "trajectory",
                                      "--out", out])
        assert result.exit_code == 0
        assert result.output.startswith("step,component,lambda_bar")

    def test_export_spectrum_in_step_order(self, tmp_path):
        """export --what spectrum prints one block per step in the
        run_manifest's order, which for the norm filtration is not the
        files' name order."""
        runner = CliRunner()
        out = tmp_path / "rep"
        result = runner.invoke(main, ["analyze", FIXTURE_FILE, "--filtration",
                                      "norm", "--levels", "3",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        labels = [s["label"] for s in
                  json.loads((out / "run_manifest").read_text())["steps"]]
        assert labels == ["r_2", "r_1", "r_0"]
        result = runner.invoke(main, ["export", "--what", "spectrum",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output == "".join(
            (out / f"spectrum_step_{label}.csv").read_text()
            for label in labels)

    @pytest.mark.parametrize("what, damage, named", [
        ("spectrum", lambda out: (out / "run_manifest").write_text('{"ste'),
         "run_manifest"),
        ("spectrum", lambda out: (out / "run_manifest").write_text("{}"),
         "run_manifest"),
        ("spectrum", lambda out: (out / "spectrum_step_4.csv").unlink(),
         "spectrum_step_4.csv"),
        ("histogram", lambda out: (out / "histogram_z").mkdir(),
         "histogram_z"),
    ], ids=["truncated_manifest", "manifest_without_steps",
            "missing_step_file", "directory_artifact"])
    def test_export_damaged_bundle(self, tmp_path, what, damage, named):
        """A damaged bundle ends as one error line naming the file, with
        exit status 1, never a traceback."""
        runner = CliRunner()
        out = tmp_path / "rep"
        assert runner.invoke(main, ["analyze", FIXTURE_FILE,
                                    "--out", str(out)]).exit_code == 0
        damage(out)
        result = runner.invoke(main, ["export", "--what", what,
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        error = result.stderr.splitlines()
        assert len(error) == 1 and error[0].startswith("error: ")
        assert str(out / named) in error[0]


def test_bundle_independent_of_blas_threads(tmp_path):
    """PCA's BLAS and LAPACK calls run on one thread, so
    OPENBLAS_NUM_THREADS does not reach the report; torus <= 100 differs in
    its last digits when they are left multi-threaded."""
    bundles = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"rep{threads}")
        run_cli(["analyze", "--family", "torus", "--max-crossings", "100",
                 "--kmin", "100", "--kmax", "100", "--out", out],
                OPENBLAS_NUM_THREADS=threads).check_returncode()
        bundles.append(bundle_bytes(out))
    assert bundles[0] == bundles[1]
