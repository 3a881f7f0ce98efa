"""Dataset ingestion, cached invariant computation, and analysis runs.

Input files are line oriented: ``id;crossing_number;code`` with optional
trailing ``key=value`` fields (sigma, s, alternating).  The cache is an
append-only text file: a schema header line, then one line per outcome,
``id;key;jones;sigma;alternating;mirror_applied`` for a result and
``id;key;!;Class: message`` for a failure.  ``key`` is a content hash of
everything the outcome depends on, so a cache hit is bit-identical to
recomputation and interrupted runs resume cleanly.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass

from .bracket import jones
from .cloud import KnotRecord, canonical_orientation
from .diagrams import is_alternating, parse_dt, parse_pd, realize_dt
from .errors import (
    BadEnvironment,
    DuplicateId,
    KnotfoldError,
    Unreadable,
    UnknownFormat,
)
from .families import family_members, jones_double_twist, jones_torus
from .laurent import LaurentPolynomial, text_pattern
from .signature import signature_from_diagram

FORMATS = ("dt", "pd")

# The metadata columns, each with the values it takes.
_ALTERNATING = ("0", "1", "true", "false", "True", "False")
_META_VALUES = {"sigma": "an even integer", "s": "an integer",
                "alternating": f"one of {'/'.join(_ALTERNATING)}"}

# Part of every cache key and of the cache header; see InvariantCache.
SCHEMA_VERSION = 1
_HEADER = f"knotfold invariant cache, schema {SCHEMA_VERSION}\n".encode()

# One cache line after the header: id;key;jones;sigma;alternating;mirror_applied
# with the Jones polynomial in the text form LaurentPolynomial.to_text writes,
# or id;key;!;Class: message for a record that failed.
_CACHE_LINE_RE = re.compile(
    rf"[^;]+;[0-9a-f]{{64}};(?:{text_pattern('q')};(?:\?|-?\d+)"
    r";[01];[01]|!;[A-Za-z_]\w*: .*)")


@dataclass(frozen=True)
class RawRecord:
    id: str
    crossing_number: int
    payload: str
    meta: dict
    lineno: int


@dataclass(frozen=True)
class Dataset:
    format: str
    digest: str
    records: tuple
    rejects: tuple  # (path, lineno, reason)


def _parse_line(line, lineno):
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise UnknownFormat("line is not valid UTF-8") from None
    parts = [p.strip() for p in line.split(";")]
    if len(parts) < 3:
        raise UnknownFormat("expected id;crossing_number;code")
    rid, xing, payload = parts[0], parts[1], parts[2]
    if not rid:
        raise UnknownFormat("empty id")
    try:
        crossings = int(xing)
    except ValueError:
        raise UnknownFormat(f"bad crossing number {xing!r}") from None
    if crossings < 0:
        raise UnknownFormat("negative crossing number")
    meta = {}
    for extra in parts[3:]:
        if not extra:
            continue
        key, _, value = extra.partition("=")
        key = key.strip()
        if key not in _META_VALUES:
            raise UnknownFormat(f"unknown metadata column {key!r}")
        value = value.strip()
        try:
            # a knot's signature is even
            valid = (value in _ALTERNATING if key == "alternating"
                     else int(value) % (2 if key == "sigma" else 1) == 0)
        except ValueError:
            valid = False
        if not valid:
            raise UnknownFormat(
                f"{key} must be {_META_VALUES[key]}, got {value!r}")
        meta[key] = value
    return RawRecord(rid, crossings, payload, meta, lineno)


def ingest(paths, format="dt", convention="a"):
    """Parse dataset files, quarantining malformed lines with line numbers.

    Results, failures and reports name records by id, so a line reusing
    the id of an earlier record, in the same file or an earlier one, is
    quarantined too.  ``convention`` is not read: parsing a DT code does
    not depend on its sign convention.
    """
    import hashlib  # OpenSSL's libcrypto maps only where a sha256 is taken

    if format not in FORMATS:
        raise UnknownFormat(f"unknown dataset format {format!r}")
    digest = hashlib.sha256()
    records = []
    rejects = []
    first_seen = {}  # record id -> (path, lineno) of the record kept
    for path in paths:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise Unreadable(f"cannot read {path}: {exc}") from None
        digest.update(data)
        # Undecodable bytes become lone surrogates, so line numbers stay
        # those of the readable file and only the offending line is lost.
        text = data.decode("utf-8", errors="surrogateescape")
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                rec = _parse_line(stripped, lineno)
                # parse the code now so bad payloads are quarantined here
                if format == "dt":
                    parse_dt(rec.payload)
                else:
                    parse_pd(rec.payload)
                if rec.id in first_seen:
                    raise DuplicateId("id {!r} already used at {}:{}".format(
                        rec.id, *first_seen[rec.id]))
            except (KnotfoldError, ValueError) as exc:
                rejects.append((path, lineno, f"{type(exc).__name__}: {exc}"))
                continue
            first_seen[rec.id] = (path, lineno)
            records.append(rec)
    return Dataset(format, digest.hexdigest(), tuple(records),
                   tuple(rejects))


def cache_key(*fields):
    """The cache key of an outcome that is a function of exactly these
    fields: a sha256 over the schema version and the fields, as JSON."""
    import hashlib

    text = json.dumps([SCHEMA_VERSION, *fields])
    return hashlib.sha256(text.encode()).hexdigest()


def record_key(fmt, convention, rec):
    """A dataset record's key, over everything ``_compute_one`` reads: the
    format, the DT sign convention of a DT record, and the payload and
    metadata as written.  The id and the dataset are not in it, so an
    unchanged record keeps its key in edited and concatenated datasets."""
    fields = (fmt, convention) if fmt == "dt" else (fmt,)
    return cache_key(*fields, rec.payload, sorted(rec.meta.items()))


class InvariantCache:
    """Append-only text cache of computed outcomes, one line per key.

    Failures are cached as well as results: every outcome is a
    deterministic function of its key, so a warm run computes nothing.
    That holds only while the outcome function stays the same, so any
    change to what a key's line would be (the line layout, what
    ``_compute_one`` or the family generators return, or a limit such as
    ``bracket.SWEEP_STATE_BUDGET`` that decides which records fail) must
    bump SCHEMA_VERSION.

    The file starts with a header naming SCHEMA_VERSION, and a file with
    another first line is refused, never served or appended to.  Loading
    skips every line whose fields do not decode.  A last line without its
    newline, the header included, was torn by an interrupted write: it is
    skipped too, and cut off before the next append, so a resumed run
    ends with the same bytes as an uninterrupted one.
    """

    def __init__(self, path):
        self.path = path
        self.entries = {}  # key -> cache line
        self._torn_at = None  # byte offset of an unterminated last line
        if not path:
            return
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise Unreadable(f"cannot read cache {path}: {exc}") from None
        if not (data.startswith(_HEADER) or _HEADER.startswith(data)):
            first = data.split(b"\n", 1)[0][:80].decode(errors="replace")
            raise UnknownFormat(
                f"{path} is not a knotfold cache of schema {SCHEMA_VERSION} "
                f"(its first line is {first!r}); use a new cache file")
        end = data.rfind(b"\n") + 1
        if end < len(data):
            self._torn_at = end
        text = data[len(_HEADER):end].decode("utf-8", errors="replace")
        for line in text.split("\n"):
            if _CACHE_LINE_RE.fullmatch(line):
                self.entries[line.split(";", 2)[1]] = line

    def get(self, key):
        return self.entries.get(key)

    def append(self, lines):
        """Write, in order, the lines whose key the cache lacks."""
        fresh = {}
        for line in lines:
            key = line.split(";", 2)[1]
            if key not in self.entries:
                fresh.setdefault(key, line)
        if self.path:
            try:
                with open(self.path, "ab") as fh:
                    if self._torn_at is not None:
                        fh.truncate(self._torn_at)
                        fh.seek(self._torn_at)
                        self._torn_at = None
                    if fh.tell() == 0:
                        fh.write(_HEADER)
                    fh.write("".join(l + "\n" for l in fresh.values()).encode())
            except OSError as exc:
                raise Unreadable(
                    f"cannot write cache {self.path}: {exc}") from None
        self.entries.update(fresh)

    def record(self, key, rid, crossing_number):
        """Decode the result under key into a canonicalized KnotRecord for
        record rid; None when the key holds no result."""
        fields = self.entries.get(key, ";;!").split(";")
        if fields[2] == "!":
            return None
        _, _, jones_text, sigma, alternating, mirrored = fields
        return KnotRecord(
            id=rid,
            crossing_number=crossing_number,
            jones=LaurentPolynomial.from_text(jones_text),
            alternating={"1": True, "0": False}[alternating],
            sigma=None if sigma == "?" else int(sigma),
            mirror_applied={"1": True, "0": False}[mirrored],
        )

    def failure(self, key):
        """The "Class: message" reason cached under key; None when the key
        holds no failure."""
        fields = self.entries.get(key, ";;").split(";", 3)
        return fields[3] if fields[2] == "!" else None


def _result_line(rid, key, record):
    sigma = "?" if record.sigma is None else str(record.sigma)
    return ";".join((
        rid, key, record.jones.to_text(), sigma,
        "1" if record.alternating else "0",
        "1" if record.mirror_applied else "0",
    ))


def _compute_one(job):
    """Worker: one raw record -> its cache line, for a result or a failure.

    Only deterministic failures are caught, so the line is a function of
    the record's key alone.
    """
    rid, key, fmt, payload, convention, meta = job
    try:
        if fmt == "dt":
            diagram = realize_dt(parse_dt(payload), convention)
        else:
            diagram = parse_pd(payload)
        poly = jones(diagram)
        if "sigma" in meta:
            sigma = int(meta["sigma"])
        else:
            sigma = signature_from_diagram(diagram)
        if "alternating" in meta:
            alternating = meta["alternating"] in ("1", "true", "True")
        else:
            alternating = is_alternating(diagram)
        s_inv = int(meta["s"]) if "s" in meta else None
        rec = KnotRecord(rid, 0, poly, alternating=alternating, sigma=sigma,
                         s_invariant=s_inv)
        return _result_line(rid, key, canonical_orientation(rec))
    except (KnotfoldError, ValueError, OverflowError) as exc:
        return f"{rid};{key};!;{type(exc).__name__}: {exc}"


def default_workers():
    env = os.environ.get("KNOTFOLD_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise BadEnvironment(
                f"KNOTFOLD_WORKERS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def compute_batch(dataset, cache, workers=None, convention="a",
                  max_failure_fraction=0.0):
    """Compute canonicalized invariants for every dataset record.

    Each key the cache lacks is computed once, and its line enters the
    cache in dataset order regardless of worker count, so the cache file
    is byte-identical for any parallelism.  Every outcome is then read
    back from the cache, so a cached failure is returned exactly as a
    computed one.  Returns (records, failures); failures are
    (id, "Class: message").
    """
    workers = workers or default_workers()
    keys = [record_key(dataset.format, convention, r) for r in dataset.records]
    jobs = {}
    for r, key in zip(dataset.records, keys):
        if cache.get(key) is None:
            jobs.setdefault(key, (r.id, key, dataset.format, r.payload,
                                  convention, r.meta))
    jobs = list(jobs.values())
    # A forked pool starts all its workers at the first submit, so it gets
    # no more workers than jobs.
    workers = min(workers, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            lines = list(pool.map(_compute_one, jobs,
                                  chunksize=max(1, len(jobs) // (4 * workers))))
    else:
        lines = [_compute_one(job) for job in jobs]
    cache.append(lines)
    records = []
    failures = []
    for r, key in zip(dataset.records, keys):
        rec = cache.record(key, r.id, r.crossing_number)
        if rec is None:
            failures.append((r.id, cache.failure(key)))
        else:
            records.append(rec)
    if failures and len(failures) > max_failure_fraction * len(dataset.records):
        raise KnotfoldError(
            f"{len(failures)} records failed, first: {failures[0]}")
    return records, failures


def generate_family(kind, limit, cache=None):
    """All torus or double twist knots with crossing number <= limit.

    Jones polynomials come from the closed forms; records are
    canonicalized and entered into the cache when one is supplied, each
    keyed by its family and member id, whatever the limit.  An analysis
    builds its cloud with families.family_cloud instead, without a record
    per member.
    """
    digest, members = family_members(kind, limit)
    jones_of = jones_torus if kind == "torus" else jones_double_twist
    records = [canonical_orientation(KnotRecord(rid, crossings, jones_of(m, n),
                                                alternating=alternating))
               for rid, crossings, alternating, m, n in members]
    if cache is not None:
        keys = [cache_key(kind, r.id) for r in records]
        cache.append([_result_line(r.id, key, r)
                      for r, key in zip(records, keys) if cache.get(key) is None])
    return digest, records


# --- analysis runs ---

@dataclass
class AnalysisConfig:
    filtration: str = "crossing"  # crossing | norm
    class_filter: str = "all"     # all | alternating | nonalternating
    k_min: int = 3
    k_max: int = 6
    levels: int = 4
    bins: int = 20
    variance_threshold: float = 0.95

    def to_dict(self):
        return dict(sorted(self.__dict__.items()))


def _write_csv(path, header, line, rows):
    """A header, then line % row for each row: a float as %.12g, an int as
    %d and the rest as %s, one %-format per line."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def make_report_dir(out_dir):
    """Create the report directory, or raise KnotfoldError naming it."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise KnotfoldError(
            f"cannot create report directory {out_dir}: {exc}") from None


def run_analysis(cloud, config, out_dir, digests=(), log=None):
    """Filtration + PCA + diagnostics over one cloud; writes the report
    bundle.

    The cloud comes from filtration.record_cloud or families.family_cloud,
    with each row's crossing number, and its rows are read a block at a
    time.  Steps come one at a time and hold row indices only; their PCA
    runs on moments that each step extends by the rows it adds.  Returns
    the list of per-step spectra.
    Every report byte is a function of (cloud, config); timings go to the
    log stream only.
    """
    from . import filtration as F
    from .pca import project

    t0 = time.time()
    make_report_dir(out_dir)
    if config.filtration == "crossing":
        steps = F.crossing_filtration(cloud, config.k_min, config.k_max,
                                      config.class_filter)
    elif config.filtration == "norm":
        steps = F.norm_filtration(cloud, config.levels, config.class_filter)
    else:
        raise UnknownFormat(f"unknown filtration {config.filtration!r}")

    # top, the last step analyzed: crossing number <= k_max, or all class
    # rows; its rows index the cloud
    spectra, top = F.eigensystem_trajectory(steps, config.variance_threshold)
    if not spectra:
        raise KnotfoldError("no non-empty filtration steps")

    for s in spectra:
        rows = [(i + 1, float(s.eigensystem.eigenvalues[i]),
                 float(s.eigensystem.normalized[i]),
                 float(s.eigensystem.cumulative[i]))
                for i in range(s.ambient_dim)]
        _write_csv(os.path.join(out_dir, f"spectrum_step_{s.label}.csv"),
                   ("i", "lambda_i", "lambda_bar_i", "S_i"),
                   "%d,%.12g,%.12g,%.12g\n", rows)

    _write_csv(os.path.join(out_dir, "trajectory.csv"),
               ("step", "component", "lambda_bar"), "%s,%d,%.12g\n",
               [(s.label, i + 1, float(s.eigensystem.normalized[i]))
                for s in spectra
                for i in range(min(F.TRACKED_COMPONENTS, s.ambient_dim))])

    if len(spectra) >= 2:
        _write_csv(os.path.join(out_dir, "angles.csv"),
                   ("step", "component", "theta"), "%s,%d,%.12g\n",
                   F.angle_trajectory(spectra))
        _write_csv(os.path.join(out_dir, "spread.csv"),
                   ("component", "spread_percent"), "%d,%.12g\n",
                   F.spread_table(spectra))

    edges, counts = F.norm_histogram(cloud, config.bins, top.rows)
    for cls, series in counts.items():
        _write_csv(os.path.join(out_dir, f"histogram_{cls}.csv"),
                   ("bin_low", "bin_high", "count"), "%.12g,%.12g,%d\n",
                   [(float(edges[b]), float(edges[b + 1]), int(series[b]))
                    for b in range(len(series))])

    # from the step's rows and columns of the run's cloud: the step's own
    # cloud would copy them
    final = spectra[-1]
    k = min(F.PROJECTION_COMPONENTS, final.ambient_dim)
    start = final.min_degree - cloud.min_degree
    coords = project(cloud, final.mean, final.eigensystem, k, top.rows,
                     slice(start, start + final.ambient_dim))
    sigma = cloud.sigma_values
    _write_csv(os.path.join(out_dir, "projection.csv"),
               ("id", *(f"pc{i+1}" for i in range(k)), "sigma"),
               "%s," + ",".join(["%.12g"] * k) + ",%s\n",
               ((cloud.row_ids[r], *xy, "" if sigma[r] is None else sigma[r])
                for r, xy in zip(top.rows.tolist(), coords.tolist())))

    manifest = {
        "config": config.to_dict(),
        "dataset_digests": sorted(digests),
        "record_count": len(cloud.row_ids),
        "steps": [{"label": s.label, "count": s.count,
                   "ambient_dim": s.ambient_dim, "dimension": s.dimension}
                  for s in spectra],
    }
    with open(os.path.join(out_dir, "run_manifest"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if log:
        print(f"analysis completed in {time.time() - t0:.2f}s", file=log)
    return spectra
