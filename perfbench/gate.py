"""Correctness gate: checks one CLI call's outputs against goldens.

A bundle passes when the CLI exited 0 and, for every filtration step, the
``n``/``d``/``dimension`` it printed and the leading cumulative variances
S_1..S_6 in ``spectrum_step_<label>.csv`` match the goldens, and the
manifest's ``record_count`` matches.  S values are compared within a
relative tolerance loose enough for any stable symmetric eigensolver
(LAPACK included); everything else is compared exactly.  Per-record
results of dt_batch are read back through the package's public API
(``ingest`` + ``compute_batch`` over the cache the CLI wrote, without
writing to it), so a new cache layout does not read as a failure, while a
cache the CLI left incomplete does.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

import numpy as np

S_RTOL = 1e-6
LEADING = 6
THRESHOLD = 0.95  # the CLI's default --variance-threshold

_STEP_RE = re.compile(r"^step (\S+): n=(\d+) d=(\d+) dimension=(\d+)$")
_TERM_RE = re.compile(r"^([+-]?)(\d+)(?:\*q\^(-?\d+))?$")


def bundle_digest(out_dir):
    """sha256 over the bundle's file names and bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def parse_steps(stdout):
    steps = []
    for line in stdout.splitlines():
        m = _STEP_RE.match(line.strip())
        if m:
            steps.append({"label": m.group(1), "n": int(m.group(2)),
                          "d": int(m.group(3)), "dimension": int(m.group(4))})
    return steps


def read_leading_s(out_dir, label):
    path = os.path.join(out_dir, f"spectrum_step_{label}.csv")
    with open(path) as fh:
        rows = fh.read().splitlines()[1:]
    return [float(r.split(",")[3]) for r in rows[:LEADING]]


def jones_terms(text):
    """{exponent: coefficient} of a q-polynomial in the CLI's text form."""
    terms = {}
    if text.strip() == "0":
        return terms
    for tok in text.replace("- ", "-").replace("+ ", "+").split():
        m = _TERM_RE.match(tok)
        if not m:
            raise ValueError(f"unexpected Jones term {tok!r} in {text!r}")
        sign, mag, exp = m.groups()
        e = int(exp) if exp is not None else 0
        terms[e] = terms.get(e, 0) + (-1 if sign == "-" else 1) * int(mag)
    return terms


def reference_steps(records, k_min, k_max, threshold=THRESHOLD):
    """Crossing-filtration spectra computed directly with numpy.

    ``records`` holds (id, crossings, canonical Jones text).  This is an
    independent reference for dt_batch, whose steps depend on the seed.
    """
    steps = []
    for k in range(k_min, k_max + 1):
        chosen = sorted((r for r in records if r[1] <= k), key=lambda r: r[0])
        if len(chosen) < 2:
            continue
        polys = [jones_terms(r[2]) for r in chosen]
        lo = min(min(p) for p in polys)
        hi = max(max(p) for p in polys)
        matrix = np.zeros((len(polys), hi - lo + 1))
        for i, p in enumerate(polys):
            for e, c in p.items():
                matrix[i, e - lo] = c
        lam = np.linalg.eigvalsh(np.cov(matrix, rowvar=False, ddof=1).reshape(
            hi - lo + 1, hi - lo + 1))[::-1]
        total = lam.sum()
        if total <= 0:  # identical rows: the program reports zero shares
            steps.append({"label": str(k), "n": len(chosen), "d": hi - lo + 1,
                          "dimension": [len(lam)], "S": [0.0] * min(LEADING, len(lam))})
            continue
        cumulative = np.cumsum(lam / total)
        dims = {int(np.argmax(cumulative >= threshold)) + 1}
        # a cumulative share within tolerance of the threshold may fall
        # either side of it in another solver
        near = np.flatnonzero(np.abs(cumulative - threshold) <= S_RTOL * threshold)
        dims.update(int(i) + 1 for i in near)
        dims.update(int(i) + 2 for i in near if i + 2 <= len(cumulative))
        steps.append({"label": str(k), "n": len(chosen), "d": hi - lo + 1,
                      "dimension": sorted(dims),
                      "S": [float(s) for s in cumulative[:LEADING]]})
    return steps


def check_bundle(exit_code, stdout, out_dir, expected_steps, record_count):
    """Problems found in one CLI call's outputs (an empty list means pass)."""
    if exit_code != 0:
        return [f"CLI exited with code {exit_code}"]
    try:
        return _check_outputs(stdout, out_dir, expected_steps, record_count)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable bundle: {type(exc).__name__}: {exc}"]


def _check_outputs(stdout, out_dir, expected_steps, record_count):
    problems = []
    seen = parse_steps(stdout)
    if [s["label"] for s in seen] != [s["label"] for s in expected_steps]:
        return [f"steps {[s['label'] for s in seen]} != "
                f"{[s['label'] for s in expected_steps]}"]
    for got, want in zip(seen, expected_steps):
        dims = want["dimension"]
        dims = dims if isinstance(dims, list) else [dims]
        if got["n"] != want["n"] or got["d"] != want["d"] or got["dimension"] not in dims:
            problems.append(f"step {got['label']}: {got} != {want}")
            continue
        s = read_leading_s(out_dir, got["label"])
        if len(s) != len(want["S"]) or not all(
                abs(a - b) <= S_RTOL * abs(b) for a, b in zip(s, want["S"])):
            problems.append(f"step {got['label']}: S {s} != {want['S']}")
    with open(os.path.join(out_dir, "run_manifest")) as fh:
        manifest = json.load(fh)
    if manifest.get("record_count") != record_count:
        problems.append(f"record_count {manifest.get('record_count')} != {record_count}")
    return problems


def check_records(dataset_path, cache_path, expectations):
    """(data line numbers whose result differs from its golden, number of
    records the CLI left out of its cache).

    Reads the cache the CLI wrote through ``ingest`` and ``compute_batch``,
    so a changed cache key or layout is not a failure.  The cache file is
    opened read-only: the check's own results stay in memory.  Every line
    ``compute_batch`` hands to ``append`` is a record it had to compute,
    because the CLI did not write it.
    """
    from knotfold.laurent import LaurentPolynomial
    from knotfold.pipeline import InvariantCache, compute_batch, ingest

    ds = ingest([dataset_path], "dt", "a")
    rejects = {lineno: reason.split(":")[0] for _, lineno, reason in ds.rejects}
    store = InvariantCache(cache_path)
    store.path = None  # appends stay in memory
    computed = []

    def append(lines, _append=store.append):
        computed.extend(lines)
        _append(lines)

    store.append = append
    records, failures = compute_batch(ds, store, workers=1, convention="a",
                                      max_failure_fraction=1.0)
    by_id = {r.id: r for r in records}
    failed_ids = {rid: reason.split(":")[0] for rid, reason in failures}
    wrong = []
    for lineno, want in expectations.items():
        if want["kind"] == "reject":
            ok = rejects.get(lineno) == want["reason"]
        elif want["kind"] == "failure":
            ok = failed_ids.get(want["id"]) == want["reason"]
        else:
            r = by_id.get(want["id"])
            ok = (r is not None and lineno not in rejects
                  and r.jones == LaurentPolynomial.from_text(want["jones"])
                  and r.sigma == want["sigma"]
                  and r.mirror_applied == want["mirror_applied"])
        if not ok:
            wrong.append(lineno)
    return wrong, len(computed)
