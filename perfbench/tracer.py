"""Run the knotfold CLI in-process with layer spans recorded from outside.

Usage (from the root of a knotfold checkout):

    python3 perfbench/tracer.py SPANS.json RUN_ID -- analyze ARGS...

Each public function the benchmark measures is wrapped at the place its
caller looks it up (``knotfold.pipeline.realize_dt``,
``knotfold.filtration.sym_eig``, ...), so the package itself is unchanged.
A span records its name, parent, start, end, the run id and counters.
Spans stay in memory and are written to SPANS.json when the CLI returns.

Work done by the hooks themselves (counting, the eigensolver residual) is
timed and stored as ``hook_s`` on the span, so that it can be left out of
the parent's self time.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

# --- counter hooks ---
# after(counters, args, result, before, tracer) fills the span's counters;
# before(args, tracer) returns the state passed to it as ``before``.


def _ingest_after(c, args, ds, before, tracer):
    c["records"] = len(ds.records)
    c["rejects"] = len(ds.rejects)


def _compute_before(args, tracer):
    return tracer.calls.get("diagrams.realize_dt", 0)


def _compute_after(c, args, result, before, tracer):
    # A cache miss realizes the record's DT code exactly once.
    misses = tracer.calls.get("diagrams.realize_dt", 0) - before
    c["misses"] = misses
    c["hits"] = len(args[0].records) - misses


def _generate_after(c, args, result, before, tracer):
    c["knots"] = len(result[1])


def _analysis_after(c, args, result, before, tracer):
    out_dir = args[2]
    c["bundle_bytes"] = sum(os.path.getsize(os.path.join(out_dir, f))
                            for f in os.listdir(out_dir))


def _canonical_after(c, args, result, before, tracer):
    c["mirrored"] = int(result.mirror_applied != args[0].mirror_applied)


def _cache_size(args, tracer):
    return len(getattr(args[0], "entries", ()))


def _cache_load_after(c, args, result, before, tracer):
    c["entries"] = _cache_size(args, tracer)


def _cache_append_after(c, args, result, before, tracer):
    c["lines_written"] = _cache_size(args, tracer) - before


def _align_after(c, args, cloud, before, tracer):
    c["rows"] = int(cloud.matrix.shape[0])
    c["width"] = int(cloud.matrix.shape[1])


def _sym_eig_after(c, args, es, before, tracer):
    import numpy as np

    k = np.asarray(args[0], dtype=float)
    v = es.eigenvectors
    c["dim"] = int(k.shape[0])
    c["residual"] = float(np.abs(k @ v - v * es.eigenvalues).max()) if k.size else 0.0
    c["orth_err"] = (float(np.abs(v.T @ v - np.eye(v.shape[1])).max())
                     if v.size else 0.0)


# (owner, attribute, span name, after hook, before hook).  The owner is a
# module path or "module:Class"; either hook may be None.
TARGETS = (
    ("knotfold.cli", "ingest", "pipeline.ingest", _ingest_after, None),
    ("knotfold.cli", "compute_batch", "pipeline.compute_batch",
     _compute_after, _compute_before),
    ("knotfold.cli", "generate_family", "pipeline.generate_family", _generate_after, None),
    ("knotfold.cli", "run_analysis", "pipeline.run_analysis", _analysis_after, None),
    ("knotfold.pipeline", "parse_dt", "diagrams.parse_dt", None, None),
    ("knotfold.pipeline", "realize_dt", "diagrams.realize_dt", None, None),
    ("knotfold.pipeline", "jones", "bracket.jones", None, None),
    ("knotfold.pipeline", "signature_from_diagram",
     "signature.signature_from_diagram", None, None),
    ("knotfold.pipeline", "canonical_orientation", "cloud.canonical_orientation",
     _canonical_after, None),
    ("knotfold.pipeline", "jones_torus", "families.jones_torus", None, None),
    ("knotfold.families", "double_twist_writhe", "families.double_twist_writhe",
     None, None),
    ("knotfold.families", "double_twist_bracket", "families.double_twist_bracket",
     None, None),
    ("knotfold.pipeline:InvariantCache", "__init__", "pipeline.InvariantCache.load",
     _cache_load_after, None),
    ("knotfold.pipeline:InvariantCache", "append", "pipeline.InvariantCache.append",
     _cache_append_after, _cache_size),
    ("knotfold.pipeline:InvariantCache", "record", "pipeline.InvariantCache.record",
     None, None),
    ("knotfold.laurent:LaurentPolynomial", "from_text",
     "laurent.LaurentPolynomial.from_text", None, None),
    ("knotfold.laurent:LaurentPolynomial", "to_text",
     "laurent.LaurentPolynomial.to_text", None, None),
    ("knotfold.filtration", "align", "cloud.align", _align_after, None),
    ("knotfold.cloud", "align", "cloud.align", _align_after, None),
    ("knotfold.pca:CovarianceAccumulator", "add_block",
     "pca.CovarianceAccumulator.add_block", None, None),
    ("knotfold.pca:CovarianceAccumulator", "finalize",
     "pca.CovarianceAccumulator.finalize", None, None),
    ("knotfold.filtration", "sym_eig", "pca.sym_eig", _sym_eig_after, None),
    ("knotfold.filtration", "crossing_filtration",
     "filtration.crossing_filtration", None, None),
    ("knotfold.filtration", "eigensystem_trajectory",
     "filtration.eigensystem_trajectory", None, None),
    ("knotfold.filtration", "angle_trajectory", "filtration.angle_trajectory",
     None, None),
    ("knotfold.filtration", "norm_histogram", "filtration.norm_histogram", None, None),
)


class Tracer:
    """In-memory span recorder; one per traced CLI process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []      # [name, parent, start, end, counters]
        self.stack = []
        self.calls = {}      # span name -> calls so far
        self.missing = []    # hook points the package no longer has

    def wrap(self, fn, name, after, before):
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            span = [name, tracer.stack[-1] if tracer.stack else None,
                    0.0, 0.0, {}]
            tracer.spans.append(span)
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            state = before(args, tracer) if before else None
            tracer.stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
            if after:
                after(span[4], args, result, state, tracer)
                span[4]["hook_s"] = time.perf_counter() - span[3]
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import importlib

        for owner_path, attr, name, after, before in TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name, None)
            raw = None if owner is None else (
                owner.__dict__.get(attr) if class_name else getattr(owner, attr, None))
            if raw is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            if isinstance(raw, classmethod):
                wrapped = self.wrap(raw.__func__, name, after, before)
                setattr(owner, attr, classmethod(wrapped))
            else:
                setattr(owner, attr, self.wrap(raw, name, after, before))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"missing_hooks": self.missing,
                       "spans": [{"name": n, "parent": p, "start": s, "end": e,
                                  "run_id": self.run_id, "counters": c}
                                 for n, p, s, e, c in self.spans]}, fh)


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        print("usage: tracer.py SPANS.json RUN_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    tracer = Tracer(run_id)
    tracer.install()
    from knotfold.cli import main as cli_main

    exit_code = 0
    try:
        cli_main(cli_args, standalone_mode=False)
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # report the crash like the CLI would, keep the spans
        traceback.print_exc()
        exit_code = 1
    sys.stdout.flush()
    tracer.dump(spans_path)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
