"""knotfold benchmark: drives the ``knotfold analyze`` CLI end to end.

Run from the root of a knotfold checkout:

    python3 perfbench/run.py --workload torus_pca --seed 1 --seconds 35 --trace 0

Every CLI call is a fresh interpreter (``python3 -m knotfold.cli``) on the
checkout's ``src``, the way users run it, and every output is checked
against goldens (``gate.py``).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics from a traced
in-process run (``tracer.py``) next to untraced 1- and 2-worker runs.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--smoke`` runs the same code at tiny sizes, and ``--selfcheck`` runs every
workload in smoke mode with the real goldens, then with a deliberately
wrong golden and (dt_batch) a half-written cache, to show that the gate
can fail.  README.md defines
the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import dtgen
import gate
import tracer

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
TRACER = tracer.__file__
FAMILY_GOLDENS = os.path.join(HERE, "goldens", "families.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
WORKERS = 2           # KNOTFOLD_WORKERS for every untraced end-to-end call
SETUP_SAMPLES = 9     # fresh interpreters importing knotfold.cli per run
RUN_LIMIT = 165.0     # seconds after which a run's CLI calls are killed and failed


@dataclass(frozen=True)
class Workload:
    name: str
    family: str            # "torus", "double-twist", or "" for the DT dataset
    max_crossings: int
    smoke_max_crossings: int
    warm_per_cold: int     # warm calls after each cold call


WORKLOADS = {w.name: w for w in (
    Workload("torus_pca", "torus", 300, 40, 1),
    Workload("double_twist_family", "double-twist", 91, 21, 1),
    Workload("dt_batch", "", 15, 9, 3),
)}
SMOKE_SLOTS = 4  # dt_batch records per crossing count in smoke mode


def family_args(workload, max_crossings, out):
    mc = str(max_crossings)
    return ["analyze", "--family", workload.family, "--max-crossings", mc,
            "--kmin", mc, "--kmax", mc, "--out", out]


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """(percentile, value): the highest of 99.9/99/95/90/75/50 whose
    nearest-rank value has at least 10 samples above it, or (None, None)
    with fewer than 20 samples."""
    n = len(xs)
    ordered = sorted(xs)
    for p in (99.9, 99, 95, 90, 75, 50):
        i = max(0, math.ceil(p / 100 * n) - 1)
        if n - 1 - i >= 10:
            return p, ordered[i]
    return None, None


def describe(name, xs, unit):
    p, v = tail(xs)
    tail_text = (f"p{p:g}={v:.6g}" if p is not None
                 else "no percentile has 10 samples beyond it")
    return (f"{name}: median={median(xs):.6g} {unit}, {tail_text}, samples={len(xs)}: "
            + " ".join(f"{x:.4g}" for x in xs))


# --- processes ---

def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_process(cmd, workers, stdout_path, stderr_path, timeout):
    """Run cmd in its own process group; (wall_s, exit_code, peak_rss_mb).

    The peak RSS comes from wait4 on the process, which also covers the
    pool workers it waited for.  The group is killed after ``timeout``
    seconds, and whatever is left of it once the process has exited.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["KNOTFOLD_WORKERS"] = str(workers)
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(max(1.0, timeout), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, smoke, wrong_golden, work, deadline,
                 truncate_cache=False):
        self.w = workload
        self.truncate_cache = truncate_cache
        self.deadline = deadline
        self.seed = seed
        self.smoke = smoke
        self.work = work
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = None
        mc = workload.smoke_max_crossings if smoke else workload.max_crossings
        self.max_crossings = mc
        if workload.family:
            with open(FAMILY_GOLDENS) as fh:
                golden = json.load(fh)[f"{workload.name}{':smoke' if smoke else ''}"]
            self.expected_steps = golden["steps"]
            self.record_count = golden["knots"]
            self.expectations = None
            if wrong_golden:
                self.expected_steps[-1]["S"][0] *= 1.1
        else:
            self._make_dataset(wrong_golden)

    def _make_dataset(self, wrong_golden):
        text, self.expectations = dtgen.make_dataset(
            dtgen.load_pool(), self.seed, self.max_crossings,
            SMOKE_SLOTS if self.smoke else dtgen.SLOTS)
        self.dataset = os.path.join(self.work, "dataset.dt")
        with open(self.dataset, "w") as fh:
            fh.write(text)
        good = [(e["id"], e["crossings"], e["jones"])
                for e in self.expectations.values() if e["kind"] == "record"]
        self.expected_steps = gate.reference_steps(good, 3, self.max_crossings)
        self.record_count = len(good)
        if wrong_golden:
            first = next(e for e in self.expectations.values() if e["kind"] == "record")
            first["jones"] += " + 1*q^99"

    def cli_args(self, cache, out):
        if self.w.family:
            return family_args(self.w, self.max_crossings, out) + ["--cache", cache]
        return ["analyze", self.dataset, "--cache", cache, "--kmin", "3",
                "--kmax", str(self.max_crossings), "--out", out]

    def call(self, cache, workers=WORKERS, spans=None, cold=True):
        """Run the CLI once and gate its outputs; returns (wall_s, rss_mb)."""
        self.calls += 1
        tag = os.path.join(self.work, f"call{self.calls}")
        out = tag + ".out"
        args = self.cli_args(cache, out)
        cmd = ([sys.executable, TRACER, spans, "cold" if cold else "warm", "--", *args]
               if spans else [sys.executable, "-m", "knotfold.cli", *args])
        wall, code, rss = run_process(cmd, workers, tag + ".stdout", tag + ".stderr",
                                      self.deadline - time.perf_counter())
        with open(tag + ".stdout") as fh:
            stdout = fh.read()
        attempted = len(self.expectations) if self.expectations else self.record_count
        problems = gate.check_bundle(code, stdout, out, self.expected_steps,
                                     self.record_count)
        if not problems:
            digest = gate.bundle_digest(out)
            self.digest = self.digest or digest
            if digest != self.digest:
                problems.append("bundle bytes differ from the run's first bundle")
        wrong = 0
        if problems:
            wrong = attempted
        elif cold and self.expectations:
            if self.truncate_cache:
                _drop_second_half(cache)
            lines, missing = gate.check_records(self.dataset, cache, self.expectations)
            wrong = min(attempted, len(lines) + missing)
            if lines:
                problems.append(f"wrong records on data lines {lines[:10]}")
            if missing:
                problems.append(f"{missing} records missing from the CLI's cache")
        if problems:
            with open(tag + ".stderr") as fh:
                err_tail = fh.read()[-2000:]
            self.problems.append(f"call {self.calls} ({' '.join(args)}): "
                                 f"{'; '.join(problems)}\n{err_tail}")
        self.attempted += attempted
        self.failed += wrong
        shutil.rmtree(out, ignore_errors=True)
        return wall, rss

    def fresh_cache(self):
        path = os.path.join(self.work, "cache.txt")
        if os.path.exists(path):
            os.remove(path)
        return path

    def final_knots(self):
        return self.expected_steps[-1]["n"]


def _drop_second_half(path):
    """Stand in for a CLI that wrote only part of its cache."""
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:len(lines) // 2])


def measure_setup(work, samples, deadline):
    walls = []
    cmd = [sys.executable, "-c", "import knotfold.cli"]
    out, err = os.path.join(work, "setup.stdout"), os.path.join(work, "setup.stderr")
    for i in range(samples + 1):
        wall, code, _ = run_process(cmd, WORKERS, out, err, deadline - time.perf_counter())
        if code != 0:
            with open(err) as fh:
                raise RuntimeError(f"importing knotfold.cli failed:\n{fh.read()}")
        if i:  # the first import compiles bytecode and is not counted
            walls.append(wall)
    return walls


def end_to_end(bench, seconds):
    deadline = time.perf_counter() + seconds
    cycle = ["cold"] + ["warm"] * bench.w.warm_per_cold
    cold, warm, rss, estimate = [], [], [], {}
    cache = None
    i = 0
    while True:
        kind = cycle[i % len(cycle)]
        if cold and warm and time.perf_counter() + estimate[kind] > deadline:
            break
        t0 = time.perf_counter()
        if kind == "cold":
            cache = bench.fresh_cache()
            wall, peak = bench.call(cache)
            cold.append(wall)
            rss.append(peak)
        else:
            wall, _ = bench.call(cache, cold=False)
            warm.append(wall)
        estimate[kind] = time.perf_counter() - t0
        i += 1
    return cold, warm, rss


def traced(bench, seconds):
    """Repetitions of: untraced 1-worker cold+warm, untraced 2-worker cold,
    traced 1-worker cold+warm.  Returns a list of per-repetition records."""
    deadline = time.perf_counter() + seconds
    reps = []
    estimate = None
    while not reps or time.perf_counter() + estimate <= deadline:
        t0 = time.perf_counter()
        rep = {}
        cache = bench.fresh_cache()
        rep["u1_cold"] = bench.call(cache, workers=1)[0]
        rep["u1_warm"] = bench.call(cache, workers=1, cold=False)[0]
        cache = bench.fresh_cache()
        rep["u2_cold"] = bench.call(cache, workers=2)[0]
        cache = bench.fresh_cache()
        rep["spans"] = []
        for phase in ("cold", "warm"):
            spans = os.path.join(bench.work, f"spans-{len(reps)}-{phase}.json")
            rep[f"t_{phase}"] = bench.call(cache, workers=1, spans=spans,
                                           cold=phase == "cold")[0]
            if os.path.exists(spans):  # a crashed call is already counted failed
                with open(spans) as fh:
                    rep["spans"].append(json.load(fh))
        reps.append(rep)
        estimate = time.perf_counter() - t0
    return reps


# --- per-layer metrics from spans ---

# self-time metric of each span: "<span>.self_s" unless renamed here
SELF_TIME_NAMES = {
    "pipeline.InvariantCache.load": "pipeline.InvariantCache.load_s",
    "pipeline.InvariantCache.append": "pipeline.InvariantCache.append_s",
    "pipeline.InvariantCache.record": "pipeline.InvariantCache.record_s",
    "pca.CovarianceAccumulator.add_block": "pca.CovarianceAccumulator.add_block_s",
    "pca.CovarianceAccumulator.finalize": "pca.CovarianceAccumulator.finalize_s",
}
# (span name, counter, metric name, how to combine across calls)
COUNTERS = (
    ("pipeline.ingest", "records", "pipeline.ingest.records", max),
    ("pipeline.ingest", "rejects", "pipeline.ingest.rejects", max),
    ("pipeline.compute_batch", "hits", "pipeline.compute_batch.hits", sum),
    ("pipeline.compute_batch", "misses", "pipeline.compute_batch.misses", sum),
    ("pipeline.InvariantCache.load", "entries", "pipeline.InvariantCache.entries", max),
    ("pipeline.InvariantCache.append", "lines_written",
     "pipeline.InvariantCache.lines_written", sum),
    ("pipeline.generate_family", "knots", "pipeline.generate_family.knots", max),
    ("cloud.canonical_orientation", "mirrored", "cloud.canonical_orientation.mirrored", sum),
    ("cloud.align", "rows", "cloud.align.rows", sum),
    ("cloud.align", "width", "cloud.align.width", max),
    ("pca.sym_eig", "dim", "pca.sym_eig.max_dim", max),
    ("pca.sym_eig", "residual", "pca.sym_eig.residual", max),
    ("pca.sym_eig", "orth_err", "pca.sym_eig.orth_err", max),
    ("pipeline.run_analysis", "bundle_bytes", "pipeline.run_analysis.bundle_bytes", max),
)
CALLS = ("diagrams.realize_dt", "bracket.jones", "signature.signature_from_diagram",
         "pca.sym_eig")
PER_CALL = ("diagrams.realize_dt", "bracket.jones")


def layer_metrics(dumps):
    """Per-layer values of one traced repetition (its cold and warm phase).

    Self time is a span's duration minus its child spans' durations and the
    time hooks spent after each child returned.
    """
    self_s, durations, counters = {}, {}, {}
    unattributed = 0.0
    for dump in dumps:
        spans = dump["spans"]
        covered = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += (s["end"] - s["start"]
                                         + s["counters"].get("hook_s", 0.0))
            else:
                unattributed -= s["end"] - s["start"] + s["counters"].get("hook_s", 0.0)
        for s, cov in zip(spans, covered):
            name, dur = s["name"], s["end"] - s["start"]
            self_s[name] = self_s.get(name, 0.0) + dur - cov
            durations.setdefault(name, []).append(dur)
            for key, value in s["counters"].items():
                counters.setdefault((name, key), []).append(value)
    out, tails = {}, {}
    for name in dict.fromkeys(t[2] for t in tracer.TARGETS):
        out[SELF_TIME_NAMES.get(name, f"{name}.self_s")] = self_s.get(name, 0.0)
    for name, key, metric, combine in COUNTERS:
        values = counters.get((name, key))
        out[metric] = combine(values) if values else 0
    for name in CALLS:
        out[f"{name}.calls"] = len(durations.get(name, ()))
    for name in PER_CALL:
        ms = [d * 1e3 for d in durations.get(name, ())]
        p, v = tail(ms)
        out[f"{name}.p50_ms"] = median(ms)
        out[f"{name}.tail_ms"] = v if v is not None else (max(ms) if ms else 0.0)
        tails[name] = (f"p{p:g}" if p is not None else "max", len(ms))
    out["trace.unattributed_s"] = unattributed
    return out, tails


def per_layer(bench, reps):
    values, tails = {}, {}
    for rep in reps:
        m, tails = layer_metrics(rep["spans"])
        # process wall time outside every top-level span
        m["trace.unattributed_s"] += rep["t_cold"] + rep["t_warm"]
        m["pipeline.compute_batch.parallel_efficiency"] = (
            rep["u1_cold"] / (2 * rep["u2_cold"]))
        m["trace.overhead_s"] = (rep["t_cold"] + rep["t_warm"]
                                 - rep["u1_cold"] - rep["u1_warm"])
        m["trace.overhead_frac"] = m["trace.overhead_s"] / (rep["u1_cold"] + rep["u1_warm"])
        for k, v in m.items():
            values.setdefault(k, []).append(v)
        missing = sorted({h for d in rep["spans"] for h in d["missing_hooks"]})
        if missing:  # the layer reads 0; not a failure of the program
            print(f"warning: hook points missing from the package: {missing}")
    print(f"traced repetitions: {len(reps)}")
    for rep in reps:
        print("  untraced 1w cold {u1_cold:.4f} s warm {u1_warm:.4f} s, "
              "untraced 2w cold {u2_cold:.4f} s, traced cold {t_cold:.4f} s "
              "warm {t_warm:.4f} s".format(**rep))
    top = sorted(((median(v), k) for k, v in values.items()
                  if k.endswith("_s") and not k.startswith("trace.")), reverse=True)[:5]
    print("tail_ms percentiles: " + ", ".join(
        f"{name} {p} of {n} calls" for name, (p, n) in tails.items()))
    print("largest self times: " + ", ".join(f"{k}={v:.4f}s" for v, k in top))
    return {k: median(v) for k, v in values.items()}


# --- environment record ---

def environment(seed):
    import numpy
    from importlib import metadata

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    source = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(SRC)):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                with open(path, "rb") as fh:
                    source.update(os.path.relpath(path, SRC).encode() + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "KNOTFOLD_WORKERS": WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "git_sha": sha or "unknown (not a git checkout)",
        "src_sha256": source.hexdigest(),
        "seed": seed,
    }


def run(args):
    w = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench_work", f"{w.name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        sys.path.insert(0, SRC)
        print("env: " + json.dumps(environment(args.seed), sort_keys=True))
        deadline = time.perf_counter() + RUN_LIMIT
        bench = Bench(w, args.seed, args.smoke, args.wrong_golden, work, deadline,
                      args.truncate_cache)
        setup = measure_setup(work, 1 if args.smoke else SETUP_SAMPLES, deadline)
        print(describe("setup_s", setup, "s"))
        if args.trace:
            metrics = per_layer(bench, traced(bench, args.seconds))
        else:
            cold, warm, rss = end_to_end(bench, args.seconds)
            print(describe("wall_s", cold, "s"))
            print(describe("warm_s", warm, "s"))
            print(describe("peak_rss_mb", rss, "MB"))
            wall = median(cold)
            metrics = {
                "setup_s": median(setup),
                "wall_s": wall,
                "knots_per_s": bench.final_knots() / wall,
                "warm_s": median(warm),
                "peak_rss_mb": median(rss),
                "verified_fraction": 1 - bench.failed / bench.attempted,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in bench.problems:
        print(f"FAIL {p}")
    print(f"records attempted {bench.attempted}, failed {bench.failed}, "
          f"failed_fraction {bench.failed / bench.attempted:.6g}")
    with open(BENCHMARK) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    result = {
        "correct": not bench.problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


def selfcheck(args):
    """Smoke-run every workload with the real goldens, then with each fault
    the gate must catch: a wrong golden, and (dt_batch) a cache the CLI
    left half written."""
    rows, ok = [], True
    for name, w in WORKLOADS.items():
        cases = [(0, None), (1, None), (0, "--wrong-golden")]
        if not w.family:
            cases.append((0, "--truncate-cache"))
        for trace, fault in cases:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", "1", "--trace", str(trace),
                   "--smoke"] + ([fault] if fault else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=170)
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            frac = res["failed"] / res["attempted"] if res else None
            good = res is not None and (
                (frac > 0 and not res["correct"]) if fault
                else (frac == 0 and res["correct"]))
            ok &= good
            rows.append({"workload": name, "trace": trace, "fault": fault,
                         "failed_fraction": frac, "as_expected": good})
            print(f"{name:20s} trace={trace} fault={fault or 'none':16s} "
                  f"failed_fraction={frac} {'ok' if good else 'UNEXPECTED'}")
            if not good:
                print(proc.stdout[-3000:] + proc.stderr[-3000:])
    print(json.dumps({"selfcheck_passed": ok, "runs": rows}))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one repetition: checks the harness, not speed")
    ap.add_argument("--wrong-golden", action="store_true",
                    help="corrupt one golden; the run must then report failures")
    ap.add_argument("--truncate-cache", action="store_true",
                    help="dt_batch: drop half of each cold call's cache before the "
                         "check; the run must then report failures")
    ap.add_argument("--selfcheck", action="store_true",
                    help="smoke-run every workload with right and wrong goldens")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "knotfold", "cli.py")):
        print(f"error: no knotfold sources under {SRC}; run from the root of a "
              "knotfold checkout", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(args)
    if not args.workload:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
