"""Capture the benchmark's goldens from the program as it stands.

Run from the root of a knotfold checkout:

    python3 perfbench/capture.py

It rewrites ``goldens/dt_pool.json`` (the dt_batch pool with every
variant's canonical Jones text, sigma and mirror_applied, and the expected
reason of each malformed or unrealizable line) and ``goldens/families.json``
(per-step n/d/dimension, S_1..S_6 and the knot count of each family
workload, at full and smoke size).  Goldens are a record of correct output:
recapture only for a change that is meant to alter results, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import dtgen
import gate
import run


def capture_pool(work):
    from knotfold.pipeline import InvariantCache, compute_batch, ingest

    slots = dtgen.build_pool_codes()
    path = os.path.join(work, "pool.dt")
    with open(path, "w") as fh:
        for sid, c, variants in slots:
            for v, code in enumerate(variants):
                fh.write(f"{sid}/{v};{c};{code}\n")
        for line in dtgen.MALFORMED + dtgen.UNREALIZABLE:
            fh.write(line + "\n")
    ds = ingest([path], "dt", "a")
    records, failures = compute_batch(ds, InvariantCache(None), run.WORKERS,
                                      "a", max_failure_fraction=1.0)
    by_id = {r.id: r for r in records}
    reasons = {rid: reason.split(":")[0] for rid, reason in failures}
    with open(path) as fh:
        lines = fh.read().splitlines()
    reasons.update({lines[lineno - 1]: reason.split(":")[0]
                    for _, lineno, reason in ds.rejects})
    pool = {"pool_seed": dtgen.POOL_SEED, "slots": [], "malformed": [],
            "unrealizable": []}
    for sid, c, variants in slots:
        entry = {"id": sid, "crossings": c, "variants": []}
        for v, code in enumerate(variants):
            r = by_id[f"{sid}/{v}"]
            entry["variants"].append({"code": code, "jones": r.jones.to_text(),
                                      "sigma": r.sigma,
                                      "mirror_applied": r.mirror_applied})
        pool["slots"].append(entry)
    for line in dtgen.MALFORMED:
        pool["malformed"].append({"line": line, "reason": reasons[line]})
    for line in dtgen.UNREALIZABLE:
        pool["unrealizable"].append({"line": line, "reason": reasons[line.split(";")[0]]})
    with open(dtgen.POOL_FILE, "w") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pool: {len(records)} records, {len(failures)} failures, "
          f"{len(ds.rejects)} rejects -> {dtgen.POOL_FILE}")


def capture_families(work):
    goldens = {}
    for w in run.WORKLOADS.values():
        if not w.family:
            continue
        for smoke in (False, True):
            out = os.path.join(work, "bundle")
            shutil.rmtree(out, ignore_errors=True)
            args = run.family_args(
                w, w.smoke_max_crossings if smoke else w.max_crossings, out)
            stdout_path = os.path.join(work, "stdout")
            _, code, _ = run.run_process([sys.executable, "-m", "knotfold.cli", *args],
                                         run.WORKERS, stdout_path,
                                         os.path.join(work, "stderr"), run.RUN_LIMIT)
            if code != 0:
                raise SystemExit(f"capture failed: {' '.join(args)} exited {code}")
            with open(stdout_path) as fh:
                steps = gate.parse_steps(fh.read())
            for s in steps:
                s["S"] = gate.read_leading_s(out, s["label"])
            with open(os.path.join(out, "run_manifest")) as fh:
                knots = json.load(fh)["record_count"]
            goldens[f"{w.name}{':smoke' if smoke else ''}"] = {
                "args": args[:-2], "knots": knots, "steps": steps}
            print(f"{w.name} smoke={smoke}: {steps}")
    with open(run.FAMILY_GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    if not os.path.isfile(os.path.join(run.SRC, "knotfold", "cli.py")):
        print("error: run from the root of a knotfold checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    work = os.path.join(run.ROOT, ".perfbench_work", f"capture-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        capture_pool(work)
        capture_families(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
