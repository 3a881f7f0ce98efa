"""The seeded synthetic DT dataset of the dt_batch workload.

The dataset is drawn from a fixed pool (``goldens/dt_pool.json``).  The
pool holds, for each crossing count 3..15, 30 slots; each slot is one DT
code taken from ``all_dt_codes`` of a ``double_twist_diagram`` or
``torus_diagram`` and carries four sign-flipped variants of it, each with
its golden invariants captured from the program (``capture.py``).

A workload seed picks one variant per slot and the line positions of a few
malformed lines.  Sign flips change the knot but not the absolute entries,
and ``realize_dt``'s cost depends on the absolute entries only, so the cost
of a dataset hardly depends on the seed while its contents do.  Records
stay in crossing order, as in a knot table.
"""

from __future__ import annotations

import json
import os
import random

POOL_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "goldens", "dt_pool.json")
POOL_SEED = 19121010
CROSSINGS = tuple(range(3, 16))
SLOTS = 30
VARIANTS = 4

# Lines ingest must quarantine, and DT codes with valid syntax that admit no
# planar embedding (computed, then reported as failures).  Their expected
# reasons are captured from the program into the pool file.
MALFORMED = (
    "bad-token;5;4 8 x 2 6",
    "bad-odd;3;3 6 2",
    "bad-dup;3;4 4 2",
    "bad-fields;7",
    "bad-count;seven;4 6 2",
    "bad-meta;3;4 6 2;colour=red",
)
UNREALIZABLE = (
    "nr-5;5;4 6 8 10 2",
    "nr-6;6;2 6 8 10 12 4",
)


def build_pool_codes():
    """Slots of the pool: (id, crossings, [signed codes]) from the diagrams."""
    from knotfold.diagrams import all_dt_codes
    from knotfold.families import (double_twist_diagram, double_twist_is_knot,
                                   torus_diagram)

    rng = random.Random(POOL_SEED)
    slots = []
    for c in CROSSINGS:
        diagrams = [double_twist_diagram(m, c - m) for m in range(1, c // 2 + 1)
                    if double_twist_is_knot(m, c - m)]
        if c % 2:
            diagrams.append(torus_diagram(c))
        codes = sorted({code for d in diagrams for code in all_dt_codes(d)})
        for s in range(SLOTS):
            base = codes[rng.randrange(len(codes))]
            variants = [" ".join(str(e if rng.random() < 0.5 else -e)
                                 for e in base) for _ in range(VARIANTS)]
            slots.append((f"c{c:02d}-{s:02d}", c, variants))
    return slots


def load_pool():
    with open(POOL_FILE) as fh:
        return json.load(fh)


def make_dataset(pool, seed, max_crossings=CROSSINGS[-1], slots_per_count=SLOTS):
    """Dataset text and, per data line number, what the program must yield.

    Each expectation is ``{"kind": "record", "id", "crossings", "jones",
    "sigma", "mirror_applied"}``, ``{"kind": "reject", "reason"}`` or
    ``{"kind": "failure", "id", "reason"}``.  The same seed and pool give
    the same bytes.
    """
    rng = random.Random(seed)
    entries = []
    for slot in pool["slots"]:
        if (slot["crossings"] > max_crossings
                or int(slot["id"].rsplit("-", 1)[1]) >= slots_per_count):
            continue
        v = slot["variants"][rng.randrange(len(slot["variants"]))]
        entries.append((f"{slot['id']};{slot['crossings']};{v['code']}",
                        {"kind": "record", "id": slot["id"],
                         "crossings": slot["crossings"], "jones": v["jones"],
                         "sigma": v["sigma"],
                         "mirror_applied": v["mirror_applied"]}))
    # Unrealizable codes are computed like records, so they sit at fixed
    # places (after their crossing count) to keep the batch's chunking the
    # same for every seed; quarantined lines never reach the batch.
    for u in pool["unrealizable"]:
        c = int(u["line"].split(";")[1])
        at = sum(1 for _, e in entries if e.get("crossings", 0) <= c)
        entries.insert(at, (u["line"], {"kind": "failure", "id": u["line"].split(";")[0],
                                        "reason": u["reason"]}))
    for b in pool["malformed"]:
        entries.insert(rng.randrange(len(entries) + 1),
                       (b["line"], {"kind": "reject", "reason": b["reason"]}))
    lines = [f"# knotfold dt_batch, seed {seed}"]
    expectations = {}
    for line, expect in entries:
        lines.append(line)
        expectations[len(lines)] = expect
    return "\n".join(lines) + "\n", expectations
