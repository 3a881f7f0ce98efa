"""Knot diagram codes (DT and PD) and diagram-level operations.

A PlanarDiagram stores each crossing as 4 arc labels in counterclockwise
order starting from the incoming under-strand (PD convention).  A dart is a
pair (crossing index, slot) naming one of the four strand ends at a
crossing; slots 0 and 2 carry the under-strand, 1 and 3 the over-strand.

DT realization fixes the one free choice per crossing (which way the
second passage crosses the first) directly from the interlacement graph of
the code, after Dowker-Thistlethwaite and de Fraysseix-Ossona de Mendez:
crossing w is interlaced with u when exactly one of w's two passage times
lies strictly between u's.  Every planar assignment gives interlaced
crossings u, w equal senses when they share an odd number of interlaced
crossings and opposite senses otherwise, and reflecting one component of
the graph keeps an assignment planar.  So a walk over each component fixes
the senses up to those reflections, in time polynomial in the crossings.
Crossing 0 pins the reflection of its component; every other component is
pinned by its highest-index crossing.  The pairwise rule is necessary but
not sufficient, so the Euler face count still decides realizability.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .errors import (
    BadArcMultiplicity,
    Disconnected,
    DuplicateOrGap,
    NonInteger,
    NotRealizable,
    OddEntry,
)

DT_CONVENTIONS = ("a", "b")


@dataclass(frozen=True)
class DTSequence:
    """A validated Dowker-Thistlethwaite code: signed even entries."""

    entries: tuple

    def __post_init__(self):
        n = len(self.entries)
        for e in self.entries:
            if e == 0 or e % 2:
                raise OddEntry(f"DT entry {e} is not a nonzero even integer")
        if sorted(abs(e) for e in self.entries) != list(range(2, 2 * n + 1, 2)):
            raise DuplicateOrGap(
                f"absolute DT entries must be exactly 2..{2 * n} with no repeats")

    def __len__(self):
        return len(self.entries)


def parse_dt(text):
    """Parse a whitespace/comma separated list of integers into a DTSequence."""
    tokens = [t for t in re.split(r"[\s,]+", text.strip()) if t]
    entries = []
    for t in tokens:
        try:
            entries.append(int(t))
        except ValueError:
            raise NonInteger(f"DT token {t!r} is not an integer") from None
    return DTSequence(tuple(entries))


def _dart_mate(crossings):
    """Involution pairing the two darts of every arc label in ``crossings``."""
    occ = {}
    for ci, cr in enumerate(crossings):
        for s, label in enumerate(cr):
            occ.setdefault(label, []).append((ci, s))
    mate = {}
    for a, b in occ.values():
        mate[a] = b
        mate[b] = a
    return mate


def _faces(n, mate):
    """Faces of the rotation system on n crossings, as corner tuples."""
    todo = {(ci, s) for ci in range(n) for s in range(4)}
    faces = []
    while todo:
        c = next(iter(todo))
        face = []
        while c in todo:
            todo.remove(c)
            face.append(c)
            ci, s = c
            c = mate[(ci, (s + 1) % 4)]
        faces.append(tuple(face))
    return tuple(faces)


def _orientation(n, mate):
    """Trace every component of the diagram on n crossings with ``mate``.

    Returns (components, incoming) as documented on
    PlanarDiagram.orientation.  Components are traced out of the slot-2
    darts in crossing order, skipping a dart that an earlier trace already
    used in either direction, so each component that passes under leaves
    the first crossing where it does at slot 2.  A component that only
    passes over leaves its first free slot-1 or slot-3 dart.  The walk
    does not check the PD convention: from_even_under reads the crossings
    to rotate off it, and PlanarDiagram.orientation rejects a diagram in
    which a strand enters at slot 2.
    """
    if not n:
        return ((),), frozenset()
    incoming = set()
    components = []
    seen_out = set()

    def trace(start_out):
        visits = []
        out = start_out
        while out not in seen_out:
            seen_out.add(out)
            ci, s = mate[out]  # strand arrives here
            incoming.add((ci, s))
            visits.append((ci, s))
            out = (ci, (s + 2) % 4)
        return tuple(visits)

    for ci in range(n):
        if (ci, 2) not in seen_out and (ci, 2) not in incoming:
            components.append(trace((ci, 2)))
    for ci in range(n):
        for s in (1, 3):
            if (ci, s) not in seen_out and (ci, s) not in incoming:
                components.append(trace((ci, s)))
    return tuple(components), frozenset(incoming)


@dataclass(frozen=True)
class PlanarDiagram:
    """A link diagram: crossings as CCW 4-tuples of arc labels (PD code).

    The dart mate, the orientation and the faces are derived once, on
    first use, and kept on the instance.  They are immutable (a read-only
    mapping, tuples and frozensets) because every caller shares them.
    """

    crossings: tuple

    def __post_init__(self):
        counts = {}
        for cr in self.crossings:
            if len(cr) != 4:
                raise BadArcMultiplicity(f"crossing {cr} does not have 4 arcs")
            for label in cr:
                if not isinstance(label, int) or label < 1:
                    raise BadArcMultiplicity(f"bad arc label {label!r}")
                counts[label] = counts.get(label, 0) + 1
        bad = [l for l, c in counts.items() if c != 2]
        if bad:
            raise BadArcMultiplicity(
                f"arc labels {sorted(bad)} do not appear exactly twice")
        # Tracing below validates closure / orientation consistency.
        self.orientation

    def __reduce__(self):
        # Pickle and copy the crossings only; the cached structure holds a
        # read-only mapping, which does not pickle, and is cheap to rebuild.
        return PlanarDiagram, (self.crossings,)

    # --- structural helpers ---

    @property
    def n(self):
        return len(self.crossings)

    @cached_property
    def dart_mate(self):
        """Involution pairing the two darts of every arc, read-only."""
        return MappingProxyType(_dart_mate(self.crossings))

    @cached_property
    def orientation(self):
        """Every component traced, directing each arc.

        (components, incoming): components is a tuple of visit tuples
        ((crossing index, slot entered), ...) in traversal order and
        incoming is the frozenset of darts at which a strand enters its
        crossing.  The under-strand must enter at slot 0 everywhere; a
        diagram that cannot be oriented that way is rejected.
        """
        components, incoming = _orientation(self.n, self.dart_mate)
        if any(s == 2 for _, s in incoming):
            raise Disconnected(
                "under-strand enters at slot 2; PD violates the "
                "incoming-under convention")
        return components, incoming

    def crossing_signs(self):
        """Per-crossing sign: +1 when the over-strand enters at slot 3."""
        _, incoming = self.orientation
        signs = []
        for ci in range(self.n):
            signs.append(1 if (ci, 3) in incoming else -1)
        return signs

    @cached_property
    def faces(self):
        """Faces of the induced embedding, as a tuple of corner tuples.

        Corner (ci, s) is the region between darts s and s+1 at crossing ci.
        """
        if not self.crossings:
            return (((None, 0),), ((None, 1),))
        return _faces(self.n, self.dart_mate)


def mirror(d):
    """Switch over and under at every crossing (cyclic order preserved)."""
    _, incoming = d.orientation
    out = []
    for ci, cr in enumerate(d.crossings):
        s = 1 if (ci, 1) in incoming else 3  # incoming over-dart becomes under-in
        out.append(tuple(cr[(s + k) % 4] for k in range(4)))
    return PlanarDiagram(tuple(out))


def writhe(d):
    """Sum of crossing signs under the traced orientation."""
    return sum(d.crossing_signs())


def is_alternating(d):
    """True iff every component alternates over/under along its course."""
    components, _ = d.orientation
    for visits in components:
        k = len(visits)
        for i in range(k):
            s_here = visits[i][1]
            s_next = visits[(i + 1) % k][1]
            if (s_here % 2) == (s_next % 2):
                return False
    return True


def from_even_under(crossings):
    """Build a PlanarDiagram from CCW tuples with the under-strand on
    slots 0 and 2 but in an unknown direction.

    Orients the tuples with _orientation's walk, the one PlanarDiagram
    uses, and rotates every crossing where the under-strand turns out to
    enter at slot 2, so constructors can lay out tuples geometrically
    without solving for strand directions first.
    """
    _, incoming = _orientation(len(crossings), _dart_mate(crossings))
    return PlanarDiagram(tuple(cr[2:] + cr[:2] if (ci, 2) in incoming else cr
                               for ci, cr in enumerate(crossings)))


# --- DT realization ---

def _dt_crossing_tuples(code, eps, convention):
    """PD crossing tuples for a sense assignment, planar or not.

    Geometric slots are S,E,N,W in CCW order; the odd-time passage runs
    S->N, the even-time passage E->W when eps=+1 and W->E when eps=-1.
    Arc label k joins passage time k to time k+1 (arc 2n wraps to time 1).
    """
    n = len(code)
    two_n = 2 * n
    arc_in = lambda t: (t - 2) % two_n + 1   # arc entering at time t
    arc_out = lambda t: t                    # arc leaving at time t
    geo = []
    for i, entry in enumerate(code.entries):
        o, e = 2 * i + 1, abs(entry)
        if eps[i] == 1:
            g = (arc_in(o), arc_in(e), arc_out(o), arc_out(e))
        else:
            g = (arc_in(o), arc_out(e), arc_out(o), arc_in(e))
        geo.append(g)

    # Rotate each tuple to start at the incoming under-strand.
    out = []
    for i, entry in enumerate(code.entries):
        even_under = (entry > 0) == (convention == "a")
        if not even_under:
            start = 0                      # odd passage under, enters at S
        else:
            start = 1 if eps[i] == 1 else 3
        out.append(tuple(geo[i][(start + k) % 4] for k in range(4)))
    return tuple(out)


def _interlacement(code):
    """Bitset per crossing of the crossings interlaced with it.

    A crossing is interlaced with u when it passes an odd number of times
    strictly between u's two passage times, read off a prefix XOR of
    one-bit masks along the course.
    """
    owner = [0] * (2 * len(code) + 1)
    for i, entry in enumerate(code.entries):
        owner[2 * i + 1] = owner[abs(entry)] = i
    prefix = [0]
    for t in range(1, len(owner)):
        prefix.append(prefix[-1] ^ (1 << owner[t]))
    inter = []
    for i, entry in enumerate(code.entries):
        lo, hi = sorted((2 * i + 1, abs(entry)))
        inter.append(prefix[hi - 1] ^ prefix[lo])
    return inter


def _sense_vector(code):
    """Crossing senses from the pairwise interlacement rule.

    Components of the interlacement graph are walked from roots taken in
    the order 0, n-1, ..., 1, each root set to +1.  This is the assignment
    that comes first in binary counting order over masks of crossings
    1..n-1 (crossing 0 fixed), the order an exhaustive search would use.
    """
    n = len(code)
    inter = _interlacement(code)
    eps = [0] * n
    unset = (1 << n) - 1  # bitset of crossings without a sense yet
    for root in (0, *range(n - 1, 0, -1)):
        if not unset >> root & 1:
            continue
        eps[root] = 1
        unset ^= 1 << root
        stack = [root]
        while stack:
            u = stack.pop()
            rest = inter[u] & unset
            unset ^= rest
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                odd = (inter[u] & inter[w]).bit_count() & 1
                eps[w] = eps[u] if odd else -eps[u]
                stack.append(w)
    return eps


def realize_dt(code, convention="a"):
    """Realize a DT code as a PlanarDiagram.

    The crossing senses come from the interlacement rule (module
    docstring): interlaced crossings agree when they share an odd number
    of interlaced crossings and disagree otherwise.  Crossing 0 is pinned
    to +1 and every other interlacement component by its highest-index
    crossing, which resolves the reflection ambiguity deterministically.
    The rule holds for every planar assignment but does not imply
    planarity, so the Euler face count of the result stays as the final
    check.  Raises NotRealizable if it fails: then no assignment embeds in
    the plane.
    """
    if convention not in DT_CONVENTIONS:
        raise ValueError(f"unknown DT sign convention {convention!r}")
    d = PlanarDiagram(
        _dt_crossing_tuples(code, _sense_vector(code), convention))
    # Planarity: V - E + F = 2 needs n + 2 faces.  Rotating a tuple keeps
    # its cyclic order, so this is the face walk later callers reuse.
    if len(d.faces) != d.n + 2:
        raise NotRealizable(
            f"DT code {list(code.entries)} admits no planar embedding")
    return d


def dt_code(d, convention="a", start=None, reverse=False):
    """Recompute the DT code of a 1-component diagram.

    The traversal starts at the passage entering through dart ``start``
    (default: the head of the lowest arc label) and runs along the traced
    orientation, or against it when ``reverse`` is set.
    """
    components, incoming = d.orientation
    if len(components) != 1:
        raise ValueError("DT codes are defined for knots (1 component) only")
    if not d.crossings:
        return DTSequence(())
    visits = components[0]
    if start is None:
        lowest = min(label for cr in d.crossings for label in cr)
        ci = next(i for i, cr in enumerate(d.crossings) if lowest in cr)
        first = (ci, d.crossings[ci].index(lowest))
        start = first if first in incoming else d.dart_mate[first]
    idx = visits.index(start)
    order = visits[idx:] + visits[:idx]
    if reverse:
        # Traverse against the orientation: same crossings, reversed cyclic
        # order, entering where the forward course exited.
        order = order[:1] + order[:0:-1]
    times = {}
    for t, (ci, s) in enumerate(order, start=1):
        times.setdefault(ci, []).append((t, s))
    entries = [0] * len(d.crossings)
    for ci, ((t1, s1), (t2, s2)) in times.items():
        if t1 % 2 == 0:
            (t1, s1), (t2, s2) = (t2, s2), (t1, s1)
        even_under = s2 % 2 == 0
        sign = 1 if even_under == (convention == "a") else -1
        entries[(t1 - 1) // 2] = sign * t2
    return DTSequence(tuple(entries))


def all_dt_codes(d, convention="a"):
    """Every DT code of a knot diagram over all traversal starts/directions."""
    components, incoming = d.orientation
    codes = set()
    for dart in components[0]:
        for reverse in (False, True):
            codes.add(dt_code(d, convention, start=dart, reverse=reverse).entries)
    return codes


# --- PD text form ---

_PD_CROSSING_RE = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_pd(text):
    """Parse `X(a,b,c,d) X(e,f,g,h) ...` into a validated PlanarDiagram."""
    stripped = text.strip()
    crossings = []
    for m in _PD_CROSSING_RE.finditer(stripped):
        crossings.append(tuple(int(g) for g in m.groups()))
    leftover = re.sub(r"\s+", "", _PD_CROSSING_RE.sub("", stripped))
    if leftover:
        raise BadArcMultiplicity(f"unparsable PD fragment {leftover!r}")
    return PlanarDiagram(tuple(crossings))
