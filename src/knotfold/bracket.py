"""Kauffman bracket and Jones polynomial evaluation.

Two independent evaluators are provided: an exhaustive state sum over all
2^n smoothings (the oracle, capped), and a sweep that eliminates crossings
one at a time while tracking how the open strand ends of the processed part
pair up.  Both return the bracket in the variable A with the 0-crossing
unknot normalized to 1.
"""

from __future__ import annotations

from .errors import CapExceeded, SweepNotClosed, WidthOverflow
from .laurent import LaurentPolynomial

STATESUM_CAP = 24
SWEEP_STATE_BUDGET = 200_000

# Smoothing of a crossing (slots 0..3, CCW from the incoming under-strand):
# the A-smoothing joins slots (0,1) and (2,3), the B-smoothing (0,3), (1,2).
_A_PAIRS = ((0, 1), (2, 3))
_B_PAIRS = ((0, 3), (1, 2))


def _delta():
    """Bracket loop value: -A^2 - A^-2."""
    return LaurentPolynomial.from_coeffs(-2, [-1, 0, 0, 0, -1], "A")


def _bracket_statesum(d, cap):
    n = d.n
    if n > cap:
        raise CapExceeded(f"{n} crossings exceeds the state-sum cap {cap}")
    mate = d.dart_mate()
    arc_edges = [(a, b) for a, b in mate.items() if a < b]
    darts = [(ci, s) for ci in range(n) for s in range(4)]
    index = {dart: i for i, dart in enumerate(darts)}

    total = LaurentPolynomial.zero("A")
    delta = _delta()
    delta_pows = {0: LaurentPolynomial.one("A")}

    for state in range(1 << n):
        parent = list(range(4 * n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
                return True
            return False

        loops = 4 * n  # darts; each union of distinct sets merges two
        for a, b in arc_edges:
            if union(index[a], index[b]):
                loops -= 1
        n_a = 0
        for ci in range(n):
            use_a = not (state >> ci) & 1
            n_a += use_a
            for s1, s2 in (_A_PAIRS if use_a else _B_PAIRS):
                if union(index[(ci, s1)], index[(ci, s2)]):
                    loops -= 1
        k = loops - 1
        if k not in delta_pows:
            p = delta_pows[max(delta_pows)]
            for j in range(max(delta_pows), k):
                p = p * delta
                delta_pows[j + 1] = p
        term = delta_pows[k].shift4(4 * (2 * n_a - n))  # A^(n_a - n_b)
        total = total + term
    return total


def _sweep_order(d):
    """Greedy crossing order keeping the open boundary small."""
    n = d.n
    occ = d.arc_occurrences()
    remaining = set(range(n))
    processed = set()
    open_labels = set()
    order = []
    while remaining:
        best = None
        for ci in sorted(remaining):
            labels = d.crossings[ci]
            width = len(open_labels)
            for lab in set(labels):
                slots_here = sum(1 for (cj, _) in occ[lab] if cj == ci)
                if slots_here == 2:
                    continue  # kink arc, never on the boundary
                if lab in open_labels:
                    width -= 1
                else:
                    width += 1
            if best is None or width < best[0]:
                best = (width, ci)
        _, ci = best
        order.append(ci)
        remaining.remove(ci)
        processed.add(ci)
        for lab in set(d.crossings[ci]):
            slots_here = sum(1 for (cj, _) in occ[lab] if cj == ci)
            if slots_here == 2:
                continue
            if lab in open_labels:
                open_labels.remove(lab)
            else:
                open_labels.add(lab)
    return order


def _apply_crossing(matching, slot_labels, pairs):
    """Attach one smoothed crossing to the boundary matching.

    The boundary strands, the two smoothing strands, and the arcs tying them
    together form a graph of maximum degree 2; its paths give the new
    matching and its cycles are closed loops.  Returns (new matching key,
    closed loop count).  ``matching`` is an involution on open arc labels.
    """
    label_slots = {}
    for s, lab in enumerate(slot_labels):
        label_slots.setdefault(lab, []).append(s)

    edges = []
    for x, y in matching.items():
        if x < y:
            edges.append((("f", x), ("f", y)))
    for s1, s2 in pairs:
        edges.append((("c", s1), ("c", s2)))
    terminal_label = {}
    for lab, ss in label_slots.items():
        if len(ss) == 2:  # kink arc: both occurrences at this crossing
            edges.append((("c", ss[0]), ("c", ss[1])))
        elif lab in matching:  # other occurrence already processed
            edges.append((("c", ss[0]), ("f", lab)))
        else:  # other occurrence still unprocessed: stays open
            terminal_label[("c", ss[0])] = lab

    adj = {}
    for eid, (u, v) in enumerate(edges):
        adj.setdefault(u, []).append((eid, v))
        adj.setdefault(v, []).append((eid, u))
    for node in terminal_label:
        adj.setdefault(node, [])

    used = [False] * len(edges)
    new_matching = {}
    endpoints = [node for node, nbrs in adj.items() if len(nbrs) == 1]
    endpoints += list(terminal_label)

    def end_label(node):
        if node[0] == "f":
            return node[1]
        return terminal_label[node]

    done = set()
    for start in endpoints:
        if start in done:
            continue
        done.add(start)
        cur = start
        while True:
            step = next(((eid, other) for eid, other in adj[cur]
                         if not used[eid]), None)
            if step is None:
                break
            used[step[0]] = True
            cur = step[1]
        done.add(cur)
        a, b = end_label(start), end_label(cur)
        new_matching[a] = b
        new_matching[b] = a

    loops = 0
    for eid, (u, v) in enumerate(edges):
        if used[eid]:
            continue
        loops += 1
        cur = u
        while True:
            step = next(((k, other) for k, other in adj[cur] if not used[k]),
                        None)
            if step is None:
                break
            used[step[0]] = True
            cur = step[1]
    key = tuple(sorted((x, y) for x, y in new_matching.items() if x < y))
    return key, loops


def _bracket_sweep(d, budget):
    n = d.n
    order = _sweep_order(d)
    one = LaurentPolynomial.one("A")
    a_mono = LaurentPolynomial.monomial(1, 1, "A")
    b_mono = LaurentPolynomial.monomial(1, -1, "A")
    delta = _delta()

    states = {(): one}  # canonical matching key -> accumulated weight
    for ci in order:
        labels = d.crossings[ci]
        new_states = {}
        for key, weight in states.items():
            matching = {}
            for x, y in key:
                matching[x] = y
                matching[y] = x
            for pairs, mono in ((_A_PAIRS, a_mono), (_B_PAIRS, b_mono)):
                k2, loops = _apply_crossing(matching, labels, pairs)
                w = weight * mono
                for _ in range(loops):
                    w = w * delta
                acc = new_states.get(k2)
                new_states[k2] = w if acc is None else acc + w
        if len(new_states) > budget:
            raise WidthOverflow(
                f"sweep produced {len(new_states)} boundary states")
        states = new_states
    if list(states) != [()]:
        raise SweepNotClosed("sweep did not close all strands")
    # Every state closed all of its loops, so the total carries one spare
    # delta relative to the bracket normalization.
    return states[()].exact_div(delta)


def kauffman_bracket(d, mode="sweep", cap=STATESUM_CAP,
                     budget=SWEEP_STATE_BUDGET):
    """Kauffman bracket of a diagram, 0-crossing unknot normalized to 1."""
    if d.n == 0:
        delta = _delta()
        out = LaurentPolynomial.one("A")
        for _ in range(d.component_count - 1):
            out = out * delta
        return out
    if mode == "statesum":
        return _bracket_statesum(d, cap)
    if mode == "sweep":
        return _bracket_sweep(d, budget)
    raise ValueError(f"unknown bracket mode {mode!r}")


def bracket_to_jones(bracket, w):
    """Writhe-correct an A-variable bracket and substitute down to q."""
    # f = (-A^3)^(-w) * <d>;  then  q = A^(-4).
    sign = -1 if w % 2 else 1
    terms = {}
    for e4, c in bracket.terms.items():
        e4f = e4 - 12 * w  # A^(-3w), stored exponents are 4 * A-exponent
        terms[-e4f // 4] = sign * c
    return LaurentPolynomial(terms, "q")


def jones(d, mode="sweep", cap=STATESUM_CAP, budget=SWEEP_STATE_BUDGET):
    """Jones polynomial of a diagram (variable q; J(unknot) = 1)."""
    from .diagrams import writhe

    return bracket_to_jones(kauffman_bracket(d, mode, cap, budget), writhe(d))


def skein_check(jp, jm, j0):
    """Exact test of (q^1/2 - q^-1/2) J0 = q^-1 J+ - q J-."""
    half = LaurentPolynomial({2: 1, -2: -1}, "q")
    qinv = LaurentPolynomial.monomial(1, -1, "q")
    qpos = LaurentPolynomial.monomial(1, 1, "q")
    return half * j0 == qinv * jp - qpos * jm
