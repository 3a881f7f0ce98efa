"""Kauffman bracket and Jones polynomial evaluation.

Two independent evaluators are provided: an exhaustive state sum over all
2^n smoothings (the oracle, capped), and a sweep that eliminates crossings
one at a time while tracking how the open strand ends of the processed part
pair up.  Both return the bracket in the variable A with the 0-crossing
unknot normalized to 1.

A sweep state is an involution on the open arc labels, kept under a
canonical key: the sorted tuple of its pairs (x, y) with x < y.  A crossing
is added by splicing each of its two smoothing strands onto the paths of
the involution.  A strand whose two slots carry the same label (a kink
arc), or whose labels are the two ends of one path, closes a loop; any
other strand joins the far ends of the paths at its labels, where a label
with no path yet is its own far end.
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
    """Greedy crossing order keeping the open boundary small.

    A label that occurs twice at one crossing is a kink arc and never open;
    every other label toggles open or closed as its crossings are swept.
    """
    boundary = [{lab for lab in cr if cr.count(lab) == 1}
                for cr in d.crossings]
    remaining = list(range(d.n))
    open_labels = set()
    order = []
    while remaining:
        ci = min(remaining, key=lambda c: len(open_labels ^ boundary[c]))
        remaining.remove(ci)
        order.append(ci)
        open_labels ^= boundary[ci]
    return order


def _apply_crossing(matching, slot_labels, pairs):
    """Splice one smoothed crossing onto the boundary matching.

    ``ends`` starts as a copy of ``matching``, the involution pairing the two
    open arc labels at the ends of each path through the processed part.
    Each smoothing strand then joins the labels a, b of its two slots.  When
    a == b (a kink arc) or ends[a] == b (the strand closes a path) a loop is
    closed and both labels leave.  Otherwise each of a, b is replaced by the
    far end of its path, or opens when it has none, and the two far ends
    are paired.  Returns (new matching key, closed loop count); the key is
    the sorted tuple of pairs (x, y) with x < y, so equal matchings give
    equal keys.
    """
    ends, loops = dict(matching), 0
    for s1, s2 in pairs:
        a, b = slot_labels[s1], slot_labels[s2]
        if a == b or ends.get(a) == b:
            loops += 1
            ends.pop(a, None)
            ends.pop(b, None)
            continue
        x = ends.pop(a, a)
        if x != a:
            del ends[x]
        y = ends.pop(b, b)
        if y != b:
            del ends[y]
        ends[x], ends[y] = y, x
    key = tuple(sorted((x, y) for x, y in ends.items() if x < y))
    return key, loops


def _bracket_sweep(d, budget):
    order = _sweep_order(d)
    delta = _delta()

    states = {(): LaurentPolynomial.one("A")}  # matching key -> weight
    for ci in order:
        labels = d.crossings[ci]
        new_states = {}
        for key, weight in states.items():
            matching = {}
            for x, y in key:
                matching[x] = y
                matching[y] = x
            for pairs, exp4 in ((_A_PAIRS, 4), (_B_PAIRS, -4)):
                k2, loops = _apply_crossing(matching, labels, pairs)
                w = weight.shift4(exp4)  # A^+1 or A^-1
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
