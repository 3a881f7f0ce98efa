"""Kauffman bracket and Jones polynomial evaluation.

The bracket is evaluated by a sweep that eliminates crossings one at a
time while tracking how the open strand ends of the processed part pair
up.  It returns the bracket in the variable A with the 0-crossing unknot
normalized to 1.

A sweep state is an involution on the open arc labels, keyed by the
frozenset of its (label, partner) items, which equal involutions share.
A crossing is added by splicing each of its two smoothing strands onto the
paths of the involution.  A strand whose two slots carry the same label (a
kink arc), or whose labels are the two ends of one path, closes a loop; any
other strand joins the far ends of the paths at its labels, where a label
with no path yet is its own far end.  A state's weight, a polynomial in A,
is packed into one int by Kronecker substitution (see kauffman_bracket
for the widths that keep the packing exact).  The sweep leaves out the first
loop that its last crossing closes, so its total is the bracket itself.
"""

from __future__ import annotations

from .errors import SweepNotClosed, WidthOverflow
from .laurent import LaurentPolynomial

# Read at every call.
SWEEP_STATE_BUDGET = 200_000

# Smoothing of a crossing (slots 0..3, CCW from the incoming under-strand):
# the A-smoothing joins slots (0,1) and (2,3), the B-smoothing (0,3), (1,2).
_A_PAIRS = ((0, 1), (2, 3))
_B_PAIRS = ((0, 3), (1, 2))


def _sweep_order(d):
    """Greedy crossing order keeping the open boundary small.

    A label that occurs twice at one crossing is a kink arc and never open;
    every other label toggles open or closed as its crossings are swept.
    """
    boundary = [sum(1 << lab for lab in cr if cr.count(lab) == 1)
                for cr in d.crossings]  # label bitsets
    remaining = list(range(d.n))
    open_labels = 0
    order = []
    while remaining:
        ci = min(remaining,
                 key=lambda c: (open_labels ^ boundary[c]).bit_count())
        remaining.remove(ci)
        order.append(ci)
        open_labels ^= boundary[ci]
    return order


def _apply_crossing(key, slot_labels, pairs):
    """Splice one smoothed crossing onto the boundary matching.

    ``ends`` starts as the matching ``key`` holds, the involution pairing the
    two open arc labels at the ends of each path through the processed part.
    Each smoothing strand then joins the labels a, b of its two slots.  When
    a == b (a kink arc) or ends[a] == b (the strand closes a path) a loop is
    closed and both labels leave.  Otherwise each of a, b is replaced by the
    far end of its path, or opens when it has none, and the two far ends
    are paired.  Returns (new matching key, closed loop count); the key is
    the frozenset of the matching's (label, partner) items.
    """
    ends, loops = dict(key), 0
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
    return frozenset(ends.items()), loops


def _unpack(packed, bits, off):
    """Balanced base-2^bits digits of ``packed`` as a bracket in A.

    Digit k, read in (-2^(bits-1), 2^(bits-1)], is the coefficient of
    A^(k - off).
    """
    terms = {}
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    k = -off
    while packed:
        c = packed & mask
        if c > half:
            c -= 1 << bits
        if c:
            terms[4 * k] = c
        packed = (packed - c) >> bits
        k += 1
    return LaurentPolynomial._trusted(terms, "A")


def kauffman_bracket(d):
    """Bracket by the sweep, each state's weight packed into one int.

    A weight sum_e c_e A^e is the int sum_e c_e 2^(bits (e + off)), so
    A^+-1 is a shift by ``bits``, a closed loop (-A^2 - A^-2) is
    -(w << 2 bits) - (w >> 2 bits), and merging states is int addition.
    These are exact int identities whenever every right shift is exact,
    whatever the digit sizes; the digits only have to hold the final
    coefficients when they are read back.  Widths, for n crossings: after
    j of them at most 2^j smoothing histories reach a state, each a
    monomial +-A^k (|k| <= j) times delta^L with L <= 2j loops closed.
    delta^L has coefficient 1-norm 2^L and exponents within +-2L, so
    every coefficient is at most 2^(3j) <= 2^(3n) in size, below the
    2^(bits-1) that balanced digits of bits = 3n + 2 hold, and every
    exponent, also between the shifts of one crossing, stays within +-5j.
    With off = 5n every exponent plus off stays >= 0, so every right
    shift drops only zero bits.

    The last crossing of the order closes a loop in every state that ends
    closed: its labels are the only open ones, and if its first strand
    closes no loop it pairs two far ends, which only its second strand
    closing a path removes.  That loop is the normalized unknot, so the
    last crossing counts one loop fewer and the total is the bracket.
    A diagram with no crossings keeps the start state, the unknot's 1.
    """
    n = d.n
    bits, off = 3 * n + 2, 5 * n
    loop_shift = 2 * bits
    closed = frozenset()
    states = {closed: 1 << (bits * off)}  # matching key -> packed weight
    order = _sweep_order(d)
    for ci in order:
        labels = d.crossings[ci]
        unknot = ci == order[-1]
        new_states = {}
        for key, weight in states.items():
            for pairs, w in ((_A_PAIRS, weight << bits),
                             (_B_PAIRS, weight >> bits)):
                k2, loops = _apply_crossing(key, labels, pairs)
                for _ in range(loops - unknot):
                    w = -(w << loop_shift) - (w >> loop_shift)
                new_states[k2] = new_states.get(k2, 0) + w
        if len(new_states) > SWEEP_STATE_BUDGET:
            raise WidthOverflow(
                f"sweep produced {len(new_states)} boundary states")
        states = new_states
    if list(states) != [closed]:
        raise SweepNotClosed("sweep did not close all strands")
    return _unpack(states[closed], bits, off)


def bracket_to_jones(bracket, w):
    """Writhe-correct an A-variable bracket and substitute down to q."""
    # f = (-A^3)^(-w) * <d>;  then  q = A^(-4).
    sign = -1 if w % 2 else 1
    terms = {}
    for e4, c in bracket.terms.items():
        e4f = e4 - 12 * w  # A^(-3w), stored exponents are 4 * A-exponent
        terms[-e4f // 4] = sign * c
    return LaurentPolynomial._trusted(terms, "q")


def jones(d):
    """Jones polynomial of a diagram (variable q; J(unknot) = 1)."""
    from .diagrams import writhe

    return bracket_to_jones(kauffman_bracket(d), writhe(d))

