"""Knot signature from a diagram via the Goeritz matrix.

One checkerboard color class of the diagram's faces gives a Goeritz
matrix; its signature plus a per-crossing correction term yields the link
signature (Gordon-Litherland).  The sign convention is the one under which
positive knots have positive signature (the trefoil with all-positive
crossings gets +2), so that mirror selection by positive signature and by
positive extreme Jones degree agree on chiral knots.  The Goeritz
signature comes from fraction-free integer elimination.
"""

from __future__ import annotations

from math import gcd

from .errors import Unsupported


def _white_graph(d):
    """Edges of the corner-adjacency multigraph on face indices.

    Opposite corners at a crossing lie in faces of the same checkerboard
    color; corners (0, 2) define a sign +1 edge and corners (1, 3) a sign
    -1 edge.  Returns (edges, faces) with edges as (i, j, edge_sign, ci).
    """
    faces = d.faces
    face_of = {}
    for fi, face in enumerate(faces):
        for corner in face:
            face_of[corner] = fi
    edges = []
    for ci in range(d.n):
        edges.append((face_of[(ci, 0)], face_of[(ci, 2)], 1, ci))
        edges.append((face_of[(ci, 1)], face_of[(ci, 3)], -1, ci))
    return edges, faces

def _components(nverts, edges):
    parent = list(range(nverts))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _, _ in edges:
        parent[find(i)] = find(j)
    comps = {}
    for v in range(nverts):
        comps.setdefault(find(v), []).append(v)
    return sorted(comps.values(), key=lambda c: (len(c), c))


def _goeritz(vertices, edges):
    """Goeritz matrix of one color class, first row/column deleted."""
    idx = {v: k for k, v in enumerate(sorted(vertices))}
    nv = len(idx)
    m = [[0] * nv for _ in range(nv)]
    for i, j, sign, _ in edges:
        a, b = idx[i], idx[j]
        m[a][b] += sign
        if a != b:
            m[b][a] += sign
    for k in range(nv):
        m[k][k] = -sum(m[r][k] for r in range(nv))
    return [row[1:] for row in m[1:]]


def _sym_signature(m):
    """Signature of an integer symmetric matrix by congruence reduction.

    Fraction-free: with pivot d and the column c below it, the trailing
    block S becomes sign(d) (d S - c c^T), then is divided by the gcd of
    its entries.  That is |d| (S - c c^T / d) scaled by a positive
    number, so neither step changes the inertia (Sylvester's law), and
    every entry stays an exact int.
    """
    w = [list(row) for row in m]
    sig = 0
    while w:
        n = len(w)
        if w[0][0] == 0:
            pivot = next((j for j in range(1, n) if w[j][j]), None)
            if pivot is not None:
                w[0], w[pivot] = w[pivot], w[0]
                for row in w:
                    row[0], row[pivot] = row[pivot], row[0]
            else:
                other = next((j for j in range(1, n) if w[0][j]), None)
                if other is None:  # zero row/column: null direction
                    w = [row[1:] for row in w[1:]]
                    continue
                w[0] = [x + y for x, y in zip(w[0], w[other])]
                for row in w:
                    row[0] += row[other]
        d = w[0][0]
        sign = 1 if d > 0 else -1
        sig += sign
        c = [row[0] for row in w[1:]]
        block = [[sign * (d * x - ci * cj) for x, cj in zip(row[1:], c)]
                 for row, ci in zip(w[1:], c)]
        g = gcd(*(x for row in block for x in row))
        if g > 1:
            block = [[x // g for x in row] for row in block]
        w = block
    return sig


def signature_from_diagram(d):
    """Signature of the knot presented by a 1-component diagram."""
    components, _ = d.orientation
    if len(components) != 1:
        raise Unsupported("signature is computed for knots (1 component) only")
    edges, faces = _white_graph(d)
    comps = _components(len(faces), edges)
    if len(comps) != 2:
        raise Unsupported("split diagram has no checkerboard coloring")
    chosen = set(comps[0])
    kept = [e for e in edges if e[0] in chosen and e[1] in chosen]
    goeritz = _goeritz(chosen, kept)
    signs = d.crossing_signs()
    correction = sum(s for _, _, s, ci in kept if s == signs[ci])
    return _sym_signature(goeritz) + correction
