"""Exact maximum-clique search: branch and bound with a greedy-coloring bound.

Vertices are 0..V-1 and adjacency is given as one int bitmask per vertex
(bit j of row i set when i and j are adjacent).  The search is
deterministic: vertices are pre-ordered by non-increasing degree and the
coloring walks candidates in that fixed order.  It runs as a loop over an
explicit stack of branch frames, so graph size is not limited by the
interpreter's recursion limit and no global interpreter state is touched.

Inside ``max_clique`` the vertex at position i of the degree order sits at bit
V-1-i, so the next vertex to colour is the highest set bit of the candidate
mask.  ``int.bit_length()`` finds it in O(1), as CPython reads only the top
digit, where isolating the lowest bit (``x & -x``) costs two big-int
operations that each allocate and walk every digit.  The vertex is named by
that bit length, V-i, so ``x.bit_length()`` is the vertex itself and the
per-vertex bit and non-neighbour masks are indexed by it.  Callers never see
this naming.

A node at clique size c, with incumbent best, colours its candidates class by
class in the fixed order, but keeps only the vertices of colour
kmin = best - c + 1 and up: a vertex of lower colour cannot lead to a clique
larger than best, and best only grows while the node's frame is open.  A
vertex below kmin costs two big-int operations (an XOR that takes it out of
the candidates, an AND with its non-neighbour mask) and a ``bit_length``
call; a kept vertex costs the same and two list appends.  Most nodes of a
budget-limited search keep none or a few of the dozens of vertices they
colour, and the kept vertices and their order are those of a search that
recorded every class.

The result records why the search stopped:

* ``done`` -- the tree was exhausted; the clique is maximum.
* ``target`` -- the incumbent reached the caller's ``target`` (for example a
  proven upper bound); the greedy seed counts, so this can happen at 0 nodes.
* ``budget`` -- the node budget ran out; the clique is the best found so far.

``complete`` is true for ``done`` and ``target``: in both cases no further
search can improve on what the caller needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Rows handled per numpy call when relabelling bitmask rows; it keeps
# temporaries to a few rows of V entries instead of a V x V array.
ROW_BLOCK = 16


@dataclass
class CliqueResult:
    size: int
    members: tuple[int, ...]  # vertex ids in the caller's numbering
    stop_reason: str  # "done" | "target" | "budget"
    nodes: int

    @property
    def complete(self) -> bool:
        return self.stop_reason != "budget"


# numpy is imported inside the functions that use it.  Imported with this
# module, ahead of the rest of the package, it raised the peak RSS of CLI runs
# that build no graph by ~0.6 MB (measured without a bytecode cache).

def pack_rows(bits) -> list[int]:
    """One int bitmask per row of a 0/1 numpy matrix, column j as bit j."""
    import numpy as np

    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _relabel(adjacency: list[int], order: list[int]) -> list[int]:
    """Adjacency with vertex order[i] renamed i, rows and columns alike."""
    import numpy as np

    n = len(adjacency)
    width = (n + 7) // 8
    columns = np.array(order, dtype=np.intp)
    adj: list[int] = []
    for start in range(0, n, ROW_BLOCK):
        rows = order[start:start + ROW_BLOCK]
        raw = b"".join(adjacency[v].to_bytes(width, "little") for v in rows)
        bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), width),
            axis=1, count=n, bitorder="little",
        )
        adj.extend(pack_rows(bits[:, columns]))
    return adj


def _greedy_clique(adj: list[int], order: list[int]) -> list[int]:
    """Cheap initial clique: scan vertices in order, keep mutually adjacent ones."""
    clique: list[int] = []
    mask = -1
    for v in order:
        if mask == -1 or (mask >> v) & 1:
            clique.append(v)
            mask = adj[v] if mask == -1 else mask & adj[v]
    return clique


def max_clique(
    adjacency: list[int], node_budget: int = 10_000_000, target: float = math.inf
) -> CliqueResult:
    """Maximum clique of the graph, or the first one found with ``target`` vertices.

    Exact when the search stops as ``done``; see the module docstring for the
    other stop reasons.
    """
    n = len(adjacency)
    if n == 0:
        return CliqueResult(0, (), "done", 0)

    # Relabel by non-increasing degree; better coloring bounds come first.
    # Position i of that order is named n-i here and held at bit n-1-i, so
    # x.bit_length() names the vertex at the top bit of x.  Index 0 of the
    # per-vertex lists below names no vertex.
    order = sorted(range(n), key=lambda v: (-adjacency[v].bit_count(), v))
    adj = [0] + _relabel(adjacency, order[::-1])

    seed = _greedy_clique(adjacency, order)
    best = len(seed)
    name = {v: n - i for i, v in enumerate(order)}
    best_members = [name[v] for v in seed]

    def result(stop_reason: str, nodes: int) -> CliqueResult:
        members = tuple(sorted(order[n - v] for v in best_members))
        return CliqueResult(best, members, stop_reason, nodes)

    if best >= target:
        return result("target", 0)

    # excl[v] holds every vertex but v and its neighbours.  It is kept
    # non-negative: CPython copies a negative int to two's complement on every
    # AND, which made the search 14% slower on the budget-limited
    # (2,6..7,4..6,3) cells.
    bit = [0] + [1 << (v - 1) for v in range(1, n + 1)]
    full = (1 << n) - 1
    excl = [full ^ (row | b) for row, b in zip(adj, bit)]

    def color_sort(cand: int, kmin: int) -> tuple[list[int], list[int]]:
        """Greedy coloring of the candidate set; returns the vertices of colors
        kmin and up, and their color counts.

        Vertices come out grouped by color class, so bounds[i] (the number of
        classes used up to and including vertex i) is an upper bound on any
        clique inside the candidates up to that point.  Classes below kmin
        are colored, as they decide what the later classes hold, but not
        returned: their vertices could not pass the branch test.
        """
        for _ in range(1, kmin):
            v = cand.bit_length()
            cand ^= bit[v]
            available = cand & excl[v]
            while available:
                v = available.bit_length()
                cand ^= bit[v]
                available &= excl[v]
            if not cand:
                return [], []
        vertices: list[int] = []
        bounds: list[int] = []
        color = max(kmin - 1, 0)
        while cand:
            color += 1
            available = cand
            while available:
                v = available.bit_length()
                vertices.append(v)
                bounds.append(color)
                available &= excl[v]
                cand ^= bit[v]
        return vertices, bounds

    # One branch frame per clique vertex: the parent's candidate set, its
    # coloring and the index of the vertex being branched on.  Candidates are
    # tried from the last (highest color) down, and a frame ends as soon as
    # its color bound cannot beat the incumbent.  That incumbent only grows
    # while a frame is open, so color_sort leaves out the classes that could
    # not beat it when the frame was colored.
    clique: list[int] = []
    frames: list[tuple[int, list[int], list[int], int]] = []
    cand = full
    nodes = 1
    if nodes > node_budget:
        return result("budget", nodes)
    vertices, bounds = color_sort(cand, best + 1)
    i = len(vertices) - 1
    while True:
        if i >= 0 and len(clique) + bounds[i] > best:
            v = vertices[i]
            clique.append(v)
            sub = cand & adj[v]
            if sub:
                nodes += 1
                if nodes > node_budget:
                    return result("budget", nodes)
                frames.append((cand, vertices, bounds, i))
                cand = sub
                vertices, bounds = color_sort(cand, best - len(clique) + 1)
                i = len(vertices) - 1
                continue
            if len(clique) > best:
                best = len(clique)
                best_members = clique.copy()
                if best >= target:
                    return result("target", nodes)
            clique.pop()
        elif frames:
            cand, vertices, bounds, i = frames.pop()
            v = clique.pop()
        else:
            return result("done", nodes)
        cand ^= bit[v]
        i -= 1
