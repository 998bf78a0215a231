"""Clique search cross-checked against networkx on random graphs."""

import math
import random

import networkx as nx
import pytest

from mcwc.clique import CliqueResult, _greedy_clique, _relabel, max_clique


def random_adjacency(n, p, seed):
    rng = random.Random(seed)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def networkx_clique_number(adj):
    graph = nx.Graph()
    graph.add_nodes_from(range(len(adj)))
    graph.add_edges_from(
        (i, j) for i in range(len(adj)) for j in range(i + 1, len(adj)) if (adj[i] >> j) & 1
    )
    return max(len(c) for c in nx.find_cliques(graph))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("n,p", [(18, 0.3), (24, 0.5), (30, 0.7)])
def test_against_networkx(n, p, seed):
    adj = random_adjacency(n, p, seed * 1000 + n)
    expected = networkx_clique_number(adj)
    result = max_clique(adj)
    assert result.complete
    assert result.size == expected
    # the witness really is a clique
    for v in result.members:
        for u in result.members:
            if u != v:
                assert (adj[v] >> u) & 1


def test_empty_and_edgeless():
    assert max_clique([]).size == 0
    result = max_clique([0, 0, 0])
    assert result.size == 1 and result.complete


def test_complete_graph():
    n = 40
    full = (1 << n) - 1
    adj = [full ^ (1 << i) for i in range(n)]
    result = max_clique(adj)
    assert result.size == n and result.complete


def test_budget_degrades_to_lower_bound():
    adj = random_adjacency(60, 0.9, 7)
    limited = max_clique(adj, node_budget=2)
    assert not limited.complete and limited.stop_reason == "budget"
    assert limited.size >= 1
    exact = max_clique(adj)
    assert exact.complete and exact.stop_reason == "done"
    assert limited.size <= exact.size


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n,p", [(24, 0.5), (40, 0.7), (48, 0.8)])
def test_target_stop_against_networkx(n, p, seed):
    adj = random_adjacency(n, p, seed * 7919 + n)
    omega = networkx_clique_number(adj)
    for target in range(1, omega + 3):
        result = max_clique(adj, target=target)
        assert result.complete
        assert result.stop_reason in ("target", "done")
        assert len(result.members) == result.size >= min(target, omega)
        if result.stop_reason == "done":
            assert result.size == omega
        for u in result.members:
            for v in result.members:
                if u != v:
                    assert (adj[u] >> v) & 1


@pytest.mark.parametrize("seed", range(6))
def test_target_met_by_greedy_seed_costs_no_nodes(seed):
    adj = random_adjacency(50, 0.8, seed)
    seed_size = max_clique(adj, node_budget=0).size  # the budget stops it at the seed
    for target in range(0, seed_size + 1):
        result = max_clique(adj, target=target)
        assert (result.stop_reason, result.nodes, result.size) == ("target", 0, seed_size)


def reference_max_clique(
    adjacency: list[int], node_budget: int = 10_000_000, target: float = math.inf
) -> CliqueResult:
    """max_clique as it was when it isolated the lowest set bit: the oracle
    for the visit order, so its node counts must match."""
    n = len(adjacency)
    if n == 0:
        return CliqueResult(0, (), "done", 0)

    # Relabel by non-increasing degree; better coloring bounds come first.
    order = sorted(range(n), key=lambda v: (-adjacency[v].bit_count(), v))
    pos = {v: i for i, v in enumerate(order)}
    adj = _relabel(adjacency, order)

    seed = _greedy_clique(adjacency, order)
    best = len(seed)
    best_members = [pos[v] for v in seed]

    def result(stop_reason: str, nodes: int) -> CliqueResult:
        members = tuple(sorted(order[i] for i in best_members))
        return CliqueResult(best, members, stop_reason, nodes)

    if best >= target:
        return result("target", 0)

    # vertex_of[(1 << v).bit_length()] is v.  Frames hold many vertex ids, and
    # sharing one int object per vertex (ints above 256 are not cached) halves
    # the search's memory.
    vertex_of = list(range(-1, n))

    def color_sort(cand: int) -> tuple[list[int], list[int]]:
        """Greedy coloring of the candidate set; returns vertices and their color counts.

        Vertices come out grouped by color class, so colors[i] (the number of
        classes used up to and including vertex i) is an upper bound on any
        clique inside the candidates up to that point.
        """
        vertices: list[int] = []
        bounds: list[int] = []
        color = 0
        while cand:
            color += 1
            available = cand
            while available:
                low = available & -available
                v = vertex_of[low.bit_length()]
                vertices.append(v)
                bounds.append(color)
                available &= ~adj[v]
                cand ^= low
                available &= cand
        return vertices, bounds

    # One branch frame per clique vertex: the parent's candidate set, its
    # coloring and the index of the vertex being branched on.  Candidates are
    # tried from the last (highest color) down, and a frame ends as soon as
    # its color bound cannot beat the incumbent.
    clique: list[int] = []
    frames: list[tuple[int, list[int], list[int], int]] = []
    cand = (1 << n) - 1
    nodes = 1
    if nodes > node_budget:
        return result("budget", nodes)
    vertices, bounds = color_sort(cand)
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
                vertices, bounds = color_sort(cand)
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
        cand &= ~(1 << v)
        i -= 1


@pytest.mark.parametrize("n", [1, 2, 20, 40, 70, 120])
@pytest.mark.parametrize("p", [0.1, 0.5, 0.8, 0.9, 0.95, 0.97])
def test_search_path_matches_reference(n, p):
    # Equal node counts under every budget and target mean that the same
    # vertices were coloured and branched on in the same order.
    adj = random_adjacency(n, p, n * 100 + int(p * 10))
    for budget in (0, 1, 3, 50, math.inf):
        for target in (1, 4, math.inf):
            assert max_clique(adj, budget, target) == reference_max_clique(adj, budget, target)


def test_search_path_matches_reference_on_a_table_graph():
    # The neighbourhood graph of cell (2,6,4,3), V = 381, as the table searches
    # it.  Its nodes colour many classes below the incumbent's reach, which
    # random graphs of p <= 0.9 seldom do.
    import numpy as np

    from mcwc.bounds import _adjacency, _profile_vertices

    words = _profile_vertices(2, 6, 3)
    neighbours = words[np.bitwise_count(words ^ words[0]).sum(axis=1) >= 4]
    adj = _adjacency(neighbours, 4)
    assert len(adj) == 381
    for budget in (0, 1, 100, 3000):
        for target in (79, math.inf):
            assert max_clique(adj, budget, target) == reference_max_clique(adj, budget, target)
