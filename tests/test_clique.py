"""Clique search cross-checked against networkx on random graphs."""

import random

import networkx as nx
import pytest

from mcwc.clique import max_clique


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
