"""Decomposition against exhaustive subset-pair and containment oracles."""

import importlib
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdecomp import (
    DecomposeConfig,
    ValidationError,
    canonicalize,
    decompose,
    decompose_all,
    decompose_weighted,
)

from conftest import random_hypergraph

# The package re-exports the decompose() function under the module's name.
decompose_mod = importlib.import_module("hyperdecomp.decompose")


def oracle_unweighted(member_tuples, k, cap):
    """Node and edge sets from the definition: k-subsets of admissible
    hyperedges, joined when a global containment table holds their union."""
    admissible = [e for e in member_tuples if k <= len(e) <= cap]
    nodes = sorted({c for e in admissible for c in combinations(e, k)})
    contained = {
        sub
        for e in admissible
        for size in range(k, min(len(e), 2 * k) + 1)
        for sub in combinations(e, size)
    }
    edges = {
        (a, b)
        for a, b in combinations(nodes, 2)
        if tuple(sorted(set(a) | set(b))) in contained
    }
    return nodes, edges


def oracle_weighted(member_tuples, k):
    nodes, edges = oracle_unweighted(member_tuples, k, cap=10**9)
    weights = {}
    for a, b in edges:
        union = set(a) | set(b)
        weights[(a, b)] = sum(1 for e in member_tuples if union <= set(e))
    loops = {}
    for e in member_tuples:
        if len(e) == 1:
            loops[e] = loops.get(e, 0) + 1
    return nodes, weights, loops


def edge_pairs(G):
    return {
        (G.nodes[int(u)], G.nodes[int(v)]) for u, v in G.edge_array
    }


def test_config_validation():
    with pytest.raises(ValidationError):
        DecomposeConfig(level=0, max_edge_size=5)
    with pytest.raises(ValidationError):
        DecomposeConfig(level=3, max_edge_size=2)
    assert DecomposeConfig.for_level(1).max_edge_size == 25
    assert DecomposeConfig.for_level(2).max_edge_size == 7
    assert DecomposeConfig.for_level(4, 9).max_edge_size == 9


def test_single_hyperedge_binomial_counts():
    H = canonicalize([list(range(8))])
    for k in (1, 2, 3, 4):
        G = decompose(H, DecomposeConfig(level=k, max_edge_size=8))
        assert G.num_nodes == comb(8, k)
        # One hyperedge contains every union, so the graph is complete.
        assert G.num_edges == comb(comb(8, k), 2)


def test_triangle_level_of_size_8_edge():
    G = decompose(canonicalize([list(range(8))]), DecomposeConfig(level=3, max_edge_size=8))
    assert (G.num_nodes, G.num_edges) == (56, 1540)


def test_default_caps_filter_large_hyperedges():
    H = canonicalize([list(range(8)), [0, 1]])
    levels = decompose_all(H, [1, 2])
    # Node level admits the size-8 hyperedge (cap 25), level 2 does not.
    assert levels[1].num_nodes == 8
    assert levels[1].num_edges == comb(8, 2)
    assert levels[2].num_nodes == 1  # only the pair {0,1} survives the cap
    assert levels[2].num_edges == 0

    big = canonicalize([list(range(26))])
    all_lv = decompose_all(big, [1, 2])
    assert all_lv[1].num_nodes == 0 and all_lv[2].num_nodes == 0


def test_size_5_hyperedge_across_levels():
    H = canonicalize([list(range(5))])
    counts = [decompose_all(H, [k])[k].num_nodes for k in (1, 2, 3, 4)]
    assert counts == [5, 10, 10, 5]


def test_nodes_sorted_and_edges_canonical():
    H = canonicalize([[4, 2, 9], [2, 9, 7]])
    G = decompose(H, DecomposeConfig.for_level(2))
    assert list(G.nodes) == sorted(G.nodes)
    arr = G.edge_array
    assert np.all(arr[:, 0] < arr[:, 1])
    rows = [tuple(r) for r in arr.tolist()]
    assert rows == sorted(rows)


def test_oracle_equivalence_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        H = random_hypergraph(rng, max_nodes=12, max_edge_size=6, max_edges=15)
        members = H.member_tuples()
        for k in (1, 2, 3):
            cap = int(rng.integers(k, 9))
            G = decompose(H, DecomposeConfig(level=k, max_edge_size=cap))
            nodes, edges = oracle_unweighted(members, k, cap)
            assert list(G.nodes) == nodes
            assert edge_pairs(G) == edges


def test_weighted_oracle_equivalence_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        H = random_hypergraph(rng, max_nodes=10, max_edge_size=5, max_edges=12)
        members = H.member_tuples()
        for k in (1, 2, 3):
            W = decompose_weighted(H, k)
            nodes, weights, loops = oracle_weighted(members, k)
            assert list(W.base.nodes) == nodes
            got = {
                (W.base.nodes[int(u)], W.base.nodes[int(v)]): int(w)
                for (u, v), w in zip(W.base.edge_array, W.weights)
            }
            assert got == weights
            if k == 1:
                got_loops = {W.base.nodes[i]: c for i, c in W.self_loops.items()}
                assert got_loops == loops
            else:
                assert W.self_loops == {}


def test_weighted_counts_duplicate_hyperedges():
    H = canonicalize([[0, 1, 2], [0, 1, 2], [0, 1]])
    W = decompose_weighted(H, 1)
    got = {
        (W.base.nodes[int(u)], W.base.nodes[int(v)]): int(w)
        for (u, v), w in zip(W.base.edge_array, W.weights)
    }
    assert got == {((0,), (1,)): 3, ((0,), (2,)): 2, ((1,), (2,)): 2}


def test_weighted_self_loops_from_singletons():
    H = canonicalize([[3], [3], [0, 3], [1]])
    W = decompose_weighted(H, 1)
    loops = {W.base.nodes[i]: c for i, c in W.self_loops.items()}
    assert loops == {(3,): 2, (1,): 1}


def test_monotone_under_added_hyperedge():
    rng = np.random.default_rng(3)
    for _ in range(10):
        H = random_hypergraph(rng, max_nodes=12, max_edge_size=5, max_edges=8)
        extra = canonicalize(
            H.member_tuples() + [[0, 1, 2]], n=max(H.n, 3)
        )
        for k in (1, 2):
            cfg = DecomposeConfig.for_level(k)
            small = decompose(H, cfg)
            large = decompose(extra, cfg)
            assert set(small.nodes) <= set(large.nodes)
            assert edge_pairs(small) <= edge_pairs(large)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=3))
def test_order_independence(pyrandom, k):
    rng = np.random.default_rng(pyrandom.randrange(2**32))
    H = random_hypergraph(rng, max_nodes=10, max_edge_size=5, max_edges=10)
    members = H.member_tuples()
    shuffled = list(members)
    pyrandom.shuffle(shuffled)
    H2 = canonicalize(shuffled, n=H.n)
    cfg = DecomposeConfig.for_level(k)
    G1, G2 = decompose(H, cfg), decompose(H2, cfg)
    assert G1.nodes == G2.nodes
    assert np.array_equal(G1.edge_array, G2.edge_array)


def test_weighted_topology_matches_uncapped_unweighted():
    rng = np.random.default_rng(5)
    H = random_hypergraph(rng, max_nodes=12, max_edge_size=6, max_edges=12)
    for k in (1, 2, 3):
        W = decompose_weighted(H, k)
        G = decompose(H, DecomposeConfig(level=k, max_edge_size=10**6))
        assert W.base.nodes == G.nodes
        assert np.array_equal(W.base.edge_array, G.edge_array)


def test_empty_and_degenerate_inputs():
    H = canonicalize([[0]])
    G = decompose(H, DecomposeConfig.for_level(1))
    assert G.num_nodes == 1 and G.num_edges == 0
    G2 = decompose(H, DecomposeConfig.for_level(2))
    assert G2.num_nodes == 0 and G2.num_edges == 0
    with pytest.raises(ValidationError):
        decompose_weighted(H, 0)


def test_subset_index_limit_raises_before_packing_overflows(monkeypatch):
    # Four level-1 subsets; the limit is lowered so the guard is reachable.
    H = canonicalize([[0, 1, 2, 3]])
    monkeypatch.setattr(decompose_mod, "MAX_PACKED_SUBSETS", 5)
    assert decompose(H, DecomposeConfig.for_level(1)).num_nodes == 4
    assert decompose_weighted(H, 1).base.num_nodes == 4
    monkeypatch.setattr(decompose_mod, "MAX_PACKED_SUBSETS", 4)
    with pytest.raises(ValidationError, match="packing limit"):
        decompose(H, DecomposeConfig.for_level(1))
    with pytest.raises(ValidationError, match="packing limit"):
        decompose_weighted(H, 1)
