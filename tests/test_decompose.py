"""Decomposition against exhaustive subset-pair and containment oracles."""

import hashlib
import importlib
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperdecomp.cli as cli
from hyperdecomp import (
    DecomposeConfig,
    ValidationError,
    canonicalize,
    decompose,
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


def subsets(G):
    """The rows of G.nodes as tuples, in index order."""
    return [tuple(s) for s in G.nodes.tolist()]


def edge_pairs(G):
    nodes = subsets(G)
    return {(nodes[u], nodes[v]) for u, v in G.edge_array.tolist()}


def weight_map(W):
    nodes = subsets(W.base)
    return {
        (nodes[u], nodes[v]): w
        for (u, v), w in zip(W.base.edge_array.tolist(), W.weights.tolist())
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
    levels = {k: decompose(H, DecomposeConfig.for_level(k)) for k in (1, 2)}
    # Node level admits the size-8 hyperedge (cap 25), level 2 does not.
    assert levels[1].num_nodes == 8
    assert levels[1].num_edges == comb(8, 2)
    assert levels[2].num_nodes == 1  # only the pair {0,1} survives the cap
    assert levels[2].num_edges == 0

    big = canonicalize([list(range(26))])
    all_lv = {k: decompose(big, DecomposeConfig.for_level(k)) for k in (1, 2)}
    assert all_lv[1].num_nodes == 0 and all_lv[2].num_nodes == 0


def test_size_5_hyperedge_across_levels():
    H = canonicalize([list(range(5))])
    counts = [decompose(H, DecomposeConfig.for_level(k)).num_nodes for k in (1, 2, 3, 4)]
    assert counts == [5, 10, 10, 5]


def test_nodes_sorted_and_edges_canonical():
    H = canonicalize([[4, 2, 9], [2, 9, 7]])
    G = decompose(H, DecomposeConfig.for_level(2))
    assert subsets(G) == sorted(subsets(G))
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
            assert subsets(G) == nodes
            assert edge_pairs(G) == edges


def test_weighted_oracle_equivalence_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        H = random_hypergraph(rng, max_nodes=10, max_edge_size=5, max_edges=12)
        members = H.member_tuples()
        for k in (1, 2, 3):
            W = decompose_weighted(H, k)
            nodes, weights, loops = oracle_weighted(members, k)
            assert subsets(W.base) == nodes
            assert weight_map(W) == weights
            if k == 1:
                got_loops = {nodes[i]: c for i, c in W.self_loops.items()}
                assert got_loops == loops
            else:
                assert W.self_loops == {}


def test_weighted_counts_duplicate_hyperedges():
    H = canonicalize([[0, 1, 2], [0, 1, 2], [0, 1]])
    W = decompose_weighted(H, 1)
    assert weight_map(W) == {((0,), (1,)): 3, ((0,), (2,)): 2, ((1,), (2,)): 2}


def test_weighted_self_loops_from_singletons():
    H = canonicalize([[3], [3], [0, 3], [1]])
    W = decompose_weighted(H, 1)
    loops = {subsets(W.base)[i]: c for i, c in W.self_loops.items()}
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
            assert set(subsets(small)) <= set(subsets(large))
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
    assert np.array_equal(G1.nodes, G2.nodes)
    assert np.array_equal(G1.edge_array, G2.edge_array)


@st.composite
def sparse_relabeled(draw):
    """A multiset hypergraph on 0..n-1 and an order-preserving map of its
    ids into [0, 2**63 - 1], the int64 range the core works in."""
    n = draw(st.integers(min_value=1, max_value=9))
    edge = st.lists(
        st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=min(n, 7), unique=True
    )
    edges = draw(st.lists(edge, min_size=1, max_size=10))
    edges += [[draw(st.integers(0, n - 1))]]  # a singleton
    edges += draw(st.lists(st.sampled_from(edges), max_size=3))  # repeats
    ids = st.integers(min_value=0, max_value=2**63 - 1)
    sparse = sorted(draw(st.lists(ids, min_size=n, max_size=n, unique=True)))
    return canonicalize(edges, n=n), sparse


@settings(max_examples=60, deadline=None)
@given(sparse_relabeled(), st.integers(min_value=1, max_value=6), st.integers(0, 4))
def test_core_commutes_with_sparse_relabeling(case, k, extra_cap):
    H, sparse = case
    S = canonicalize([[sparse[v] for v in e] for e in H.member_tuples()])
    cap = k + extra_cap

    def relabel(G):
        return [tuple(sparse[v] for v in subset) for subset in subsets(G)]

    G, GS = (decompose(X, DecomposeConfig(level=k, max_edge_size=cap)) for X in (H, S))
    assert subsets(GS) == relabel(G)
    assert np.array_equal(GS.edge_array, G.edge_array)
    W, WS = decompose_weighted(H, k), decompose_weighted(S, k)
    assert subsets(WS.base) == relabel(W.base)
    assert np.array_equal(WS.base.edge_array, W.base.edge_array)
    assert np.array_equal(WS.weights, W.weights)
    assert WS.self_loops == W.self_loops

    members = H.member_tuples()
    nodes, edges = oracle_unweighted(members, k, cap)
    assert subsets(G) == nodes and edge_pairs(G) == edges
    nodes, weights, loops = oracle_weighted(members, k)
    assert subsets(W.base) == nodes
    assert weight_map(W) == weights
    assert {nodes[i]: c for i, c in W.self_loops.items()} == (loops if k == 1 else {})


def test_weighted_topology_matches_uncapped_unweighted():
    rng = np.random.default_rng(5)
    H = random_hypergraph(rng, max_nodes=12, max_edge_size=6, max_edges=12)
    for k in (1, 2, 3):
        W = decompose_weighted(H, k)
        G = decompose(H, DecomposeConfig(level=k, max_edge_size=10**6))
        assert np.array_equal(W.base.nodes, G.nodes)
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


def test_ids_beyond_int64_raise_validation_error(tmp_path, capsys):
    # Ids and timestamps are refused where they enter, not by decompose.
    for raw in ([[1, 2**63 - 1], [0, 2**63]], [[0, -(2**63) - 1]]):
        with pytest.raises(ValidationError, match="int64 range"):
            canonicalize(raw)
    with pytest.raises(ValidationError, match="int64 range"):
        canonicalize([[0], [1]], timestamps=[0, 2**63])
    H = canonicalize([[1, 2**63 - 1], [0, 2**63 - 2]])
    assert H.n == 2**63
    assert decompose(H, DecomposeConfig.for_level(1)).nodes[:, 0].tolist() == [
        0, 1, 2**63 - 2, 2**63 - 1
    ]
    assert decompose_weighted(H, 2).base.num_nodes == 2
    src = tmp_path / "big.txt"
    src.write_text(f"0 1\n0 {2**63}\n")
    for weighted in ([], ["--weighted"]):
        argv = ["decompose", str(src), "--level", "1", *weighted, "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {src}:2: a node id {2**63} is outside")


# --- pinned output files ---------------------------------------------------

# sha256 of the files `decompose` writes at levels 1-4, `decompose --weighted`
# at levels 1-7 and `recover` on the weighted files, for a seeded input with
# duplicates, singletons, hyperedges up to size 8 and ids above 2**16. A
# changed digest means changed output bytes.
PINNED_FILES = {
    "lv1": "59fe511d4bbdfaea774b03fdf4f7d513312b1b15e3368991cfc0e265417bc06a",
    "lv2": "5f544a55073c45d69c2bad8bbaa86dcb2438dd54ea1dfa91f7b0101941cb73f7",
    "lv3": "3cb6ce69c943d23f27911b0c592fdd6abcef8afc894921af2a4d9f47a74163eb",
    "lv4": "123a4b459627eac4ad77913c4a807c43d94ac2799265bc7503916278adbfac03",
    "w1": "66e92aa303d6f013246934c2723ad94e801921b65beb7d7cd3fd921bc154e094",
    "w2": "b8d1b5041ba869c6e901aa4806103af834d146f760353fc99d9c7f87f80faefa",
    "w3": "39372e8135e347ea9c738e2cbac13b66d69794157f23ad63d1d8dbf48e7f4a75",
    "w4": "f6e16237c806147edff8e97460324b569b7145473e0aa4e10e05f2581b99c77e",
    "w5": "be1595a1f7d857ffeb257df5415473c01a9737d6f1565b9e4c4bede8d43c2ef5",
    "w6": "e1ceda81acbb63c6e47e7396f9878bbd8bd2264cb20a687928e05b8716e21b25",
    "w7": "b817eddd104f6a92e67bbe0485ee988f7144fc78c149ee66046b6692c2573422",
    "recovered": "5811d249ca6d07d6b0c71830433dd64af611653f7d3fcd048ed13e7328fcae5e",
}


def _pinned_input(path):
    rng = np.random.default_rng(2026)
    pool = np.sort(rng.choice(np.arange(2**16, 2**22), size=40, replace=False))
    edges = [
        rng.choice(pool, size=int(size), replace=False).tolist()
        for size in rng.choice([1, 2, 2, 3, 3, 4, 5, 6, 7, 8], size=60)
    ]
    edges += [edges[int(i)] for i in rng.integers(0, len(edges), size=6)]
    path.write_text("".join(" ".join(map(str, e)) + "\n" for e in edges))
    return str(path)


def test_decompose_outputs_are_pinned(tmp_path):
    src = _pinned_input(tmp_path / "in.txt")
    argvs = {f"lv{k}": ["--level", str(k)] for k in range(1, 5)}
    argvs.update({f"w{k}": ["--level", str(k), "--weighted"] for k in range(1, 8)})
    for name, argv in argvs.items():
        assert cli.main(["decompose", src, *argv, "--out", str(tmp_path / name)]) == 0
    weighted = [str(tmp_path / f"w{k}") for k in range(1, 8)]
    assert cli.main(["recover", *weighted, "--out", str(tmp_path / "recovered")]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_FILES
    }
    assert digests == PINNED_FILES
