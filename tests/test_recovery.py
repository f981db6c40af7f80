"""Lossless reconstruction from weighted decompositions."""

import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdecomp import (
    DecomposedGraph,
    RecoveryError,
    ValidationError,
    WeightedDecomposedGraph,
    canonicalize,
    decompose_weighted,
    read_weighted_graph,
    recover,
)
import hyperdecomp.recovery as recovery_mod
from hyperdecomp.recovery import _subtract

from conftest import random_hypergraph


def stack(H):
    return {k: decompose_weighted(H, k) for k in range(1, max(2, H.max_edge_size()))}


def edge_multiset(H):
    return Counter(H.member_tuples())


def assert_recovered(H):
    R = recover(stack(H))
    assert R.n == 1 + max(v for e in H.member_tuples() for v in e)
    assert edge_multiset(R) == edge_multiset(H)


def test_roundtrip_mixed_sizes_and_duplicates():
    H = canonicalize(
        [[0], [0], [1, 2], [1, 2], [0, 1, 2, 3], [2, 3, 4], [5, 6, 7, 8, 9]],
        n=10,
    )
    assert_recovered(H)


def test_roundtrip_singletons_only():
    H = canonicalize([[0], [1], [1], [2]], n=3)
    assert_recovered(H)


def test_roundtrip_single_large_edge():
    H = canonicalize([list(range(7))])
    assert_recovered(H)


def test_roundtrip_nested_edges():
    # A hyperedge inside another: peeling must not confuse the inner
    # clique with the residue of the outer one.
    H = canonicalize([[0, 1, 2, 3, 4], [1, 2, 3], [1, 2, 3], [2, 3]])
    assert_recovered(H)


def test_roundtrip_size_12_hyperedge():
    # A size-12 hyperedge with a nested size-11 one, each peeled at the top
    # of its own level, plus small edges sharing its nodes.
    H = canonicalize(
        [list(range(12)), list(range(11)), [2, 5, 13], [11, 12], [12], [2, 5, 13]]
    )
    assert_recovered(H)


def test_output_order_is_size_descending_then_lexicographic():
    # Duplicates stay adjacent; singletons come last, by node.
    H = canonicalize(
        [[5, 6], [0], [2, 3, 4], [0, 1, 2, 3], [2, 3], [0], [2, 3, 4], [1, 2, 3], [7]],
        n=8,
    )
    assert recover(stack(H)).member_tuples() == [
        (0, 1, 2, 3),
        (1, 2, 3),
        (2, 3, 4),
        (2, 3, 4),
        (2, 3),
        (5, 6),
        (0,),
        (0,),
        (7,),
    ]


def test_missing_level_is_reported(tmp_path):
    H = canonicalize([[0, 1, 2, 3], [0, 1]])
    graphs = stack(H)
    del graphs[2]
    with pytest.raises(ValidationError) as exc:
        recover(graphs)
    assert "2" in str(exc.value)
    # Far-off levels are counted, not listed: an empty file at a high level.
    path = tmp_path / "empty.txt"
    path.write_text("# level=1000000\n")
    with pytest.raises(ValidationError) as exc:
        recover({10**6: read_weighted_graph(str(path))})
    message = str(exc.value)
    assert "999999 of" in message and "first 1" in message and len(message) < 100


def test_mislabeled_level_is_rejected():
    H = canonicalize([[0, 1, 2]])
    graphs = stack(H)
    with pytest.raises(ValidationError):
        recover({1: graphs[1], 3: graphs[2]})


def test_empty_input_rejected():
    with pytest.raises(ValidationError):
        recover({})


def test_header_only_level_file_is_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# level=1\n")
    with pytest.raises(ValidationError, match="no nodes"):
        recover({1: read_weighted_graph(str(path))})


def test_inflated_weight_is_detected():
    H = canonicalize([[0, 1, 2], [0, 1, 2, 3]])
    graphs = stack(H)
    G2 = graphs[2]
    weights = np.array(G2.weights, dtype=np.int64)
    weights[0] += 1
    graphs[2] = WeightedDecomposedGraph(base=G2.base, weights=weights)
    with pytest.raises(RecoveryError) as exc:
        recover(graphs)
    assert exc.value.level == 2


def test_missing_edge_is_detected():
    H = canonicalize([[0, 1, 2, 3]])
    graphs = stack(H)
    base = graphs[3].base
    trimmed = DecomposedGraph(
        level=base.level, nodes=base.nodes, edge_array=base.edge_array[1:]
    )
    graphs[3] = WeightedDecomposedGraph(base=trimmed, weights=graphs[3].weights[1:])
    with pytest.raises(RecoveryError) as exc:
        recover(graphs)
    assert exc.value.level == 3


def test_isolated_node_without_hyperedge_is_detected():
    # Dropping the only edge of (0, 1) leaves nodes 0 and 1 on no edge and
    # with no self-loop: no hypergraph decomposes to that.
    H = canonicalize([[0, 1], [2, 3]])
    graphs = stack(H)
    base = graphs[1].base
    trimmed = DecomposedGraph(level=1, nodes=base.nodes, edge_array=base.edge_array[1:])
    graphs[1] = WeightedDecomposedGraph(base=trimmed, weights=graphs[1].weights[1:])
    with pytest.raises(RecoveryError) as exc:
        recover(graphs)
    assert exc.value.level == 1
    assert "(0,)" in str(exc.value)
    # The mirror case: a size-3 hyperedge that is not a level-3 node.
    graphs = stack(canonicalize([[0, 1, 2, 3], [4, 5, 6]]))
    base = graphs[3].base
    trimmed = DecomposedGraph(level=3, nodes=base.nodes[:-1], edge_array=base.edge_array)
    graphs[3] = WeightedDecomposedGraph(base=trimmed, weights=graphs[3].weights)
    with pytest.raises(RecoveryError, match=r"\(4, 5, 6\) is missing"):
        recover(graphs)
    # A top level whose one node no hyperedge accounts for: the size bound
    # comes from the highest level given, so that level is checked too.
    graphs = {**stack(canonicalize([[0, 1, 2], [1, 2]])),
              3: decompose_weighted(canonicalize([[5, 6, 7]]), 3)}
    with pytest.raises(RecoveryError, match=r"level 3: node \(5, 6, 7\) lies on no edge"):
        recover(graphs)


def test_unsorted_edge_rows_are_rejected():
    H = canonicalize([[0, 1, 2]])
    base = stack(H)[1].base
    with pytest.raises(ValidationError):
        DecomposedGraph(level=1, nodes=base.nodes, edge_array=base.edge_array[::-1])


def test_permuted_node_rows_are_rejected():
    # Recovery matches subsets by row order; a permuted node table used to
    # surface there as a false "edge ((0,), (1,)) has weight 0".
    base = stack(canonicalize([[0, 1, 2]]))[1].base
    with pytest.raises(ValidationError):
        DecomposedGraph(level=1, nodes=base.nodes[[1, 0, 2]], edge_array=base.edge_array)


def test_empty_weighted_file_at_a_huge_level_reads_and_reports_missing_levels(tmp_path):
    # No subset lines: the node table is (0, 2**40) and must not be ranked
    # or checked column by column.
    path = tmp_path / "wide.txt"
    path.write_text(f"# level={2**40}\n")
    G = read_weighted_graph(str(path))
    assert (G.level, G.base.num_nodes, G.base.num_edges) == (2**40, 0, 0)
    with pytest.raises(ValidationError, match="missing, first 1$") as exc:
        recover({2**40: G})
    assert len(str(exc.value)) < 80


def test_level_one_self_loop_count_drives_singletons():
    H = canonicalize([[0], [0], [0], [1, 2]], n=3)
    R = recover(stack(H))
    assert edge_multiset(R)[(0,)] == 3


def test_large_self_loop_counts_recover_as_arrays(tmp_path):
    path = tmp_path / "loops.txt"
    path.write_text("# level=1\n0 1 1\nselfloop 1 200000\n")
    R = recover({1: read_weighted_graph(str(path))})
    assert R.num_edges == 200_001 and R.max_edge_size() == 2
    assert R.members[2:].tolist() == [1] * 200_000
    # Counts that sum past int64 are refused when the graph is built.
    path.write_text(f"# level=1\n0 1 1\nselfloop 1 {2**62}\nselfloop 1 {2**62}\n")
    with pytest.raises(ValidationError, match="self-loop count"):
        read_weighted_graph(str(path))


def test_recovered_size_is_bounded_before_expansion(monkeypatch):
    # 3 x (0, 1, 2) and 2 x (1, 3): 13 int64 members, 104 bytes.
    H = canonicalize([[0, 1, 2], [0, 1, 2], [0, 1, 2], [1, 3], [1, 3]])
    graphs = stack(H)
    monkeypatch.setattr(recovery_mod, "DENSE_FALLBACK_MAX_BYTES", 104)
    assert edge_multiset(recover(graphs)) == edge_multiset(H)
    monkeypatch.setattr(recovery_mod, "DENSE_FALLBACK_MAX_BYTES", 103)
    with pytest.raises(RecoveryError, match="need 104 bytes, above the 103-byte") as exc:
        recover(graphs)
    assert exc.value.level == 1  # crossed while expanding the size-2 hyperedges
    monkeypatch.setattr(recovery_mod, "DENSE_FALLBACK_MAX_BYTES", 71)
    with pytest.raises(RecoveryError, match="need 72 bytes") as exc:
        recover(graphs)
    assert exc.value.level == 2


def traced_peak(graphs):
    tracemalloc.start()
    try:
        recover(graphs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_recovery_memory_does_not_grow_with_multiplicity():
    # One 10-node hyperedge 400 times, its levels scaled from one copy's so
    # the setup stays small. Repeating rows would cost about 0.3 MB a copy.
    H = canonicalize([list(range(10))])
    graphs = {}
    for k in range(1, 10):
        G = decompose_weighted(H, k)
        graphs[k] = WeightedDecomposedGraph(base=G.base, weights=G.weights * 400)
    assert traced_peak(graphs) < 8 * 2**20


def test_recovery_memory_stays_below_the_levels_it_holds():
    rng = np.random.default_rng(0)
    H = canonicalize(
        [rng.choice(3000, size=s, replace=False).tolist() for s in rng.integers(1, 10, 100)]
    )
    graphs = stack(H)
    held = sum(G.base.nodes.nbytes + G.base.edge_array.nbytes + G.weights.nbytes
               for G in graphs.values())
    assert traced_peak(graphs) < 0.85 * held


def test_recovered_edges_have_no_timestamps():
    H = canonicalize([[0, 1], [2]], n=3, timestamps=[5, 6])
    R = recover(stack(H))
    assert all(e.timestamp is None for e in R.edges)


def test_node_universe_is_max_seen():
    # Trailing isolated ids cannot survive: nothing at any level names them.
    H = canonicalize([[0, 1]], n=9)
    R = recover(stack(H))
    assert R.n == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_roundtrip_random_hypergraphs(seed):
    rng = np.random.default_rng(seed)
    H = random_hypergraph(rng, max_nodes=18, max_edge_size=5, max_edges=25)
    if H.num_edges == 0:
        return
    assert_recovered(H)


def _perturbed(graphs, kind, delta, pick):
    """Copy of `graphs` with one weight, edge row, node row or self-loop count changed."""
    out = dict(graphs)
    # Dropping a level's only node could leave no node at any level.
    several = [k for k in sorted(graphs) if graphs[k].base.num_nodes > 1]
    if kind == "node" and several:
        # Drop one node and the edges on it, so subsets of the larger
        # hyperedges' decomposition can be missing from the graph.
        k = several[pick % len(several)]
        G = graphs[k]
        gone = pick % G.base.num_nodes
        ends = G.base.edge_array
        keep = ~np.any(ends == gone, axis=1)
        base = DecomposedGraph(
            level=k,
            nodes=np.delete(G.base.nodes, gone, axis=0),
            edge_array=ends[keep] - (ends[keep] > gone),
        )
        loops = {i - (i > gone): c for i, c in G.self_loops.items() if i != gone}
        out[k] = WeightedDecomposedGraph(base=base, weights=G.weights[keep], self_loops=loops)
        return out
    with_edges = [k for k in sorted(graphs) if graphs[k].base.num_edges]
    if kind == "selfloop" or not with_edges:
        G = graphs[1]
        node = pick % G.base.num_nodes
        loops = dict(G.self_loops)
        loops[node] = max(1, loops.get(node, 0) + delta)
        out[1] = WeightedDecomposedGraph(base=G.base, weights=G.weights, self_loops=loops)
        return out
    k = with_edges[pick % len(with_edges)]
    G = graphs[k]
    row = pick % G.base.num_edges
    base, weights = G.base, np.array(G.weights)
    if kind == "weight":
        weights[row] = max(1, weights[row] + delta)
    else:
        keep = np.arange(G.base.num_edges) != row
        base = DecomposedGraph(level=k, nodes=base.nodes, edge_array=base.edge_array[keep])
        weights = weights[keep]
    out[k] = WeightedDecomposedGraph(base=base, weights=weights, self_loops=G.self_loops)
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["weight", "drop", "node", "selfloop"]),
    st.sampled_from([-1, 1, 2]),
    st.integers(min_value=0, max_value=10_000),
)
def test_perturbed_input_raises_or_recovers_an_exact_preimage(seed, kind, delta, pick):
    rng = np.random.default_rng(seed)
    H = random_hypergraph(rng, max_nodes=12, max_edge_size=5, max_edges=15)
    graphs = _perturbed(stack(H), kind, delta, pick)
    try:
        R = recover(graphs)
    except RecoveryError as exc:
        assert exc.level in graphs
        return
    for k, G in graphs.items():
        D = decompose_weighted(R, k)
        assert np.array_equal(D.base.nodes, G.base.nodes)
        assert np.array_equal(D.base.edge_array, G.base.edge_array)
        assert np.array_equal(D.weights, G.weights)
        assert D.self_loops == G.self_loops


def subtract_by_dict(G, mult):
    """G's weights less decompose_weighted of each hyperedge of `mult`
    repeated by its multiplicity, through dicts over subsets and edges, as
    recovery once mapped them; or, where G holds less than that needs, the
    message naming the first such edge."""
    repeated = [m for m, c in mult.items() for _ in range(c)]
    S = decompose_weighted(canonicalize(repeated), G.level)
    index = {s: i for i, s in enumerate(map(tuple, G.base.nodes.tolist()))}
    row = {pair: r for r, pair in enumerate(map(tuple, G.base.edge_array.tolist()))}
    s_nodes = [tuple(s) for s in S.base.nodes.tolist()]
    left = G.weights.copy()
    for (u, v), w in zip(S.base.edge_array.tolist(), S.weights.tolist()):
        r = row.get((index.get(s_nodes[u]), index.get(s_nodes[v])))
        held = 0 if r is None else int(left[r])
        if held < w:
            return f"edge {(s_nodes[u], s_nodes[v])} has weight {held}; larger hyperedges need {w}"
        left[r] -= w
    return left


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
def test_subtract_matches_a_dict_over_subsets(seed, k):
    # The larger hyperedges are some of H's plus a few others, so some of
    # their subsets, on edges or not, can be missing from G.
    rng = np.random.default_rng(seed)
    H = random_hypergraph(rng, max_nodes=10, max_edge_size=5, max_edges=12)
    other = random_hypergraph(rng, max_nodes=14, max_edge_size=4, max_edges=3)
    members = [m for m in H.member_tuples() if rng.random() < 0.6] + other.member_tuples()
    mult = {m: int(rng.integers(1, 4)) for m in members if len(m) > k}
    by_size = [sorted(m for m in mult if len(m) == s) for s in sorted(set(map(len, mult)))]
    larger = [(np.array(rows), np.array([mult[m] for m in rows])) for rows in by_size]
    G = decompose_weighted(H, k)
    want = subtract_by_dict(G, mult)
    if not isinstance(want, str):
        assert np.array_equal(_subtract(G, larger) if larger else G.weights, want)
        return
    with pytest.raises(RecoveryError) as exc:
        _subtract(G, larger)
    assert exc.value.level == k
    subsets = {s for m in mult for s in combinations(m, k)}
    if subsets <= set(map(tuple, G.base.nodes.tolist())):
        assert str(exc.value) == f"level {k}: {want}"
    else:
        assert "of a larger hyperedge is not a node" in str(exc.value)
