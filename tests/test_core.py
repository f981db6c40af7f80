"""Canonical forms, validation, and the base graph containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdecomp import (
    DecomposedGraph,
    Hyperedge,
    Hypergraph,
    ValidationError,
    WeightedDecomposedGraph,
    canonicalize,
    dedup,
)


def test_canonicalize_sorts_and_dedups_members():
    H = canonicalize([[3, 1, 2, 1]])
    assert H.edges[0].members == (1, 2, 3)
    assert H.n == 4
    assert not H.deduplicated


def test_canonicalize_n_default_and_override():
    H = canonicalize([[0, 5]])
    assert H.n == 6
    assert canonicalize([[0, 5]], n=10).n == 10
    with pytest.raises(ValidationError):
        canonicalize([[0, 5]], n=5)


def test_canonicalize_rejects_bad_edges():
    with pytest.raises(ValidationError):
        canonicalize([[]])
    with pytest.raises(ValidationError):
        canonicalize([[-1, 2]])
    with pytest.raises(ValidationError):
        canonicalize([[0]], timestamps=[1, 2])


def test_canonicalize_keeps_multiset_and_order():
    H = canonicalize([[1, 0], [0, 1], [2]])
    assert H.member_tuples() == [(0, 1), (0, 1), (2,)]


def test_canonicalize_dedup_flag():
    H = dedup(canonicalize([[1, 0], [0, 1], [2]]))
    assert H.deduplicated
    assert H.member_tuples() == [(0, 1), (2,)]


def test_hyperedge_validation():
    with pytest.raises(ValidationError):
        Hyperedge(members=())
    with pytest.raises(ValidationError):
        Hyperedge(members=(2, 1))
    with pytest.raises(ValidationError):
        Hyperedge(members=(1, 1))
    with pytest.raises(ValidationError):
        Hyperedge(members=(-1,))
    e = Hyperedge(members=(1, 4), timestamp=7)
    assert len(e) == 2 and list(e) == [1, 4]


def test_hypergraph_validation():
    with pytest.raises(ValidationError):
        Hypergraph(n=2, edges=(Hyperedge(members=(0, 2)),))
    with pytest.raises(ValidationError):
        Hypergraph(
            n=3,
            edges=(Hyperedge(members=(0, 1)), Hyperedge(members=(0, 1))),
            deduplicated=True,
        )


def test_hypergraph_is_hashable():
    H1 = canonicalize([[0, 1], [1, 2]])
    H2 = canonicalize([[1, 0], [2, 1]])
    assert H1 == H2 and hash(H1) == hash(H2)


def test_dedup_keeps_earliest_timestamp_and_first_seen_order():
    H = canonicalize([[0, 1], [2], [1, 0], [2]], timestamps=[5, 1, 3, 0])
    D = dedup(H)
    assert D.deduplicated
    assert D.member_tuples() == [(0, 1), (2,)]
    assert [e.timestamp for e in D.edges] == [3, 0]
    assert dedup(D).member_tuples() == D.member_tuples()


def test_decomposed_graph_validation_and_accessors():
    nodes = np.array([[0], [1], [2]], dtype=np.int64)
    arr = np.array([[0, 1], [1, 2]], dtype=np.int64)
    G = DecomposedGraph(level=1, nodes=nodes, edge_array=arr)
    assert G.num_nodes == 3 and G.num_edges == 2
    assert G.edge_array.tolist() == [[0, 1], [1, 2]]
    assert G.degrees().tolist() == [1, 2, 1]
    adj = G.adjacency_csr()
    assert (adj != adj.T).nnz == 0
    for array in (G.nodes, G.edge_array):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 5
    with pytest.raises(ValidationError):
        DecomposedGraph(level=0, nodes=nodes, edge_array=arr)
    with pytest.raises(ValidationError):
        DecomposedGraph(level=1, nodes=nodes, edge_array=np.zeros((2, 3), dtype=np.int64))
    # Nodes must be one int64 row per subset, as wide as the level.
    wrong = [nodes.ravel(), nodes.astype(np.int32), ((0,), (1,), (2,)), nodes[:, None]]
    for bad in wrong:
        with pytest.raises(ValidationError):
            DecomposedGraph(level=1, nodes=bad, edge_array=arr)
    with pytest.raises(ValidationError):
        DecomposedGraph(level=2, nodes=nodes, edge_array=arr)


def test_weighted_graph_validation():
    nodes = np.array([[0], [1]], dtype=np.int64)
    arr = np.array([[0, 1]], dtype=np.int64)
    base = DecomposedGraph(level=1, nodes=nodes, edge_array=arr)
    G = WeightedDecomposedGraph(base=base, weights=np.array([2], dtype=np.int64))
    assert G.level == 1
    with pytest.raises(ValidationError):
        WeightedDecomposedGraph(base=base, weights=np.array([0], dtype=np.int64))
    with pytest.raises(ValidationError):
        WeightedDecomposedGraph(base=base, weights=np.array([1, 1], dtype=np.int64))
    base2 = DecomposedGraph(
        level=2,
        nodes=np.array([[0, 1], [1, 2]], dtype=np.int64),
        edge_array=np.array([[0, 1]], dtype=np.int64),
    )
    with pytest.raises(ValidationError):
        WeightedDecomposedGraph(
            base=base2, weights=np.array([1], dtype=np.int64), self_loops={0: 1}
        )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=5),
        min_size=1,
        max_size=12,
    )
)
def test_canonicalize_idempotent_and_size_preserving(raw):
    H = canonicalize(raw)
    again = canonicalize(H.member_tuples())
    assert again.member_tuples() == H.member_tuples()
    assert H.num_edges == len(raw)
    for e, r in zip(H.edges, raw):
        assert set(e.members) == set(r)


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    pairs = (
        draw(
            st.sets(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ).filter(lambda p: p[0] < p[1]),
                max_size=60,
            )
        )
        if n >= 2
        else set()
    )
    arr = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    nodes = np.arange(n, dtype=np.int64).reshape(-1, 1)
    return DecomposedGraph(level=1, nodes=nodes, edge_array=arr)


@settings(max_examples=60, deadline=None)
@given(simple_graphs())
def test_degrees_equal_adjacency_row_sums(G):
    deg = G.degrees()
    assert deg.dtype == np.int64
    assert deg.shape == (G.num_nodes,)
    row_sums = np.asarray(G.adjacency_csr().sum(axis=1)).ravel()
    assert deg.tolist() == row_sums.tolist()
