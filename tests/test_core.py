"""Canonical forms, validation, and the base graph containers."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hyperdecomp import (
    DecomposedGraph,
    Hyperedge,
    Hypergraph,
    ValidationError,
    WeightedDecomposedGraph,
    canonicalize,
    decompose_weighted,
    dedup,
)
from hyperdecomp.core import rank_rows

from conftest import adjacency_csr


def hypergraph(rows, n, timestamps=None):
    """A Hypergraph built from rows as given, with no canonicalizing."""
    offsets = np.cumsum([0, *map(len, rows)], dtype=np.int64)
    members = np.array([v for row in rows for v in row], dtype=np.int64)
    stamps = None if timestamps is None else np.array(timestamps, dtype=np.int64)
    return Hypergraph(n, offsets, members, stamps)


def test_canonicalize_sorts_and_dedups_members():
    H = canonicalize([[3, 1, 2, 1]])
    assert H.edges[0].members == (1, 2, 3)
    assert H.n == 4


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


@pytest.mark.parametrize(
    "rows, timestamps",
    [
        ([[0.9, 2.5]], [1.5]),  # was the hyperedge (0, 2) at time 1
        ([[0, 2]], [1.5]),
        ([["3", True]], None),  # was (1, 3)
        ([[np.float64(1.0), 2]], None),
        ([[0, 2]], np.array([1.0])),
        ([[0, 2]], ["1"]),
    ],
)
def test_canonicalize_refuses_non_integer_ids_and_timestamps(rows, timestamps):
    with pytest.raises(ValidationError, match="integers"):
        canonicalize(rows, timestamps=timestamps)


def test_canonicalize_takes_any_integer_type():
    H = canonicalize([[3, True], [np.int32(5), np.uint8(2)]], timestamps=[np.int64(4), 5])
    assert H.member_tuples() == [(1, 3), (2, 5)]
    assert H.timestamps.tolist() == [4, 5]
    stamps = np.array([7, 8])
    assert canonicalize([[0], [1]], timestamps=stamps).timestamps.tolist() == [7, 8]
    assert stamps.flags.writeable  # the caller's array is copied, not frozen


def test_canonicalize_keeps_multiset_and_order():
    H = canonicalize([[1, 0], [0, 1], [2]])
    assert H.member_tuples() == [(0, 1), (0, 1), (2,)]


def test_dedup_drops_repeats_and_is_idempotent():
    H = canonicalize([[1, 0], [0, 1], [2]])
    D = dedup(H)
    assert D.member_tuples() == [(0, 1), (2,)]
    assert dedup(D) == D
    # A repeat-free hypergraph is one that dedup leaves as it is.
    assert dedup(canonicalize([[1, 0], [2]])) == canonicalize([[1, 0], [2]])


def test_hyperedge_validation():
    # Hyperedge is a value read out of a Hypergraph, whose arrays refuse
    # the member lists that Hyperedge itself once refused.
    for members in [(), (2, 1), (1, 1), (-1,)]:
        with pytest.raises(ValidationError):
            hypergraph([members], n=3)
    e = Hyperedge(members=(1, 4), timestamp=7)
    assert len(e) == 2 and list(e) == [1, 4]
    assert hypergraph([(1, 4)], n=5, timestamps=[7]).edges == (e,)


def test_hypergraph_validation():
    with pytest.raises(ValidationError):
        hypergraph([(0, 2)], n=2)


def _arrays(offsets, members, timestamps=None):
    """Constructor arguments holding the given values as int64 arrays."""
    stamps = None if timestamps is None else np.array(timestamps, dtype=np.int64)
    offsets, members = np.array(offsets, dtype=np.int64), np.array(members, dtype=np.int64)
    return dict(offsets=offsets, members=members, timestamps=stamps)


# One case per refusal of the constructor: (arrays, n, message).
_REFUSALS = {
    "offsets-past-members": (_arrays([0, 3], [0, 1]), 2, "offsets must rise"),
    "offsets-not-from-zero": (_arrays([1, 2], [0, 1]), 2, "offsets must rise"),
    "offsets-falling": (_arrays([0, 2, 1, 2], [0, 1]), 2, "offsets must rise"),
    "no-offsets": (_arrays([], []), 2, "offsets must rise"),
    "empty-hyperedge": (_arrays([0, 0, 2], [0, 1]), 2, "hyperedge 0 is empty"),
    "unsorted-members": (_arrays([0, 1, 3], [0, 2, 1]), 3, "hyperedge 1 must be strictly"),
    "repeated-members": (_arrays([0, 2], [1, 1]), 2, "hyperedge 0 must be strictly"),
    "negative-member": (_arrays([0, 2], [-1, 0]), 2, "negative node id -1"),
    "member-at-n": (_arrays([0, 2], [0, 2]), 2, "member 2 out of range for n=2"),
    "misaligned-timestamps": (_arrays([0, 1], [0], [1, 2]), 1, "timestamps must align"),
    "members-not-int64": (
        dict(_arrays([0, 1], []), members=np.array([0], dtype=np.int32)), 1, "1-D int64"
    ),
    "offsets-two-dimensional": (_arrays([[0, 1]], [0]), 1, "1-D int64"),
    "negative-n": (_arrays([0], []), -1, "node count"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_hypergraph_constructor_refuses(case):
    arrays, n, message = _REFUSALS[case]
    with pytest.raises(ValidationError, match=re.escape(message)):
        Hypergraph(n=n, **arrays)


def test_hypergraph_arrays_are_read_only_and_views_follow_them():
    H = hypergraph([(2, 3), (0, 1, 4), (1,)], n=5, timestamps=[7, 5, 6])
    for array in (H.offsets, H.members, H.timestamps):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert H.num_edges == 3 and H.max_edge_size() == 3
    assert H.member_tuples() == [(2, 3), (0, 1, 4), (1,)]
    assert [(e.members, e.timestamp) for e in H.edges] == [((2, 3), 7), ((0, 1, 4), 5), ((1,), 6)]
    assert [idx.tolist() for idx, _ in H.size_blocks()] == [[2], [0], [1]]
    assert [rows.tolist() for _, rows in H.size_blocks(2, 2)] == [[[2, 3]]]
    empty = hypergraph([], n=0)
    assert empty.num_edges == 0 and empty.edges == () and empty.max_edge_size() == 0


def test_hypergraph_is_hashable():
    H1 = canonicalize([[0, 1], [1, 2]])
    H2 = canonicalize([[1, 0], [2, 1]])
    assert H1 == H2 and hash(H1) == hash(H2)


def test_dedup_keeps_earliest_timestamp_and_first_seen_order():
    H = canonicalize([[0, 1], [2], [1, 0], [2]], timestamps=[5, 1, 3, 0])
    D = dedup(H)
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
    adj = adjacency_csr(G)
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


def test_decomposed_graph_rejects_rows_out_of_order_or_range():
    nodes = np.array([[0], [1], [2]], dtype=np.int64)

    def graph(nodes, edges, dtype=np.int64):
        return DecomposedGraph(level=1, nodes=nodes, edge_array=np.array(edges, dtype=dtype))

    bad = [
        (nodes, [[0, 1], [0, 1], [1, 2]]),  # a repeated edge counted twice in degrees()
        (nodes[:2], [[0, 5]]),  # an endpoint past the last node
        (nodes, [[-1, 1]]),
        (nodes, [[1, 1]]),
        (nodes, [[1, 0]]),
        (nodes, [[1, 2], [0, 1]]),
        (nodes[::-1], [[0, 1]]),
        (nodes[[0, 0, 1]], [[0, 2]]),
        (-nodes[::-1], []),
    ]
    for node_rows, edges in bad:
        with pytest.raises(ValidationError):
            graph(node_rows, edges)
    with pytest.raises(ValidationError):
        graph(nodes, [[0, 1]], dtype=np.int32)
    no_edges = np.empty((0, 2), dtype=np.int64)
    for rows in ([[0, 1], [1, 1]], [[1, 2], [0, 3]], [[0, 2], [0, 1]], [[0, 1], [0, 1]]):
        with pytest.raises(ValidationError):
            DecomposedGraph(level=2, nodes=np.array(rows, dtype=np.int64), edge_array=no_edges)
    assert graph(nodes, [[0, 1], [0, 2], [1, 2]]).degrees().tolist() == [2, 2, 2]


def test_self_loops_must_name_nodes_with_positive_counts():
    G = decompose_weighted(canonicalize([[0, 1]]), 1)
    for loops in ({-1: 2}, {5: 2}, {2: 1}, {0: 0}, {1: -3}):
        with pytest.raises(ValidationError):
            WeightedDecomposedGraph(base=G.base, weights=G.weights, self_loops=loops)
    assert WeightedDecomposedGraph(base=G.base, weights=G.weights, self_loops={1: 2}).self_loops


int64_tables = arrays(
    np.int64,
    st.tuples(st.integers(0, 40), st.integers(1, 4)),
    elements=st.integers(0, 2) | st.integers(-(2**63), 2**63 - 1),
)


@settings(max_examples=200, deadline=None)
@given(int64_tables)
@example(np.empty((0, 3), dtype=np.int64))
@example(np.array([[7]], dtype=np.int64))
@example(np.array([[3], [1], [3], [1], [3]], dtype=np.int64))
@example(np.zeros((30, 2), dtype=np.int64))
def test_rank_rows_matches_numpy_unique(table):
    unique, index, inverse = np.unique(table, axis=0, return_index=True, return_inverse=True)
    got_unique, got_inverse, got_index = rank_rows(table)
    assert got_unique.shape == unique.shape and np.array_equal(got_unique, unique)
    assert np.array_equal(got_inverse, inverse.ravel())
    assert np.array_equal(got_index, index)
    assert got_unique.dtype == got_inverse.dtype == got_index.dtype == np.int64


@st.composite
def subset_rows(draw):
    k = draw(st.integers(1, 3))
    subset = st.sets(st.integers(0, 4), min_size=k, max_size=k).map(lambda s: tuple(sorted(s)))
    return k, draw(st.lists(subset, max_size=8))


@settings(max_examples=200, deadline=None)
@given(subset_rows())
def test_node_rows_are_accepted_exactly_when_sorted_and_distinct(drawn):
    k, rows = drawn
    nodes = np.array(rows, dtype=np.int64).reshape(-1, k)
    no_edges = np.empty((0, 2), dtype=np.int64)
    if rows == sorted(set(rows)):
        assert DecomposedGraph(level=k, nodes=nodes, edge_array=no_edges).nodes.tolist() == [
            list(r) for r in rows
        ]
    else:
        with pytest.raises(ValidationError):
            DecomposedGraph(level=k, nodes=nodes, edge_array=no_edges)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(0, 4), min_size=2, max_size=2).map(sorted), max_size=8))
def test_edge_rows_are_accepted_exactly_when_sorted_and_distinct(pairs):
    rows = [tuple(p) for p in pairs]
    nodes = np.arange(5, dtype=np.int64).reshape(-1, 1)
    edges = np.array(rows, dtype=np.int64).reshape(-1, 2)
    if rows == sorted(set(rows)):
        assert DecomposedGraph(level=1, nodes=nodes, edge_array=edges).num_edges == len(rows)
    else:
        with pytest.raises(ValidationError):
            DecomposedGraph(level=1, nodes=nodes, edge_array=edges)


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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_canonicalize_and_dedup_match_python_oracle(data):
    ids = st.integers(0, 9) | st.sampled_from([2**40, 2**63 - 1])
    raw = data.draw(st.lists(st.lists(ids, min_size=1, max_size=6), max_size=12))
    if raw:  # repeats, listed in another order
        again = data.draw(st.lists(st.sampled_from(raw), max_size=6))
        raw += [list(reversed(r)) for r in again]
    stamp = st.integers(-3, 3) | st.sampled_from([-(2**63), 2**63 - 1])
    timestamps = data.draw(st.none() | st.lists(stamp, min_size=len(raw), max_size=len(raw)))

    rows = [tuple(sorted(set(r))) for r in raw]
    stamps = timestamps if timestamps is not None else [None] * len(rows)
    earliest: dict = {}  # first-seen order, earliest timestamp
    for r, t in zip(rows, stamps):
        earliest[r] = t if r not in earliest or t is None else min(earliest[r], t)

    H = canonicalize(raw, timestamps=timestamps)
    assert H.n == 1 + max((v for r in rows for v in r), default=-1)
    assert [(e.members, e.timestamp) for e in H.edges] == list(zip(rows, stamps))
    D = dedup(H)
    assert D.n == H.n
    assert [(e.members, e.timestamp) for e in D.edges] == list(earliest.items())
    assert dedup(D) == D


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
    row_sums = np.asarray(adjacency_csr(G).sum(axis=1)).ravel()
    assert deg.tolist() == row_sums.tolist()
