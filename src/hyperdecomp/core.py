"""Domain types shared by every other module.

All types are immutable after construction and safe for concurrent reads.
Hyperedges are kept in canonical form: members strictly increasing, no
duplicates. Hypergraph edges have multiset semantics unless `deduplicated`
is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "KSubset",
    "Hyperedge",
    "Hypergraph",
    "DecomposedGraph",
    "WeightedDecomposedGraph",
    "canonicalize",
    "dedup",
]


class ValidationError(ValueError):
    """Raised when an input violates a structural invariant."""


# A k-subset in canonical form: strictly increasing node ids.
KSubset = tuple[int, ...]


@dataclass(frozen=True)
class Hyperedge:
    """A set of nodes that appeared together, with an optional timestamp:
    a value read out of a Hypergraph, which checks the members."""

    members: KSubset
    timestamp: int | None = None

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Node universe 0..n-1 plus a multiset of hyperedges, stored flat.

    Hyperedge i is members[offsets[i]:offsets[i + 1]], strictly increasing
    and non-empty; `timestamps` holds one value per hyperedge, or is None.
    All three are read-only int64 arrays, checked on construction.
    """

    n: int
    offsets: np.ndarray  # shape (E + 1,)
    members: np.ndarray  # shape (offsets[-1],)
    timestamps: np.ndarray | None = None  # shape (E,)
    deduplicated: bool = False

    def __post_init__(self) -> None:
        arrays = [a for a in (self.offsets, self.members, self.timestamps) if a is not None]
        for a in arrays:
            if not isinstance(a, np.ndarray) or a.dtype != np.int64 or a.ndim != 1:
                raise ValidationError("offsets, members and timestamps must be 1-D int64 arrays")
        offsets, members = self.offsets, self.members
        sizes = np.diff(offsets)
        if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != len(members) or np.any(sizes < 0):
            raise ValidationError("offsets must rise from 0 to the number of members")
        if np.any(sizes == 0):
            raise ValidationError(f"hyperedge {np.argmin(sizes)} is empty")
        if members.min(initial=0) < 0:
            raise ValidationError(f"negative node id {members.min()}")
        if self.n < 0:
            raise ValidationError("node count must be non-negative")
        if members.max(initial=-1) >= self.n:
            raise ValidationError(f"member {members.max()} out of range for n={self.n}")
        rises = members[1:] > members[:-1]
        rises[offsets[1:-1] - 1] = True  # a hyperedge may start below the last one's end
        if not rises.all():
            i = np.searchsorted(offsets, np.argmin(rises), side="right") - 1
            raise ValidationError(f"members of hyperedge {i} must be strictly increasing")
        if self.timestamps is not None and len(self.timestamps) != len(sizes):
            raise ValidationError("timestamps must align with the hyperedges")
        if self.deduplicated:
            repeat = np.flatnonzero(_first_copies(self) != np.arange(len(sizes)))
            if repeat.size:
                edge = tuple(members[offsets[repeat[0]] : offsets[repeat[0] + 1]].tolist())
                raise ValidationError(f"duplicate hyperedge {edge} in deduplicated hypergraph")
        for a in arrays:
            a.setflags(write=False)

    def _key(self) -> tuple:
        stamps = None if self.timestamps is None else self.timestamps.tobytes()
        return (self.n, self.deduplicated, self.offsets.tobytes(), self.members.tobytes(), stamps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Hypergraph) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def num_edges(self) -> int:
        return len(self.offsets) - 1

    @property
    def edges(self) -> tuple[Hyperedge, ...]:
        """The hyperedges as values, built on each access."""
        stamps = [None] * self.num_edges if self.timestamps is None else self.timestamps.tolist()
        return tuple(map(Hyperedge, self.member_tuples(), stamps))

    def member_tuples(self) -> list[KSubset]:
        ids, bounds = self.members.tolist(), self.offsets.tolist()
        return [tuple(ids[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]

    def max_edge_size(self) -> int:
        return int(np.diff(self.offsets).max(initial=0))

    def size_blocks(
        self, smallest: int = 1, largest: int | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """For each hyperedge size s in smallest..largest, ascending: the
        indices of the size-s hyperedges, in order, and their (m_s, s) members."""
        sizes = np.diff(self.offsets)
        top = sizes.max(initial=0) if largest is None else largest
        keep = np.flatnonzero((sizes >= smallest) & (sizes <= top))
        for group in key_groups(sizes[keep]):
            idx = keep[group]
            yield idx, self.members[self.offsets[idx, None] + np.arange(sizes[idx[0]])]


def key_groups(keys: np.ndarray) -> list[np.ndarray]:
    """The indices of each distinct value of a 1-D integer array, by ascending
    value, each group in index order."""
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(keys[order])) + 1) if order.size else []


class FlatRows(NamedTuple):
    """Integer rows stored flat, row i being members[offsets[i]:offsets[i + 1]]:
    int64 arrays, which `canonicalize` takes without a pass per row, sorting
    each row of `members` in place."""

    offsets: np.ndarray
    members: np.ndarray


def pack_rows(rows: Sequence[Sequence[int]]) -> FlatRows:
    """A list of integer rows, stored flat."""
    offsets = np.append(0, np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows))))
    try:
        members = np.fromiter(chain.from_iterable(rows), np.int64, int(offsets[-1]))
    except (TypeError, OverflowError):
        raise ValidationError("ids and timestamps must be integers in the int64 range") from None
    return FlatRows(offsets, members)


def first_appearance(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a 1-D array in order of first appearance, and
    the index among them of each value."""
    distinct, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return distinct[order], rank[inverse]


def _first_copies(H: Hypergraph) -> np.ndarray:
    """Index of the first hyperedge with the same members as each hyperedge."""
    first = np.arange(H.num_edges)
    for idx, rows in H.size_blocks():
        _, inverse, head = rank_rows(rows)
        first[idx] = idx[head][inverse]
    return first


def rank_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of an (M, k) table in lexicographic order, the index among them of
    each input row and the first input row of each, as np.unique(axis=0) gives them."""
    if len(rows) < 2:  # lexsort would take one key per column, even with no rows
        return rows.copy(), np.zeros(len(rows), np.int64), np.zeros(len(rows), np.int64)
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    fresh = np.append(True, np.any(ranked[1:] != ranked[:-1], axis=1))
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(fresh) - 1
    return ranked[fresh], inverse, order[fresh]


def _rows_increase(rows: np.ndarray) -> bool:
    """Whether each row is lexicographically above the one before it, checked
    a column at a time so that every temporary is a bool vector."""
    if len(rows) < 2:
        return True
    tied = np.ones(len(rows) - 1, dtype=bool)
    for j in range(rows.shape[1] - 1):
        before, after = rows[:-1, j], rows[1:, j]
        if np.any(tied & (after < before)):
            return False
        tied &= after == before
    return not np.any(tied & (rows[1:, -1] <= rows[:-1, -1]))


class _CSR(NamedTuple):
    """Row i holds columns indices[indptr[i]:indptr[i + 1]], ascending, and
    values data[...] there (None: ones)."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray | None = None


# Pairs of nodes (u, v) of an N-node graph are keyed u * N + v throughout; this
# is the largest N for which every such key, up to N**2 - 1, fits in an int64.
MAX_NODES = 3_037_000_499


def _adjacency(n: int, u: np.ndarray, v: np.ndarray) -> _CSR:
    """Symmetric n x n 0/1 adjacency with ones at distinct (u, v) and (v, u)."""
    keys = np.concatenate([u * n + v, v * n + u])
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    keys %= max(n, 1)
    return _CSR(indptr, keys)


def _component_roots(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The smallest node of each node's component: roots hook onto the
    smallest root across their edges, then pointers jump to the roots
    (Shiloach & Vishkin, J. Algorithms, 1982)."""
    root = np.arange(n)
    while u.size:
        np.minimum.at(root, u, v)
        np.minimum.at(root, v, u)
        while not np.array_equal(up := root[root], root):
            root = up
        u, v = root[u], root[v]
        keep = u != v
        u, v = u[keep], v[keep]
    return root


class _Components(NamedTuple):
    """A graph's connected components as diagonal blocks of a permuted adjacency.

    Component c, numbered by smallest node, holds positions bounds[c]:
    bounds[c + 1]; node i sits at position[i], in node order within its
    component; `csr` is the adjacency in position order, block-diagonal.
    """

    position: np.ndarray
    bounds: np.ndarray
    csr: _CSR


@dataclass(frozen=True, eq=False)
class DecomposedGraph:
    """Simple undirected graph over k-subsets (level-k decomposition).

    Row i of the read-only `nodes` is the k-subset with dense index i;
    rows follow lexicographic subset order. `edge_array` holds one row
    (u, v) per edge with u < v, rows sorted lexicographically. Construction
    checks all of this, so consumers may rely on it.
    """

    level: int
    nodes: np.ndarray  # shape (N, level), int64
    edge_array: np.ndarray  # shape (E, 2), int64

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValidationError("level must be >= 1")
        if not isinstance(self.nodes, np.ndarray) or self.nodes.dtype != np.int64:
            raise ValidationError("nodes must be an int64 array")
        if self.nodes.shape[1:] != (self.level,):
            raise ValidationError("nodes must have shape (N, level)")
        nodes, ends = self.nodes, self.edge_array
        if nodes.min(initial=0) < 0 or not np.all(nodes[:, 1:] > nodes[:, :-1]):
            raise ValidationError("node rows must be non-negative and strictly increasing")
        if not _rows_increase(nodes):
            raise ValidationError("node rows must be distinct and in lexicographic order")
        if not isinstance(ends, np.ndarray) or ends.dtype != np.int64 or ends.shape[1:] != (2,):
            raise ValidationError("edge_array must be an int64 array of shape (E, 2)")
        u, v = ends[:, 0], ends[:, 1]
        if u.min(initial=0) < 0 or v.max(initial=-1) >= len(nodes) or not np.all(u < v):
            raise ValidationError(f"edge rows must satisfy 0 <= u < v < {len(nodes)}")
        if not _rows_increase(ends):
            raise ValidationError("edge rows must be distinct and in lexicographic order")
        self.nodes.setflags(write=False)
        self.edge_array.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return int(self.edge_array.shape[0])

    @cached_property
    def _components(self) -> _Components:
        """Connected components laid out as contiguous diagonal blocks."""
        n, (u, v) = self.num_nodes, self.edge_array.T
        root = _component_roots(n, u, v)
        labels = (np.cumsum(root == np.arange(n)) - 1)[root]
        position = np.empty(n, dtype=np.int64)
        position[np.argsort(labels, kind="stable")] = np.arange(n)
        bounds = np.append(0, np.cumsum(np.bincount(labels)))
        return _Components(position, bounds, _adjacency(n, position[u], position[v]))

    def adjacency_csr(self):
        """The adjacency as a scipy.sparse int8 CSR matrix."""
        from scipy.sparse import csr_matrix

        n, (u, v) = self.num_nodes, self.edge_array.T
        indptr, indices, _ = _adjacency(n, u, v)
        return csr_matrix((np.ones(indices.size, np.int8), indices, indptr), shape=(n, n))

    def degrees(self) -> np.ndarray:
        """Distinct-neighbor count per node."""
        return np.bincount(
            self.edge_array.ravel(), minlength=self.num_nodes
        ).astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class WeightedDecomposedGraph:
    """Decomposed graph with per-edge hyperedge-containment counts.

    `weights[i]` is the number of hyperedges (with multiplicity) containing
    the union of the endpoints of edge i. `self_loops` maps a node index to
    the multiplicity of the size-1 hyperedge equal to that subset; only the
    level-1 graph may have them.
    """

    base: DecomposedGraph
    weights: np.ndarray  # shape (E,), int64
    self_loops: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.weights.shape != (self.base.num_edges,):
            raise ValidationError("weights must align with the edge array")
        if self.base.num_edges and int(self.weights.min()) < 1:
            raise ValidationError("all edge weights must be >= 1")
        if self.self_loops and self.base.level != 1:
            raise ValidationError("self-loops are only defined at level 1")
        n = self.base.num_nodes
        for node, count in self.self_loops.items():
            if not 0 <= node < n:
                raise ValidationError(f"self-loop on node index {node}, not in 0..{n - 1}")
            if not 1 <= count < 2**63:  # counts are multiplicities stored as int64
                raise ValidationError(f"self-loop count {count} on node {node} not in 1..2**63 - 1")
        self.weights.setflags(write=False)

    @property
    def level(self) -> int:
        return self.base.level


def canonicalize(
    raw_edges: Iterable[Sequence[int]] | FlatRows,
    n: int | None = None,
    timestamps: Sequence[int] | None = None,
) -> Hypergraph:
    """Normalize raw integer sequences into a canonical Hypergraph.

    Members are sorted and deduplicated within each hyperedge. `n` defaults
    to 1 + the largest id seen. Empty hyperedges, negative ids and ids or
    timestamps outside int64 are rejected. Repeated hyperedges are kept;
    `dedup` drops them.
    """
    offsets, flat = raw_edges if isinstance(raw_edges, FlatRows) else pack_rows(list(raw_edges))
    sizes = np.diff(offsets)
    # Members are sorted within each hyperedge, a block of equal sizes at a time.
    for idx in key_groups(sizes):
        at = offsets[idx, None] + np.arange(sizes[idx[0]])
        flat[at] = np.sort(flat[at], axis=1)
    keep = np.ones(len(flat), dtype=bool)
    keep[1:] = flat[1:] != flat[:-1]
    keep[offsets[:-1][sizes > 0]] = True  # each hyperedge keeps its first member
    kept = np.append(0, np.cumsum(keep))
    flat = flat[keep]
    n = int(flat.max(initial=-1)) + 1 if n is None else n
    # One row, so that timestamps get the int64 check that ids get.
    stamps = None if timestamps is None else pack_rows([timestamps])[1]
    return Hypergraph(n, kept[offsets], flat, stamps)


def dedup(H: Hypergraph) -> Hypergraph:
    """Keep one hyperedge per member set: earliest timestamp, first-seen order."""
    first = _first_copies(H)
    keep = first == np.arange(H.num_edges)
    stamps = None
    if H.timestamps is not None:
        stamps = H.timestamps.copy()
        np.minimum.at(stamps, first, H.timestamps)
        stamps = stamps[keep]
    sizes = np.diff(H.offsets)
    offsets = np.append(0, np.cumsum(sizes[keep]))
    return Hypergraph(H.n, offsets, H.members[np.repeat(keep, sizes)], stamps, deduplicated=True)
