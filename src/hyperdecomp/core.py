"""Domain types shared by every other module.

All types are immutable after construction and safe for concurrent reads.
Hyperedges are kept in canonical form: members strictly increasing, no
duplicates. Hypergraph edges have multiset semantics unless `deduplicated`
is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, NamedTuple, Sequence

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


def _check_members(members: Sequence[int]) -> None:
    if len(members) == 0:
        raise ValidationError("hyperedge must contain at least one node")
    prev = -1
    for m in members:
        if m < 0:
            raise ValidationError(f"negative node id {m}")
        if m <= prev:
            raise ValidationError(
                f"members must be strictly increasing, got {tuple(members)}"
            )
        prev = m


@dataclass(frozen=True)
class Hyperedge:
    """A set of nodes that appeared together, with an optional timestamp."""

    members: KSubset
    timestamp: int | None = None

    def __post_init__(self) -> None:
        _check_members(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


@dataclass(frozen=True)
class Hypergraph:
    """Node universe 0..n-1 plus a multiset of hyperedges."""

    n: int
    edges: tuple[Hyperedge, ...]
    deduplicated: bool = False

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValidationError("node count must be non-negative")
        for e in self.edges:
            if e.members[-1] >= self.n:
                raise ValidationError(
                    f"member {e.members[-1]} out of range for n={self.n}"
                )
        if self.deduplicated:
            seen = set()
            for e in self.edges:
                if e.members in seen:
                    raise ValidationError(
                        f"duplicate hyperedge {e.members} in deduplicated hypergraph"
                    )
                seen.add(e.members)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def member_tuples(self) -> list[KSubset]:
        return [e.members for e in self.edges]

    def max_edge_size(self) -> int:
        return max((len(e) for e in self.edges), default=0)


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


def _adjacency(n: int, u: np.ndarray, v: np.ndarray):
    """Symmetric n x n int8 CSR matrix with ones at (u, v) and (v, u)."""
    from scipy.sparse import coo_matrix

    data = np.ones(2 * len(u), dtype=np.int8)
    return coo_matrix((data, (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(n, n)).tocsr()


class _Components(NamedTuple):
    """A graph's connected components as diagonal blocks of a permuted adjacency.

    Component c (numbered as scipy's `connected_components` labels them)
    holds positions bounds[c]:bounds[c + 1]; node i sits at position[i], in
    node order within its component; `csr` is the adjacency with rows and
    columns in position order, so it is block-diagonal.
    """

    labels: np.ndarray
    position: np.ndarray
    bounds: np.ndarray
    csr: Any


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
    def _csr(self):
        """Symmetric 0/1 adjacency in CSR form (scipy)."""
        u, v = self.edge_array.T
        return _adjacency(self.num_nodes, u, v)

    @cached_property
    def _components(self) -> _Components:
        """Connected components laid out as contiguous diagonal blocks."""
        from scipy.sparse import csgraph

        n = self.num_nodes
        count, labels = csgraph.connected_components(self._csr, directed=False)
        bounds = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.bincount(labels, minlength=count), out=bounds[1:])
        if np.all(labels[1:] >= labels[:-1]):  # already in component order
            return _Components(labels, np.arange(n, dtype=np.int64), bounds, self._csr)
        position = np.empty(n, dtype=np.int64)
        position[np.argsort(labels, kind="stable")] = np.arange(n, dtype=np.int64)
        u, v = self.edge_array.T
        return _Components(labels, position, bounds, _adjacency(n, position[u], position[v]))

    def adjacency_csr(self):
        return self._csr

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
            if count < 1:
                raise ValidationError(f"self-loop count {count} on node index {node} is not >= 1")
        self.weights.setflags(write=False)

    @property
    def level(self) -> int:
        return self.base.level


def canonicalize(
    raw_edges: Iterable[Sequence[int]],
    n: int | None = None,
    timestamps: Sequence[int] | None = None,
) -> Hypergraph:
    """Normalize raw integer sequences into a canonical Hypergraph.

    Members are sorted and deduplicated within each hyperedge. `n` defaults
    to 1 + the largest id seen. Empty hyperedges and negative ids are
    rejected. Repeated hyperedges are kept; `dedup` drops them.
    """
    raw_list = list(raw_edges)
    if timestamps is not None and len(timestamps) != len(raw_list):
        raise ValidationError("timestamps must align with raw_edges")
    edges = []
    max_id = -1
    for i, raw in enumerate(raw_list):
        members = tuple(sorted(set(raw)))
        if not members:
            raise ValidationError(f"hyperedge {i} is empty")
        if members[0] < 0:
            raise ValidationError(f"hyperedge {i} has negative id {members[0]}")
        max_id = max(max_id, members[-1])
        ts = timestamps[i] if timestamps is not None else None
        edges.append(Hyperedge(members, ts))
    if n is None:
        n = max_id + 1
    elif n <= max_id:
        raise ValidationError(f"n={n} too small for max id {max_id}")
    return Hypergraph(n=n, edges=tuple(edges))


def dedup(H: Hypergraph) -> Hypergraph:
    """Keep one hyperedge per member set: earliest timestamp, first-seen order."""
    best: dict[KSubset, tuple[int, int | None]] = {}
    order: list[KSubset] = []
    for e in H.edges:
        if e.members not in best:
            best[e.members] = (len(order), e.timestamp)
            order.append(e.members)
        else:
            pos, ts = best[e.members]
            if e.timestamp is not None and (ts is None or e.timestamp < ts):
                best[e.members] = (pos, e.timestamp)
    edges = tuple(Hyperedge(m, best[m][1]) for m in order)
    return Hypergraph(n=H.n, edges=edges, deduplicated=True)
