"""Domain types shared by every other module.

All types are immutable after construction and safe for concurrent reads.
Hyperedges are kept in canonical form: members strictly increasing, no
duplicates. Hypergraph edges have multiset semantics unless `deduplicated`
is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

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


@dataclass(frozen=True, eq=False)
class DecomposedGraph:
    """Simple undirected graph over k-subsets (level-k decomposition).

    Row i of the read-only `nodes` is the k-subset with dense index i;
    rows follow lexicographic subset order. `edge_array` holds one row
    (u, v) per edge with u < v, rows sorted lexicographically.
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
        if self.edge_array.ndim != 2 or self.edge_array.shape[1] != 2:
            raise ValidationError("edge_array must have shape (E, 2)")
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
        from scipy.sparse import coo_matrix

        n = self.num_nodes
        if self.num_edges == 0:
            return coo_matrix((n, n), dtype=np.int8).tocsr()
        u = self.edge_array[:, 0]
        v = self.edge_array[:, 1]
        row = np.concatenate([u, v])
        col = np.concatenate([v, u])
        data = np.ones(row.shape[0], dtype=np.int8)
        return coo_matrix((data, (row, col)), shape=(n, n)).tocsr()

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
