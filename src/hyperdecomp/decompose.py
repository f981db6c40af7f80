"""Multi-level decomposition of hypergraphs into pairwise graphs.

Level k turns every k-subset occurring inside an admissible hyperedge into
a graph node; two subsets are adjacent iff one hyperedge contains their
union. Per-level hyperedge-size caps (25 at the node level, 7 above) keep
large hyperedges from dominating; the weighted variant used for recovery
applies no cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (
    MAX_NODES,
    DecomposedGraph,
    Hypergraph,
    ValidationError,
    WeightedDecomposedGraph,
    rank_rows,
)

__all__ = ["DecomposeConfig", "decompose", "decompose_weighted"]

NODE_LEVEL_CAP = 25
HIGHER_LEVEL_CAP = 7


@dataclass(frozen=True)
class DecomposeConfig:
    """Level plus the hyperedge-size cap applied while decomposing."""

    level: int
    max_edge_size: int

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValidationError("level must be >= 1")
        if self.max_edge_size < self.level:
            raise ValidationError(
                f"max_edge_size {self.max_edge_size} < level {self.level}: "
                "no hyperedge could contribute nodes"
            )

    @classmethod
    def for_level(cls, level: int, max_edge_size: int | None = None) -> "DecomposeConfig":
        if max_edge_size is None:
            max_edge_size = NODE_LEVEL_CAP if level == 1 else HIGHER_LEVEL_CAP
        return cls(level=level, max_edge_size=max_edge_size)


def _pair_keys(ids: np.ndarray, shapes: list[tuple[int, int]], n: int) -> np.ndarray:
    """Unsorted lo * n + hi keys of every subset pair within a hyperedge.

    `ids` holds each size block's (m, c) subset ids row by row. A
    hyperedge's subsets are in lexicographic order, so ids increase along a
    row and subset u is the lo end of its pairs with later columns.
    """
    keys = np.empty(sum(m * c * (c - 1) // 2 for m, c in shapes), dtype=np.int64)
    start = pos = 0
    for m, c in shapes:
        row_ids = ids[start : start + m * c].reshape(m, c)
        out = keys[pos : pos + m * c * (c - 1) // 2].reshape(m, -1)
        col = 0
        for u in range(c - 1):
            width = c - 1 - u
            lo = row_ids[:, u, None] * n
            np.add(lo, row_ids[:, u + 1 :], out=out[:, col : col + width])
            col += width
        start, pos = start + m * c, pos + out.size
    return keys


def _subsets(tables: list[np.ndarray], k: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The k-subsets of every row of each (m, c) table, c >= k, stacked in
    row order into one (rows, k) table, and each table's (m, C(c, k))."""
    blocks = [rows[:, list(combinations(range(rows.shape[1]), k))] for rows in tables]
    shapes = [block.shape[:2] for block in blocks]
    flat = [b.reshape(-1, k) for b in blocks] or [np.empty((0, k), np.int64)]
    return np.concatenate(flat), shapes


def _collect(
    H: Hypergraph, k: int, cap: int | None, with_counts: bool
) -> tuple[DecomposedGraph, np.ndarray | None]:
    """Shared enumeration core: the graph and its containment counts.

    Each size block of hyperedges of size s in k..cap, an (m_s, s) table,
    gives its k-subsets through one index pattern. Subsets and pair keys
    are then deduplicated by sorting, so rows come out lexicographic.
    """
    flat, shapes = _subsets([rows for _, rows in H.size_blocks(k, cap)], k)
    nodes, ids = rank_rows(flat)[:2]  # an id is the subset's lexicographic rank
    del flat
    n = len(nodes)
    if n > MAX_NODES:
        raise ValidationError(
            f"level {k}: {n} distinct subsets exceed the pair-key packing limit of {MAX_NODES}"
        )

    keys = _pair_keys(ids, shapes, n)
    del ids
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    counts = np.diff(np.flatnonzero(first), append=len(keys)) if with_counts else None
    keys = keys[first]
    edge_array = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, n, out=(edge_array[:, 0], edge_array[:, 1]))
    return DecomposedGraph(level=k, nodes=nodes, edge_array=edge_array), counts


def decompose(H: Hypergraph, cfg: DecomposeConfig) -> DecomposedGraph:
    """Build the level-k decomposed graph under the configured size cap."""
    return _collect(H, cfg.level, cfg.max_edge_size, with_counts=False)[0]


def decompose_weighted(H: Hypergraph, k: int) -> WeightedDecomposedGraph:
    """Uncapped decomposition with hyperedge-containment weights.

    The weight of an edge is the number of hyperedges, counted with
    multiplicity, containing the union of its endpoints. At level 1 every
    size-1 hyperedge adds a self-loop on its node.
    """
    if k < 1:
        raise ValidationError("level must be >= 1")
    base, counts = _collect(H, k, cap=None, with_counts=True)
    self_loops: dict[int, int] = {}
    if k == 1:
        singles = H.members[H.offsets[:-1][np.diff(H.offsets) == 1]]
        hits = np.bincount(np.searchsorted(base.nodes[:, 0], singles), minlength=base.num_nodes)
        self_loops = {int(i): int(hits[i]) for i in np.flatnonzero(hits)}
    assert counts is not None
    return WeightedDecomposedGraph(base=base, weights=counts, self_loops=self_loops)
