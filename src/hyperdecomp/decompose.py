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
from typing import Iterable

import numpy as np

from .core import (
    DecomposedGraph,
    Hypergraph,
    KSubset,
    ValidationError,
    WeightedDecomposedGraph,
)

__all__ = ["DecomposeConfig", "decompose", "decompose_weighted"]

NODE_LEVEL_CAP = 25
HIGHER_LEVEL_CAP = 7

# Pair keys pack two subset indices as (lo << 32) | hi in an int64, so the
# subset index must stay below 2**31 for lo to keep clear of the sign bit.
MAX_PACKED_SUBSETS = 2**31


def default_max_edge_size(level: int) -> int:
    return NODE_LEVEL_CAP if level == 1 else HIGHER_LEVEL_CAP


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
            max_edge_size = default_max_edge_size(level)
        return cls(level=level, max_edge_size=max_edge_size)


def _collect(
    member_lists: Iterable[KSubset],
    k: int,
    cap: int | None,
    with_counts: bool,
) -> tuple[DecomposedGraph, np.ndarray | None]:
    """Shared enumeration core: the graph and its containment counts.

    Hyperedges are grouped by size s; each group becomes an (m_s, s) block
    whose k-subsets are taken with one index pattern. Subsets and pair keys
    are then deduplicated by sorting, so rows come out lexicographic.
    """
    groups: dict[int, list[KSubset]] = {}
    for members in member_lists:
        s = len(members)
        if s >= k and (cap is None or s <= cap):
            groups.setdefault(s, []).append(members)
    try:
        blocks = [
            np.array(group, dtype=np.int64)[:, list(combinations(range(s), k))]
            for s, group in sorted(groups.items())
        ]
    except OverflowError:
        raise ValidationError(f"level {k}: a node id exceeds 2**63 - 1") from None
    shapes = [block.shape[:2] for block in blocks]
    flat = np.concatenate([b.reshape(-1, k) for b in blocks] or [np.empty((0, k), np.int64)])
    del blocks

    # Rank every subset in lexicographic order; equal subsets share a rank.
    order = np.lexsort(flat.T[::-1])
    ranked = flat[order]
    fresh = np.ones(len(ranked), dtype=bool)
    fresh[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    nodes = ranked[fresh]
    if len(nodes) >= MAX_PACKED_SUBSETS:
        raise ValidationError(
            f"level {k}: {len(nodes)} distinct subsets reach the pair-key "
            f"packing limit of {MAX_PACKED_SUBSETS}"
        )
    ids = np.empty(len(flat), dtype=np.int64)
    ids[order] = np.cumsum(fresh) - 1
    del flat, ranked, order, fresh

    # A hyperedge's subsets are in lexicographic order, so ids increase
    # along a row and subset u is the lo end of its pairs with later columns.
    keys = np.empty(sum(m * c * (c - 1) // 2 for m, c in shapes), dtype=np.int64)
    start = pos = 0
    for m, c in shapes:
        row_ids = ids[start : start + m * c].reshape(m, c)
        out = keys[pos : pos + m * c * (c - 1) // 2].reshape(m, -1)
        col = 0
        for u in range(c - 1):
            width = c - 1 - u
            lo = row_ids[:, u, None] << 32
            np.bitwise_or(lo, row_ids[:, u + 1 :], out=out[:, col : col + width])
            col += width
        start, pos = start + m * c, pos + out.size

    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    counts = np.diff(np.flatnonzero(first), append=len(keys)) if with_counts else None
    keys = keys[first]
    edge_array = np.empty((len(keys), 2), dtype=np.int64)
    np.right_shift(keys, 32, out=edge_array[:, 0])
    np.bitwise_and(keys, 0xFFFFFFFF, out=edge_array[:, 1])
    return DecomposedGraph(level=k, nodes=nodes, edge_array=edge_array), counts


def decompose(H: Hypergraph, cfg: DecomposeConfig) -> DecomposedGraph:
    """Build the level-k decomposed graph under the configured size cap."""
    return _collect(H.member_tuples(), cfg.level, cfg.max_edge_size, with_counts=False)[0]


def decompose_weighted(H: Hypergraph, k: int) -> WeightedDecomposedGraph:
    """Uncapped decomposition with hyperedge-containment weights.

    The weight of an edge is the number of hyperedges, counted with
    multiplicity, containing the union of its endpoints. At level 1 every
    size-1 hyperedge adds a self-loop on its node.
    """
    if k < 1:
        raise ValidationError("level must be >= 1")
    members = H.member_tuples()
    base, counts = _collect(members, k, cap=None, with_counts=True)
    self_loops: dict[int, int] = {}
    if k == 1:
        singles = np.array([m[0] for m in members if len(m) == 1], dtype=np.int64)
        hits = np.bincount(np.searchsorted(base.nodes[:, 0], singles), minlength=base.num_nodes)
        self_loops = {int(i): int(hits[i]) for i in np.flatnonzero(hits)}
    assert counts is not None
    return WeightedDecomposedGraph(base=base, weights=counts, self_loops=self_loops)
