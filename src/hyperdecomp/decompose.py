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

__all__ = [
    "DecomposeConfig",
    "default_max_edge_size",
    "decompose",
    "decompose_weighted",
    "decompose_all",
    "NODE_LEVEL_CAP",
    "HIGHER_LEVEL_CAP",
    "MAX_PACKED_SUBSETS",
]

NODE_LEVEL_CAP = 25
HIGHER_LEVEL_CAP = 7

# Pair keys pack two subset indices as (lo << 32) | hi in an int64, so the
# subset index must stay below 2**31 for lo to keep clear of the sign bit.
MAX_PACKED_SUBSETS = 2**31

# Cache of upper-triangle index pairs, keyed by clique size.
_TRIU_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


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


def _pair_indices(t: int) -> tuple[np.ndarray, np.ndarray]:
    pair = _TRIU_CACHE.get(t)
    if pair is None:
        pair = np.triu_indices(t, 1)
        _TRIU_CACHE[t] = pair
    return pair


def _collect(
    member_lists: Iterable[KSubset],
    k: int,
    cap: int | None,
    with_counts: bool,
):
    """Shared enumeration core: subset index plus encoded pair stream."""
    index: dict[KSubset, int] = {}
    chunks: list[np.ndarray] = []
    for members in member_lists:
        s = len(members)
        if s < k or (cap is not None and s > cap):
            continue
        idxs = np.fromiter(
            (index.setdefault(c, len(index)) for c in combinations(members, k)),
            dtype=np.int64,
        )
        t = idxs.shape[0]
        if t >= 2:
            iu, iv = _pair_indices(t)
            a = idxs[iu]
            b = idxs[iv]
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            chunks.append((lo << 32) | hi)

    if len(index) >= MAX_PACKED_SUBSETS:
        raise ValidationError(
            f"level {k}: {len(index)} distinct subsets reach the pair-key "
            f"packing limit of {MAX_PACKED_SUBSETS}"
        )
    if chunks:
        enc = np.concatenate(chunks)
        if with_counts:
            enc, counts = np.unique(enc, return_counts=True)
        else:
            enc = np.unique(enc)
            counts = None
    else:
        enc = np.empty(0, dtype=np.int64)
        counts = np.empty(0, dtype=np.int64) if with_counts else None

    # Re-index subsets lexicographically for reproducible output.
    subsets = sorted(index)
    perm = np.empty(len(index), dtype=np.int64)
    for new_i, subset in enumerate(subsets):
        perm[index[subset]] = new_i

    if enc.shape[0]:
        u = perm[enc >> 32]
        v = perm[enc & 0xFFFFFFFF]
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        order = np.lexsort((hi, lo))
        edge_array = np.stack([lo[order], hi[order]], axis=1)
        if counts is not None:
            counts = counts[order]
    else:
        edge_array = np.empty((0, 2), dtype=np.int64)

    return tuple(subsets), edge_array, counts


def decompose(H: Hypergraph, cfg: DecomposeConfig) -> DecomposedGraph:
    """Build the level-k decomposed graph under the configured size cap."""
    nodes, edge_array, _ = _collect(
        H.member_tuples(), cfg.level, cfg.max_edge_size, with_counts=False
    )
    return DecomposedGraph(level=cfg.level, nodes=nodes, edge_array=edge_array)


def decompose_weighted(H: Hypergraph, k: int) -> WeightedDecomposedGraph:
    """Uncapped decomposition with hyperedge-containment weights.

    The weight of an edge is the number of hyperedges, counted with
    multiplicity, containing the union of its endpoints. At level 1 every
    size-1 hyperedge adds a self-loop on its node.
    """
    if k < 1:
        raise ValidationError("level must be >= 1")
    members = H.member_tuples()
    nodes, edge_array, counts = _collect(members, k, cap=None, with_counts=True)
    base = DecomposedGraph(level=k, nodes=nodes, edge_array=edge_array)
    self_loops: dict[int, int] = {}
    if k == 1:
        node_index = {subset: i for i, subset in enumerate(nodes)}
        for m in members:
            if len(m) == 1:
                idx = node_index[m]
                self_loops[idx] = self_loops.get(idx, 0) + 1
    assert counts is not None
    return WeightedDecomposedGraph(base=base, weights=counts, self_loops=self_loops)


def decompose_all(H: Hypergraph, levels: Iterable[int]) -> dict[int, DecomposedGraph]:
    """Decompose at each requested level with the default per-level caps."""
    return {lv: decompose(H, DecomposeConfig.for_level(lv)) for lv in sorted(set(levels))}
