"""Lossless reconstruction of a hypergraph from its weighted decompositions.

Works top-down over hyperedge sizes. At level k = size - 1 the residual is
the given weights minus `decompose_weighted` of the recovered larger
hyperedges. Each positive-residual edge joins two k-subsets whose union is
a size-(k+1) hyperedge, and the residual is that hyperedge's multiplicity.
Size-1 hyperedges come from the level-1 self-loop counts. Output is by size
descending, lexicographic within a size, then singletons by node.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .core import Hypergraph, KSubset, ValidationError, WeightedDecomposedGraph, rank_rows
from .decompose import decompose_weighted
from .metrics import DENSE_FALLBACK_MAX_BYTES

__all__ = ["RecoveryError", "recover"]


class RecoveryError(ValueError):
    """Input graphs are not the weighted decompositions of any hypergraph."""

    def __init__(self, level: int, message: str):
        super().__init__(f"level {level}: {message}")
        self.level = level


def _edge(G: WeightedDecomposedGraph, row: int) -> tuple[KSubset, KSubset]:
    return tuple(map(tuple, G.base.nodes[G.base.edge_array[row]].tolist()))


def _find_rows(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index in the distinct-row `table` of each of `rows`, or -1 where absent."""
    _, rank, first = rank_rows(np.concatenate([table, rows]))
    # A row of `table` comes before its equal rows of `rows`, so it is met first.
    pos = first[rank[len(table) :]]
    pos[pos >= len(table)] = -1
    return pos


def _subtract(G: WeightedDecomposedGraph, S: WeightedDecomposedGraph) -> np.ndarray:
    """G's weights minus those of S, a decomposition at the same level."""
    N, ends = G.base.num_nodes, G.base.edge_array
    # Rows of both graphs are sorted, so `keys` is and the node map keeps u < v.
    keys = ends[:, 0] * N + ends[:, 1]
    pos = _find_rows(G.base.nodes, S.base.nodes)
    u, v = pos[S.base.edge_array[:, 0]], pos[S.base.edge_array[:, 1]]
    at = np.searchsorted(keys, u * N + v)
    # Edges G lacks point at one extra slot of weight 0, which then underflows.
    at[(u < 0) | (v < 0) | (np.append(keys, -1)[at] != u * N + v)] = len(keys)
    left = np.append(G.weights, 0)
    left[at] -= S.weights
    bad = np.flatnonzero(left[at] < 0)
    if bad.size:
        i, row = int(bad[0]), int(at[bad[0]])
        held, need = (int(G.weights[row]) if row < len(keys) else 0), int(S.weights[i])
        raise RecoveryError(
            G.level, f"edge {_edge(S, i)} has weight {held}; larger hyperedges need {need}"
        )
    return left[:-1]


def _peel(G: WeightedDecomposedGraph, resid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Size-(k+1) hyperedges and multiplicities that consume the residual."""
    size = G.level + 1
    rows = np.flatnonzero(resid)
    both = np.sort(G.base.nodes[G.base.edge_array[rows]].reshape(-1, 2 * G.level), axis=1)
    fresh = np.ones(both.shape, dtype=bool)
    fresh[:, 1:] = both[:, 1:] != both[:, :-1]
    wrong = np.flatnonzero(fresh.sum(axis=1) != size)
    if wrong.size:
        edge, got = _edge(G, int(rows[wrong[0]])), int(fresh[wrong[0]].sum())
        raise RecoveryError(G.level, f"residual edge {edge} spans {got} nodes, not {size}")
    # Rows are sorted, so each union is first met at its smallest pair. All
    # size*(size-1)/2 edges of its clique must carry its multiplicity.
    unions, inv, first = rank_rows(both[fresh].reshape(-1, size))
    mults = resid[rows[first]]
    off = np.bincount(inv, weights=resid[rows] != mults[inv], minlength=len(unions))
    short = np.bincount(inv, minlength=len(unions)) != size * (size - 1) // 2
    bad = np.flatnonzero(short | (off > 0))
    if bad.size:
        j = int(bad[0])
        edge, union = _edge(G, int(rows[first[j]])), tuple(unions[j].tolist())
        raise RecoveryError(
            G.level, f"edge {edge} implies {union} x{mults[j]}; its clique disagrees"
        )
    return unions, mults


def _expand(n: int, blocks: list[np.ndarray]) -> Hypergraph:
    """The hypergraph whose hyperedges are the rows of `blocks`, in order."""
    sizes = np.repeat([b.shape[1] for b in blocks], [len(b) for b in blocks])
    members = np.concatenate([b.ravel() for b in blocks] + [np.empty(0, np.int64)])
    return Hypergraph(n, np.append(0, np.cumsum(sizes, dtype=np.int64)), members)


def recover(
    graphs: Mapping[int, WeightedDecomposedGraph], max_size: int | None = None
) -> Hypergraph:
    """Rebuild the hypergraph whose weighted decompositions are `graphs`.

    `graphs` maps level k to the uncapped weighted decomposition at k;
    levels 1 through max_size - 1 must be present. If max_size is omitted
    it is taken as one more than the highest provided level. Inconsistent
    inputs raise RecoveryError naming the level and offending edge or node,
    and so do multiplicities whose hyperedges would need more than
    DENSE_FALLBACK_MAX_BYTES of int64 members, before any is expanded.
    """
    if not graphs:
        raise ValidationError("no decomposed graphs provided")
    for level, G in graphs.items():
        if G.base.level != level:
            raise ValidationError(
                f"graph stored under level {level} reports level {G.base.level}"
            )
    if max_size is None:
        max_size = 1 + max(graphs)
    if max_size < 2:
        raise ValidationError("maximum hyperedge size must be at least 2")
    missing = max_size - 1 - sum(k < max_size for k in graphs)
    if missing:
        first = min(set(range(1, len(graphs) + 2)) - graphs.keys())
        raise ValidationError(
            f"{missing} of decomposition levels 1..{max_size - 1} missing, first {first}"
        )
    max_id = max(int(G.base.nodes.max(initial=-1)) for G in graphs.values())
    if max_id < 0:
        raise ValidationError("decompositions contain no nodes")
    n = max_id + 1

    # One block per size, each found hyperedge repeated by its multiplicity.
    blocks: list[np.ndarray] = []
    needed = 0  # bytes of the members of all blocks so far
    for size in range(max_size, 0, -1):
        if size > 1:
            larger = decompose_weighted(_expand(n, blocks), size - 1)
            found, mults = _peel(graphs[size - 1], _subtract(graphs[size - 1], larger))
        else:
            at = sorted(graphs[1].self_loops)
            found = graphs[1].base.nodes[at]
            mults = np.array([graphs[1].self_loops[i] for i in at], dtype=np.int64)
        if size < max_size:
            # Nodes on no edge of the level above (`node` lines in files) must
            # be size-`size` hyperedges, and each such hyperedge a node there.
            above = graphs[size].base
            lone = above.nodes[above.degrees() == 0]
            odd = lone[_find_rows(found, lone) < 0].tolist()
            if odd:
                raise RecoveryError(size, f"node {tuple(odd[0])} lies on no edge or hyperedge")
            odd = found[_find_rows(above.nodes, found) < 0].tolist()
            if odd:
                raise RecoveryError(size, f"hyperedge {tuple(odd[0])} is missing from the nodes")
        needed += sum(mults.tolist()) * size * 8  # exact, where an int64 sum could wrap
        if needed > DENSE_FALLBACK_MAX_BYTES:
            raise RecoveryError(
                max(size - 1, 1),
                f"the recovered hyperedges need {needed} bytes, "
                f"above the {DENSE_FALLBACK_MAX_BYTES}-byte limit",
            )
        blocks.append(np.repeat(found, mults, axis=0))
    return _expand(n, blocks)
