"""Lossless reconstruction of a hypergraph from its weighted decompositions.

Works top-down over hyperedge sizes. At level k = size - 1 each distinct larger
hyperedge found so far is subtracted once, in place: its multiplicity comes off
each edge between two of its k-subsets, which must all be nodes. A positive
remainder joins two k-subsets whose union is a size-(k+1) hyperedge of that
multiplicity. Size-1 hyperedges come from the level-1 self-loop counts. Output
is by size descending, lexicographic within a size, then singletons by node.
"""

from __future__ import annotations

from math import comb
from typing import Mapping

import numpy as np

from .core import Hypergraph, KSubset, ValidationError, WeightedDecomposedGraph, rank_rows
from .decompose import _pair_keys, _subsets
from .metrics import DENSE_FALLBACK_MAX_BYTES

__all__ = ["RecoveryError", "recover"]


class RecoveryError(ValueError):
    """Input graphs are not the weighted decompositions of any hypergraph."""

    def __init__(self, level: int, message: str):
        super().__init__(f"level {level}: {message}")
        self.level = level


def _edge(G: WeightedDecomposedGraph, ends: np.ndarray) -> tuple[KSubset, KSubset]:
    return tuple(map(tuple, G.base.nodes[ends].tolist()))


def _find_rows(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index in the distinct-row `table` of each of `rows`, or -1 where absent."""
    _, rank, first = rank_rows(np.concatenate([table, rows]))
    # A row of `table` comes before its equal rows of `rows`, so it is met first.
    pos = first[rank[len(table) :]]
    pos[pos >= len(table)] = -1
    return pos


def _subtract(
    G: WeightedDecomposedGraph, larger: list[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """G's weights less, on each edge, the multiplicities of the hyperedges holding both
    ends. `larger` has (sorted distinct rows, multiplicities) of one or more sizes > k."""
    N, k = G.base.num_nodes, G.level
    flat, shapes = _subsets([rows for rows, _ in larger], k)
    ids = _find_rows(G.base.nodes, flat)
    if np.any(ids < 0):
        subset = tuple(flat[np.argmax(ids < 0)].tolist())
        raise RecoveryError(k, f"subset {subset} of a larger hyperedge is not a node")
    # Nodes are sorted, so ids increase along a hyperedge's subsets, as _pair_keys needs.
    pairs = _pair_keys(ids, shapes, N)
    need = np.concatenate([np.repeat(w, comb(c, 2)) for (_, w), (_, c) in zip(larger, shapes)])
    keys = G.base.edge_array[:, 0] * N + G.base.edge_array[:, 1]
    at = np.searchsorted(keys, pairs)
    # Pairs G lacks point at one extra slot of weight 0, which then underflows.
    absent = np.append(keys, -1)[at] != pairs
    at[absent] = len(keys)
    left = np.append(G.weights, 0)
    np.subtract.at(left, at, need)
    bad = np.append(keys[left[:-1] < 0], pairs[absent])
    if bad.size:  # name the lexicographically first, as the sorted keys order them
        edge, hit = _edge(G, list(divmod(int(bad.min()), N))), pairs == bad.min()
        held, needed = int(np.append(G.weights, 0)[at[hit][0]]), int(need[hit].sum())
        raise RecoveryError(k, f"edge {edge} has weight {held}; larger hyperedges need {needed}")
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
        edge, got = _edge(G, G.base.edge_array[rows[wrong[0]]]), int(fresh[wrong[0]].sum())
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
        edge, union = _edge(G, G.base.edge_array[rows[first[j]]]), tuple(unions[j].tolist())
        raise RecoveryError(
            G.level, f"edge {edge} implies {union} x{mults[j]}; its clique disagrees"
        )
    return unions, mults


def recover(graphs: Mapping[int, WeightedDecomposedGraph]) -> Hypergraph:
    """Rebuild the hypergraph whose weighted decompositions are `graphs`.

    `graphs` maps level k to the uncapped weighted decomposition at k, for
    every k from 1 to the highest level given; hyperedges have at most one
    node more than that level. Inconsistent inputs raise RecoveryError
    naming the level and offending edge or node, and so do multiplicities
    whose hyperedges would need more than DENSE_FALLBACK_MAX_BYTES of int64
    members, before any is expanded.
    """
    if not graphs:
        raise ValidationError("no decomposed graphs provided")
    for level, G in graphs.items():
        if G.base.level != level:
            raise ValidationError(
                f"graph stored under level {level} reports level {G.base.level}"
            )
    max_size = 1 + max(graphs)
    missing = max_size - 1 - len(graphs)
    if missing:
        first = min(set(range(1, len(graphs) + 2)) - graphs.keys())
        raise ValidationError(
            f"{missing} of decomposition levels 1..{max_size - 1} missing, first {first}"
        )
    max_id = max(int(G.base.nodes.max(initial=-1)) for G in graphs.values())
    if max_id < 0:
        raise ValidationError("decompositions contain no nodes")
    n = max_id + 1

    # Each size's distinct hyperedges peeled so far, with their multiplicities.
    peeled: list[tuple[np.ndarray, np.ndarray]] = []
    needed = 0  # bytes of the members of all hyperedges so far
    for size in range(max_size, 0, -1):
        if size > 1:
            G = graphs[size - 1]
            found, mults = _peel(G, _subtract(G, peeled) if peeled else G.weights)
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
        if len(found):  # _pair_keys cannot shape a size with no hyperedge
            peeled.append((found, mults))
    blocks = [np.repeat(rows, m, axis=0) for rows, m in peeled]
    sizes = np.repeat([b.shape[1] for b in blocks], [len(b) for b in blocks])
    members = np.concatenate([b.ravel() for b in blocks] + [np.empty(0, np.int64)])
    return Hypergraph(n, np.append(0, np.cumsum(sizes, dtype=np.int64)), members)
