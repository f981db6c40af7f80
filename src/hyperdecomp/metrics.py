"""Structural statistics of decomposed graphs.

Covers connected components with the giant-component rule, interpolated
effective diameter, average local clustering, degree histograms, and the
top of the singular spectrum. Inputs are simple undirected graphs; all
sampling is seed-driven.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .core import DecomposedGraph, ValidationError

# scipy is imported inside the functions that need it, so importing this
# module (and with it the CLI) stays cheap for commands that never measure.
if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "MetricError",
    "ConvergenceError",
    "ComponentReport",
    "connected_components",
    "degree_histogram",
    "effective_diameter",
    "clustering_coefficient",
    "SingularSpectrum",
    "singular_values",
]

# A largest component at least this many times the second-largest counts
# as giant.
GIANT_RATIO = 70.0

# Largest dense float64 adjacency the eigensolver fallback may allocate
# (2 GiB, i.e. at most 16,384 nodes).
DENSE_FALLBACK_MAX_BYTES = 2 * 1024**3

# The effective diameter is this quantile of the pairwise distances.
DIAMETER_QUANTILE = 0.9


class MetricError(ValueError):
    pass


class ConvergenceError(MetricError):
    pass


@dataclass(frozen=True)
class ComponentReport:
    sizes: tuple[int, ...]
    largest_frac: float
    second_frac: float
    is_giant: bool

    def to_dict(self) -> dict:
        return {
            "num_components": len(self.sizes),
            "largest_frac": self.largest_frac,
            "second_frac": self.second_frac,
            "is_giant": self.is_giant,
        }


def connected_components(G: DecomposedGraph) -> ComponentReport:
    """Component sizes in descending order plus the giant-component flag.

    With a single component the second-largest fraction is taken to be one
    node's worth, so a lone component is giant once it spans at least
    GIANT_RATIO nodes.
    """
    n = G.num_nodes
    if n == 0:
        return ComponentReport(sizes=(), largest_frac=0.0, second_frac=0.0, is_giant=False)
    from scipy.sparse import csgraph

    _, labels = csgraph.connected_components(G.adjacency_csr(), directed=False)
    sizes = np.sort(np.bincount(labels))[::-1]
    largest_frac = sizes[0] / n
    second_frac = (sizes[1] / n) if sizes.shape[0] > 1 else (1.0 / n)
    return ComponentReport(
        sizes=tuple(int(s) for s in sizes),
        largest_frac=float(largest_frac),
        second_frac=float(second_frac),
        is_giant=bool(largest_frac / second_frac >= GIANT_RATIO),
    )


def degree_histogram(G: DecomposedGraph) -> dict[int, int]:
    """Map degree value to the number of nodes attaining it."""
    if G.num_nodes == 0:
        return {}
    counts = np.bincount(G.degrees())
    return {int(d): int(c) for d, c in enumerate(counts) if c > 0}


if hasattr(np, "bitwise_count"):
    def _popcount_total(words: np.ndarray) -> int:
        return int(np.bitwise_count(words).sum())
else:
    _POP_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _popcount_total(words: np.ndarray) -> int:
        return int(_POP_TABLE[words.view(np.uint8)].sum())


def _distance_histogram(
    adj: sp.csr_matrix, sources: np.ndarray, n: int
) -> np.ndarray:
    """Histogram of positive BFS distances from the given sources.

    Runs 64 simultaneous breadth-first searches per pass by packing one
    source per bit of a uint64 frontier vector; per-node neighborhood ORs
    come from a reduceat over the CSR index array.
    """
    indices = adj.indices.astype(np.int64)
    indptr = adj.indptr.astype(np.int64)
    empty_rows = indptr[:-1] == indptr[1:]
    # reduceat demands in-range offsets; empty rows are zeroed afterwards.
    offsets = np.minimum(indptr[:-1], max(indices.size - 1, 0))
    hist: list[int] = [0]
    for start in range(0, sources.shape[0], 64):
        batch = sources[start : start + 64]
        frontier = np.zeros(n, dtype=np.uint64)
        frontier[batch] |= np.uint64(1) << np.arange(batch.size, dtype=np.uint64)
        visited = frontier.copy()
        d = 0
        while True:
            d += 1
            neigh = np.bitwise_or.reduceat(frontier[indices], offsets)
            neigh[empty_rows] = 0
            new = neigh & ~visited
            reached = _popcount_total(new)
            if reached == 0:
                break
            if d >= len(hist):
                hist.append(0)
            hist[d] += reached
            visited |= new
            frontier = new
    return np.array(hist, dtype=np.int64)


def effective_diameter(
    G: DecomposedGraph,
    exact_threshold: int = 20_000,
    num_sources: int = 1_000,
    seed: int = 0,
) -> float:
    """Interpolated q-quantile of the pairwise shortest-path distribution.

    With q = DIAMETER_QUANTILE and g(d) the fraction of connected ordered
    pairs (self-pairs excluded) at distance <= d, returns
    d* - 1 + (q - g(d* - 1)) / (g(d*) - g(d* - 1)) where d* is the smallest
    integer with g(d*) >= q and g(0) = 0. Graphs above `exact_threshold`
    nodes are estimated from `num_sources` sampled BFS sources.
    """
    n = G.num_nodes
    if n == 0 or G.num_edges == 0:
        raise MetricError("effective diameter undefined: no connected pairs")
    if n <= exact_threshold or num_sources >= n:
        sources = np.arange(n, dtype=np.int64)
    else:
        rng = np.random.default_rng(seed)
        sources = np.sort(rng.choice(n, size=num_sources, replace=False))

    hist = _distance_histogram(G.adjacency_csr(), sources, n)
    counts = hist[1:].astype(np.float64)
    if counts.size == 0 or counts.sum() == 0:
        raise MetricError("effective diameter undefined: no connected pairs")
    g = np.cumsum(counts) / counts.sum()
    d_star = int(np.searchsorted(g, DIAMETER_QUANTILE) + 1)  # distances are 1-based
    g_prev = 0.0 if d_star == 1 else float(g[d_star - 2])
    g_cur = float(g[d_star - 1])
    return float(d_star - 1 + (DIAMETER_QUANTILE - g_prev) / (g_cur - g_prev))


def _triangle_counts(G: DecomposedGraph) -> np.ndarray:
    """Per-node triangle counts from one degree-oriented sparse product.

    `L` holds each edge once, from its lower-degree end to its higher-degree
    end (ties keep u < v). Of a triangle's two corners other than x, exactly
    one has an `L` edge to the other, so row x of (adj @ L) masked by adj
    counts each triangle at x once. The orientation bounds the work: no
    node has more than sqrt(2E) out-edges in `L`.
    """
    from scipy.sparse import csr_matrix

    n, (u, v) = G.num_nodes, G.edge_array.T
    deg = G.degrees()
    lo, hi = np.where(deg[u] > deg[v], (v, u), (u, v))
    L = csr_matrix((np.ones(lo.size, dtype=np.int64), (lo, hi)), shape=(n, n))
    adj = G.adjacency_csr().astype(np.int64)
    return np.asarray((adj @ L).multiply(adj).sum(axis=1)).ravel()


def clustering_coefficient(G: DecomposedGraph) -> float:
    """Mean local clustering coefficient over every node.

    A node's coefficient is 2 * triangles / (deg * (deg - 1)); nodes of
    degree < 2 contribute zero to the mean.
    """
    n = G.num_nodes
    if n == 0:
        raise MetricError("clustering undefined on an empty graph")
    if G.num_edges == 0:
        return 0.0
    deg = G.degrees().astype(np.float64)
    tri = _triangle_counts(G).astype(np.float64)
    denom = deg * (deg - 1.0)
    local = np.zeros(n, dtype=np.float64)
    mask = denom > 0
    local[mask] = 2.0 * tri[mask] / denom[mask]
    return float(local.mean())


@dataclass(frozen=True)
class SingularSpectrum:
    values: tuple[float, ...] = field(default=())
    requested: int = 0

    def to_dict(self) -> dict:
        return {"requested": self.requested, "values": list(self.values)}


def singular_values(
    G: DecomposedGraph,
    m: int | None = None,
    rel_tol: float = 1e-8,
    max_iter: int | None = None,
) -> SingularSpectrum:
    """Top-m singular values of the 0/1 adjacency matrix, descending.

    For the symmetric adjacency these are eigenvalue magnitudes, computed
    with restarted Lanczos iteration; requests covering essentially the
    whole spectrum (m > n - 2) fall back to a dense eigensolver, which the
    iterative machinery cannot serve. That fallback raises MetricError
    instead of allocating a dense matrix above DENSE_FALLBACK_MAX_BYTES.
    """
    n = G.num_nodes
    if m is None:
        m = min(n, 500)
    if m < 1:
        raise ValidationError("must request at least one singular value")
    m = min(m, n)
    if n == 0:
        return SingularSpectrum(values=(), requested=m)
    if G.num_edges == 0:
        return SingularSpectrum(values=(0.0,) * m, requested=m)

    dense = m > n - 2
    if dense and n * n * 8 > DENSE_FALLBACK_MAX_BYTES:
        raise MetricError(
            f"dense eigensolver fallback for m={m} on n={n} nodes needs "
            f"{n * n * 8} bytes, above the {DENSE_FALLBACK_MAX_BYTES}-byte "
            "limit; request m <= n - 2"
        )
    adj = G.adjacency_csr().astype(np.float64)
    if dense:
        eigs = np.linalg.eigvalsh(adj.toarray())
    else:
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh

        # Deterministic start vector keeps repeated runs identical.
        v0 = np.random.default_rng(0x5EED).standard_normal(n)
        try:
            eigs = eigsh(
                adj,
                k=m,
                which="LM",
                tol=rel_tol,
                maxiter=max_iter if max_iter is not None else n * 50,
                v0=v0,
                return_eigenvectors=False,
            )
        except ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"Lanczos iteration failed to converge for k={m}"
            ) from exc
    vals = np.sort(np.abs(eigs))[::-1][:m]
    return SingularSpectrum(values=tuple(float(v) for v in vals), requested=m)
