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

from .core import DecomposedGraph, ValidationError, _Components

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
# (2 GiB, i.e. at most 16,384 nodes); `recover` bounds the int64 members of
# the hyperedges it expands by the same figure.
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
    sizes = np.sort(np.diff(G._components.bounds))[::-1]
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


def _block(csr, lo: int, hi: int):
    """Rows and columns lo:hi of a block-diagonal CSR matrix, for lo and hi
    on block bounds, where that submatrix holds one contiguous slice of
    the nonzeros."""
    from scipy.sparse import csr_matrix

    start, stop = csr.indptr[lo], csr.indptr[hi]
    return csr_matrix(
        (csr.data[start:stop], csr.indices[start:stop] - lo, csr.indptr[lo : hi + 1] - start),
        shape=(hi - lo, hi - lo),
    )


def _distance_histogram(comps: _Components, sources: np.ndarray) -> np.ndarray:
    """Histogram of positive BFS distances from the given sources.

    Sources are sorted positions of the component-ordered adjacency. Runs
    64 simultaneous breadth-first searches per pass by packing one source
    per bit of a uint64 frontier vector; per-node neighborhood ORs come
    from a reduceat over the CSR index array. A pass searches only the
    components its sources lie in, a closed range of rows.
    """
    source_comp = np.searchsorted(comps.bounds, sources, side="right") - 1
    hist: list[int] = [0]
    rows = None
    for start in range(0, sources.shape[0], 64):
        lo = int(comps.bounds[source_comp[start]])
        hi = int(comps.bounds[source_comp[start : start + 64][-1] + 1])
        if rows != (lo, hi):  # consecutive passes often share a component
            rows, block = (lo, hi), _block(comps.csr, lo, hi)
            # Index hi - lo is a frontier entry that stays zero, so the last
            # nonempty row's segment runs to the end even when empty rows follow.
            indices = np.append(block.indices, hi - lo)
            offsets = block.indptr[:-1]
            empty_rows = offsets == block.indptr[1:]
        frontier = np.zeros(hi - lo + 1, dtype=np.uint64)
        batch = sources[start : start + 64] - lo
        frontier[batch] |= np.uint64(1) << np.arange(batch.size, dtype=np.uint64)
        visited = frontier[:-1].copy()
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
            frontier[:-1] = new
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
    comps = G._components
    if n <= exact_threshold or num_sources >= n:
        sources = np.arange(n, dtype=np.int64)
    else:
        rng = np.random.default_rng(seed)
        sources = np.sort(comps.position[rng.choice(n, size=num_sources, replace=False)])

    hist = _distance_histogram(comps, sources)
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

    For the symmetric adjacency these are eigenvalue magnitudes. The
    adjacency is block-diagonal by connected component, so its spectrum is
    the union of the components' spectra, each counted with its own
    multiplicity: the top min(m, s) of every s-node component are merged.
    A component with m <= s - 2 is solved by restarted Lanczos iteration;
    one whose request covers essentially its whole spectrum (m > s - 2)
    goes to a dense eigensolver, which the iterative machinery cannot
    serve. That fallback raises MetricError instead of allocating a dense
    component matrix above DENSE_FALLBACK_MAX_BYTES. `m` defaults to 500
    and is capped at the node count.
    """
    n = G.num_nodes
    if m is None:
        m = 500
    elif m < 1:
        raise ValidationError("must request at least one singular value")
    m = min(m, n)
    if n == 0:
        return SingularSpectrum(values=(), requested=m)
    if G.num_edges == 0:
        return SingularSpectrum(values=(0.0,) * m, requested=m)

    comps = G._components
    sizes = np.diff(comps.bounds)
    s = int(sizes[sizes < m + 2].max(initial=0))
    if s * s * 8 > DENSE_FALLBACK_MAX_BYTES:
        raise MetricError(
            f"dense eigensolver fallback for m={m} on a {s}-node component "
            f"needs {s * s * 8} bytes, above the {DENSE_FALLBACK_MAX_BYTES}-byte "
            f"limit; request m <= {s - 2}"
        )
    parts = _dense_magnitudes(G, comps, m)
    parts += [
        _lanczos_magnitudes(_block(comps.csr, lo, hi).astype(np.float64), m, rel_tol, max_iter)
        for lo, hi in zip(comps.bounds[:-1], comps.bounds[1:])
        if hi - lo >= m + 2
    ]
    vals = np.sort(np.concatenate(parts))[::-1][:m]
    return SingularSpectrum(values=tuple(float(v) for v in vals), requested=m)


def _dense_magnitudes(G: DecomposedGraph, comps: _Components, m: int) -> list[np.ndarray]:
    """Top min(m, s) eigenvalue magnitudes of every s-node component with
    m > s - 2, the components the iterative solver cannot serve.

    Components of one size are solved together: their adjacencies are
    written straight from the edge list into (count, s, s) stacks of at
    most DENSE_FALLBACK_MAX_BYTES, one batched eigvalsh each.
    """
    sizes = np.diff(comps.bounds)
    dense = np.flatnonzero(sizes < m + 2)
    dense = dense[np.argsort(sizes[dense], kind="stable")]
    slot = np.full(sizes.size, -1, dtype=np.int64)
    slot[dense] = np.arange(dense.size)
    u, v = G.edge_array.T
    edge_slot = slot[comps.labels[u]]
    mine = np.flatnonzero(edge_slot >= 0)
    mine = mine[np.argsort(edge_slot[mine], kind="stable")]
    u, v, edge_slot = u[mine], v[mine], edge_slot[mine]
    start = comps.bounds[comps.labels[u]]
    lu, lv = comps.position[u] - start, comps.position[v] - start
    out = []
    group_starts = np.flatnonzero(np.diff(sizes[dense], prepend=-1))
    for a, b in zip(group_starts, [*group_starts[1:], dense.size]):
        s = int(sizes[dense[a]])
        per_stack = DENSE_FALLBACK_MAX_BYTES // (s * s * 8)
        for first in range(a, b, per_stack):
            last = min(first + per_stack, b)
            lo, hi = np.searchsorted(edge_slot, [first, last])
            at = edge_slot[lo:hi] - first
            stack = np.zeros((last - first, s, s))
            stack[at, lu[lo:hi], lv[lo:hi]] = 1.0
            stack[at, lv[lo:hi], lu[lo:hi]] = 1.0
            mags = np.sort(np.abs(np.linalg.eigvalsh(stack)), axis=1)
            out.append(mags[:, ::-1][:, :m].ravel())
    return out


def _lanczos_magnitudes(
    block: sp.csr_matrix, m: int, rel_tol: float, max_iter: int | None
) -> np.ndarray:
    """Top-m eigenvalue magnitudes of one component by restarted Lanczos."""
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    s = block.shape[0]
    # Deterministic start vector keeps repeated runs identical.
    v0 = np.random.default_rng(0x5EED).standard_normal(s)
    try:
        eigs = eigsh(
            block,
            k=m,
            which="LM",
            tol=rel_tol,
            maxiter=max_iter if max_iter is not None else s * 50,
            v0=v0,
            return_eigenvectors=False,
        )
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Lanczos iteration failed to converge for k={m} on a {s}-node component"
        ) from exc
    return np.abs(eigs)
