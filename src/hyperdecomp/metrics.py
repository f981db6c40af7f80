"""Structural statistics of decomposed graphs.

Covers connected components with the giant-component rule, interpolated
effective diameter, average local clustering, degree histograms, and the
top of the singular spectrum. Inputs are simple undirected graphs; all
sampling is seed-driven.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _CSR, DecomposedGraph, ValidationError, _Components, key_groups, rank_rows

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

# Spectrum blocks within this as dense float64 (q <= 1,448) are solved
# densely for any m, in stacks within it: a block and eigvalsh's copy cost
# about what loading scipy for Lanczos does.
DENSE_BLOCK_BYTES = 16 * 1024**2

# Bound on the intermediates of one chunk of the triangle count.
_PAIR_CHUNK_BYTES = 16 * 1024**2

# The effective diameter is this quantile of the pairwise distances.
DIAMETER_QUANTILE = 0.9

# Restarted Lanczos stops at this relative accuracy of each eigenvalue, and
# fails after this many restarts per row of the component it solves.
_LANCZOS_TOL = 1e-8
_LANCZOS_ITERS_PER_ROW = 50


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


def _block(csr: _CSR, lo: int, hi: int) -> _CSR:
    """Rows and columns lo:hi of a block-diagonal CSR matrix, for lo and hi
    on block bounds, where that submatrix holds one contiguous slice of
    the nonzeros."""
    start, stop = csr.indptr[lo], csr.indptr[hi]
    data = None if csr.data is None else csr.data[start:stop]
    return _CSR(csr.indptr[lo : hi + 1] - start, csr.indices[start:stop] - lo, data)


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
            reached = int(np.bitwise_count(new).sum())
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
    nodes are estimated from `num_sources` sampled BFS sources, drawn from a
    non-negative `seed`.
    """
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
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


# 2**64 over the golden ratio, as an int64: the multiplier of Fibonacci hashing.
_FIB = -0x61C8864680B583EB


def _slots(keys: np.ndarray, bits: int) -> np.ndarray:
    """Home slots of int64 keys in a table of 2**bits: the top bits of
    keys * _FIB, modulo 2**64 (Knuth, TAOCP vol. 3, section 6.4)."""
    h = keys * _FIB
    h >>= 64 - bits
    h &= (1 << bits) - 1
    return h


def _key_table(keys: np.ndarray) -> np.ndarray:
    """Distinct non-negative keys in a linear-probing hash table at most half
    full, -1 marking an empty slot."""
    bits = int(2 * keys.size).bit_length()
    table = np.full(1 << bits, -1, dtype=np.int64)
    at = _slots(keys, bits)
    while keys.size:  # each key takes the first free slot from its home on
        free = table[at] < 0
        table[at[free]] = keys[free]
        left = table[at] != keys
        keys, at = keys[left], (at[left] + 1) & (table.size - 1)
    return table


def _in_table(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each key is in a `_key_table`."""
    at = _slots(keys, table.size.bit_length() - 1)
    seen = table[at]
    hit = seen == keys
    todo = np.flatnonzero(~hit & (seen >= 0))
    while todo.size:  # probe on to the key or an empty slot
        at[todo] = (at[todo] + 1) & (table.size - 1)
        seen = table[at[todo]]
        found = seen == keys[todo]
        hit[todo[found]] = True
        todo = todo[~found & (seen >= 0)]
    return hit


def _triangle_counts(G: DecomposedGraph) -> np.ndarray:
    """Per-node triangle counts, each triangle found at its lowest corner.

    Edges point from the lower-degree end (ties: u), so no node has over
    sqrt(2E) out-neighbours (Latapy, Theor. Comput. Sci., 2008); each pair
    of them is looked up among the u * N + v edge keys, in a hash table.
    Nodes of one out-degree go together, in chunks of four int64s per pair.
    """
    n, (u, v) = G.num_nodes, G.edge_array.T
    deg = G.degrees()
    flip = deg[u] > deg[v]
    lo = np.where(flip, v, u)
    outdeg = np.bincount(lo, minlength=n)
    out = np.sort(lo * n + np.where(flip, u, v)) % n  # each out-list ascending
    start = np.cumsum(outdeg) - outdeg
    table = _key_table(u * n + v)
    tri = np.zeros(n, dtype=np.int64)
    step = _PAIR_CHUNK_BYTES // 32
    for x in key_groups(outdeg):
        d = int(outdeg[x[0]])
        width = step // (d + 1) + 1
        for a in range(0, d - 1, width):
            i, j = np.add(np.triu_indices(min(width, d - 1 - a), 1, d - a), a)
            rows = max(1, step // i.size)
            for r in range(0, x.size, rows):
                y = x[r : r + rows]
                nb = out[start[y, None] + np.arange(d)]
                pair = nb[:, i] * n
                pair += nb[:, j]
                hit = _in_table(table, pair.ravel()).reshape(pair.shape)
                tri[y] += hit.sum(axis=1)
                tri += np.bincount(np.concatenate(np.divmod(pair[hit], n)), minlength=n)
    return tri


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
    """The top singular values of a graph's adjacency, descending."""

    values: tuple[float, ...] = ()


def singular_values(G: DecomposedGraph, m: int | None = None) -> SingularSpectrum:
    """Top-m singular values of the 0/1 adjacency matrix, descending.

    For the symmetric adjacency these are eigenvalue magnitudes. True twins,
    nodes with the same closed neighbourhood N(v) | {v}, are folded first:
    a class C of them carries |C| - 1 eigenvalues exactly -1, and the rest
    of the spectrum is that of the twin quotient (see `_twin_quotient`).
    Its blocks, one per component, are solved separately, so each value
    keeps its multiplicity: the top min(m, q) of every q-class block are
    merged with the exact copies of 1.0. A block goes to a dense
    eigensolver, exact and repeatable, when it fits in DENSE_BLOCK_BYTES or
    m > q - 2, and to restarted Lanczos iteration otherwise; a dense block
    above DENSE_FALLBACK_MAX_BYTES raises MetricError. `m` defaults to 500
    and is capped at the node count.
    """
    n = G.num_nodes
    if m is None:
        m = 500
    elif m < 1:
        raise ValidationError("must request at least one singular value")
    m = min(m, n)
    if G.num_edges == 0:
        return SingularSpectrum(values=(0.0,) * m)

    S, bounds = _twin_quotient(G._components)
    sizes = np.diff(bounds)
    dense = (sizes < m + 2) | (8 * sizes**2 <= DENSE_BLOCK_BYTES)
    q = int(sizes[dense].max(initial=0))
    if q * q * 8 > DENSE_FALLBACK_MAX_BYTES:
        raise MetricError(
            f"dense eigensolver fallback for m={m} on a {q}-node component of the "
            f"twin quotient needs {q * q * 8} bytes, above the "
            f"{DENSE_FALLBACK_MAX_BYTES}-byte limit; request m <= {q - 2}"
        )
    parts = _dense_magnitudes(S, bounds, np.flatnonzero(dense), m)
    parts += [_lanczos_magnitudes(_block(S, *bounds[c : c + 2]), m) for c in np.flatnonzero(~dense)]
    parts.append(np.ones(min(n - bounds[-1], m)))  # the folded eigenvalues -1
    vals = np.sort(np.concatenate(parts))[::-1][:m]
    return SingularSpectrum(values=tuple(float(v) for v in vals))


def _twin_classes(csr: _CSR) -> np.ndarray:
    """The first position of each node's true-twin class.

    Twins have equal degrees, so the nodes of each degree d are ranked
    together by their sorted closed-neighbourhood rows of d + 1 entries.
    """
    degree = np.diff(csr.indptr)
    first = np.arange(degree.size)
    for idx in key_groups(degree):
        d = int(degree[idx[0]])
        rows = np.empty((idx.size, d + 1), dtype=csr.indices.dtype)
        rows[:, :d] = csr.indices[csr.indptr[idx, None] + np.arange(d)]
        rows[:, d] = idx
        rows.sort(axis=1)
        _, inverse, head = rank_rows(rows)
        first[idx] = idx[head][inverse]
    return first


def _twin_quotient(comps: _Components) -> tuple[_CSR, np.ndarray]:
    """The symmetric twin quotient S of a component-ordered adjacency, and
    the bounds of its diagonal blocks.

    S has one node per true-twin class, |C| - 1 on its diagonal and
    sqrt(|C| * |D|) between adjacent classes C and D, every member of C
    being adjacent to every member of D. It is the symmetrized quotient of
    an equitable partition (Godsil & Royle, Algebraic Graph Theory, 2001,
    section 9.3): its eigenvalues are the adjacency's, less |C| - 1 copies
    of -1 per class. Classes are numbered by their first position, so S is
    block-diagonal like the adjacency. Without twins, S equals the adjacency.
    """
    csr = comps.csr
    first = _twin_classes(csr)
    lead = first == np.arange(first.size)
    before = np.cumsum(lead)
    label = before[first] - 1
    size = np.bincount(label)
    q = size.size
    # The row of a class's first member reaches its own class |C| - 1 times
    # and each adjacent class D |D| times.
    owner = np.repeat(np.arange(first.size), np.diff(csr.indptr))
    at = lead[owner]
    cell = label[owner[at]] * q + label[csr.indices[at]]
    cell, count = np.unique(cell, return_counts=True)
    row, col = np.divmod(cell, q)
    value = np.where(row == col, count, np.sqrt(size[row] * count))
    indptr = np.append(0, np.cumsum(np.bincount(row, minlength=q)))
    return _CSR(indptr, col, value), np.append(0, before)[comps.bounds]


def _dense_magnitudes(S: _CSR, bounds: np.ndarray, dense: np.ndarray, m: int) -> list[np.ndarray]:
    """Top min(m, q) eigenvalue magnitudes of the q-row diagonal blocks
    `dense` of the block-diagonal S.

    Blocks of one size are solved together: their entries are written
    straight from S into (count, q, q) stacks within DENSE_BLOCK_BYTES (or
    of one block), one batched eigvalsh each.
    """
    sizes = np.diff(bounds)
    dense = dense[np.argsort(sizes[dense], kind="stable")]
    slot = np.full(sizes.size, -1, dtype=np.int64)
    slot[dense] = np.arange(dense.size)
    row = np.repeat(np.arange(bounds[-1]), np.diff(S.indptr))
    block = np.repeat(np.arange(sizes.size), sizes)[row]
    entry_slot = slot[block]
    mine = np.flatnonzero(entry_slot >= 0)
    mine = mine[np.argsort(entry_slot[mine], kind="stable")]
    start = bounds[block[mine]]
    lr, lc, value = row[mine] - start, S.indices[mine] - start, S.data[mine]
    entry_slot = entry_slot[mine]
    out = []
    group_starts = np.flatnonzero(np.diff(sizes[dense], prepend=-1))
    for a, b in zip(group_starts, [*group_starts[1:], dense.size]):
        q = int(sizes[dense[a]])
        per_stack = max(1, DENSE_BLOCK_BYTES // (q * q * 8))
        for first in range(a, b, per_stack):
            last = min(first + per_stack, b)
            lo, hi = np.searchsorted(entry_slot, [first, last])
            stack = np.zeros((last - first, q, q))
            stack[entry_slot[lo:hi] - first, lr[lo:hi], lc[lo:hi]] = value[lo:hi]
            mags = np.sort(np.abs(np.linalg.eigvalsh(stack)), axis=1)
            out.append(mags[:, ::-1][:, :m].ravel())
    return out


def _lanczos_magnitudes(block: _CSR, m: int) -> np.ndarray:
    """Top-m eigenvalue magnitudes of one component by restarted Lanczos."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    s = block.indptr.size - 1
    # Deterministic start vector keeps repeated runs identical.
    v0 = np.random.default_rng(0x5EED).standard_normal(s)
    try:
        eigs = eigsh(
            csr_matrix((block.data, block.indices, block.indptr), shape=(s, s)),
            k=m,
            which="LM",
            tol=_LANCZOS_TOL,
            maxiter=s * _LANCZOS_ITERS_PER_ROW,
            v0=v0,
            return_eigenvectors=False,
        )
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Lanczos iteration failed to converge for k={m} on a {s}-node component"
        ) from exc
    return np.abs(eigs)
