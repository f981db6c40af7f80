"""Seeded input builders for the benchmark workloads.

Every input the benchmark feeds the CLI is built here from the workload
seed, with numpy only, so a change to the package cannot change what it is
measured on. The same seed and scale always give the same bytes; `digest`
records them beside the results.

The independent counts in `capped_level_counts` re-derive what
`decompose` must report on the ingest input without using the package.
"""

from __future__ import annotations

import hashlib
import json
import os
from itertools import combinations

import numpy as np

# Size and arrival laws of the W50k reference (ROADMAP baseline).
PA_SIZES = {2: 0.35, 3: 0.3, 4: 0.2, 5: 0.1, 6: 0.05}
PA_NEW_EDGES = {0: 0.2, 1: 0.4, 2: 0.2, 3: 0.1, 6: 0.1}
INGEST_SIZES = (1, 2, 3, 4, 5, 6, 8)
ROUNDTRIP_SIZES = {1: 0.05, 2: 0.3, 3: 0.25, 4: 0.15, 5: 0.1, 6: 0.1, 8: 0.05}


def _quota(rng: np.random.Generator, law: dict[int, float], count: int) -> np.ndarray:
    """`count` values holding each value's exact share of the law, shuffled.

    Exact shares keep the amount of work fixed across seeds, so a seed
    changes which nodes meet, not how many hyperedges of each size exist.
    """
    values = sorted(law)
    shares = np.array([law[v] for v in values], dtype=np.float64) * count
    counts = np.floor(shares).astype(np.int64)
    for i in np.argsort(counts - shares, kind="stable")[: count - int(counts.sum())]:
        counts[i] += 1
    return rng.permutation(np.repeat(np.array(values, dtype=np.int64), counts))


def preferential_attachment(seed: int, arrivals: int) -> list[tuple[int, ...]]:
    """Node-degree preferential attachment under the W50k laws.

    Each arriving node brings a drawn number of hyperedges of drawn sizes;
    the other members of each are distinct nodes picked with probability
    proportional to their current degree. Degrees absorb a node's
    hyperedges only after all of them are drawn. Returns hyperedges in
    arrival order with sorted members.
    """
    rng = np.random.default_rng(seed)
    counts = _quota(rng, PA_NEW_EDGES, arrivals).tolist()
    sizes = iter(_quota(rng, PA_SIZES, int(sum(counts))).tolist())
    uniform = iter(rng.random(8 * int(sum(counts)) + 64).tolist())
    starters = [(2 * i, 2 * i + 1) for i in range(3)]
    edges: list[tuple[int, ...]] = list(starters)
    bag: list[int] = [v for e in starters for v in e]
    node = 2 * len(starters)
    for count in counts:
        new = []
        for _ in range(count):
            size = next(sizes)
            chosen = {node}
            while len(chosen) < size:
                chosen.add(bag[int(next(uniform) * len(bag))])
            new.append(tuple(sorted(chosen)))
        for e in new:
            edges.append(e)
            bag.extend(e)
        node += 1
    return edges


def uniform_hyperedges(seed: int, sizes: np.ndarray, id_range: int) -> list[np.ndarray]:
    """Hyperedges with the given sizes and distinct uniform ids.

    Returns one (m_s, s) array of sorted rows per size, in size order;
    rows holding a repeated id are redrawn until every row is distinct.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    for s in sorted(set(sizes.tolist())):
        m = int((sizes == s).sum())
        block = np.sort(rng.integers(0, id_range, size=(m, s)), axis=1)
        while True:
            bad = (np.diff(block, axis=1) == 0).any(axis=1) if s > 1 else np.zeros(m, bool)
            if not bad.any():
                break
            block[bad] = np.sort(rng.integers(0, id_range, size=(int(bad.sum()), s)), axis=1)
        blocks.append(block)
    return blocks


def ingest_blocks(seed: int, count: int, id_range: int) -> list[np.ndarray]:
    law = {s: 1.0 / len(INGEST_SIZES) for s in INGEST_SIZES}
    sizes = _quota(np.random.default_rng(seed), law, count)
    return uniform_hyperedges(seed + 1, sizes, id_range)


def roundtrip_edges(seed: int, count: int, id_range: int) -> list[tuple[int, ...]]:
    sizes = _quota(np.random.default_rng(seed), ROUNDTRIP_SIZES, count)
    return interleave(uniform_hyperedges(seed + 1, sizes, id_range), seed + 2)


def interleave(blocks: list[np.ndarray], seed: int) -> list[tuple[int, ...]]:
    """All rows of the size blocks in one seeded random order."""
    edges = [tuple(row) for block in blocks for row in block.tolist()]
    order = np.random.default_rng(seed).permutation(len(edges))
    return [edges[i] for i in order]


def write_line(path: str, edges: list[tuple[int, ...]], timestamps: bool) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t, e in enumerate(edges):
            line = " ".join(map(str, e))
            fh.write(f"{line} t={t}\n" if timestamps else line + "\n")


def write_simplex(prefix: str, edges: list[tuple[int, ...]]) -> tuple[str, str, str]:
    """The three-file simplex format: sizes, member stream, timestamps."""
    paths = (prefix + "-nverts.txt", prefix + "-simplices.txt", prefix + "-times.txt")
    with open(paths[0], "w", encoding="utf-8") as fh:
        fh.write("".join(f"{len(e)}\n" for e in edges))
    with open(paths[1], "w", encoding="utf-8") as fh:
        fh.write("".join(f"{v}\n" for e in edges for v in e))
    with open(paths[2], "w", encoding="utf-8") as fh:
        fh.write("".join(f"{t}\n" for t in range(len(edges))))
    return paths


def write_params(path: str, arrivals: int) -> None:
    params = {
        "n": arrivals,
        "sizes": {str(k): v for k, v in PA_SIZES.items()},
        "new_edges": {str(k): v for k, v in PA_NEW_EDGES.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(params, fh, indent=2, sort_keys=True)


def digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digests(paths: list[str], root: str) -> dict[str, str]:
    return {os.path.relpath(p, root): digest(p) for p in sorted(paths)}


def _subset_keys(block: np.ndarray, k: int, base: int) -> np.ndarray:
    """One int64 key per k-subset of every row: its ids in base `base`."""
    cols = np.array(list(combinations(range(block.shape[1]), k)), dtype=np.int64)
    subsets = block[:, cols]
    keys = np.zeros(subsets.shape[:2], dtype=np.int64)
    for j in range(k):
        keys = keys * base + subsets[:, :, j]
    return keys


def _distinct(keys: np.ndarray) -> np.ndarray:
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if keys.size else keys


def capped_level_counts(
    blocks: list[np.ndarray], level: int, cap: int, id_range: int
) -> tuple[int, int]:
    """Node and edge counts of the capped level-k decomposition.

    Nodes are the distinct k-subsets of hyperedges of size k..cap; edges are
    the distinct pairs of distinct such subsets inside one hyperedge.
    """
    if level * int(id_range).bit_length() > 62:
        raise ValueError("subset keys would overflow int64")
    kept = [b for b in blocks if level <= b.shape[1] <= cap]
    per_block = [_subset_keys(b, level, id_range) for b in kept]
    if not per_block:
        return 0, 0
    nodes = _distinct(np.concatenate([keys.ravel() for keys in per_block]))
    pairs = []
    for keys in per_block:
        if keys.shape[1] >= 2:
            ids = np.searchsorted(nodes, keys)
            iu, iv = np.triu_indices(keys.shape[1], 1)
            pairs.append((ids[:, iu] * nodes.size + ids[:, iv]).ravel())
    edges = _distinct(np.concatenate(pairs)).size if pairs else 0
    return int(nodes.size), int(edges)
