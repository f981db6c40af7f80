"""Readers, writers, and report serialization.

Supports the three-file simplex format (sizes, member stream, timestamps),
a one-hyperedge-per-line text format, a weighted decomposed-graph format
that survives a recovery round trip, and JSON reports with TSV sidecars
for distributions. Parse errors carry the file and line they came from.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping

import numpy as np

from .core import (
    DecomposedGraph,
    Hyperedge,
    Hypergraph,
    KSubset,
    ValidationError,
    WeightedDecomposedGraph,
    canonicalize,
)

__all__ = [
    "FormatError",
    "read_simplex_format",
    "read_line_format",
    "write_line_format",
    "read_weighted_graph",
    "write_decomposed_graph",
    "write_weighted_graph",
    "write_report",
    "read_report",
    "write_histogram_tsv",
    "write_spectrum_tsv",
    "format_float",
]


class FormatError(ValueError):
    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def _open_input(path: str):
    """Open a text input. Bytes that are not UTF-8 become lone surrogates,
    so the token holding them fails its own parse and reports file:line."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def _int_tokens(path: str) -> list[tuple[int, int]]:
    """(value, line_number) for every integer token; commas are separators."""
    out: list[tuple[int, int]] = []
    with _open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            for tok in line.replace(",", " ").split():
                try:
                    out.append((int(tok), lineno))
                except ValueError:
                    raise FormatError(path, lineno, f"expected an integer, got {tok!r}")
    return out


def read_simplex_format(
    nverts_path: str, simplices_path: str, times_path: str
) -> tuple[Hypergraph, dict[int, int]]:
    """Parse the size/member-stream/timestamp triple of files.

    Node ids are remapped densely in order of first appearance; the
    returned dict maps original id to dense id. Hyperedges keep their
    input order and may repeat.
    """
    sizes = _int_tokens(nverts_path)
    members = _int_tokens(simplices_path)
    times = _int_tokens(times_path)
    if len(times) != len(sizes):
        raise FormatError(
            times_path,
            times[-1][1] if times else 1,
            f"{len(times)} timestamps for {len(sizes)} hyperedges",
        )
    total = sum(s for s, _ in sizes)
    if total != len(members):
        raise FormatError(
            simplices_path,
            members[-1][1] if members else 1,
            f"member stream has {len(members)} entries, sizes sum to {total}",
        )

    id_map: dict[int, int] = {}
    raw_edges: list[list[int]] = []
    pos = 0
    for (size, lineno) in sizes:
        if size < 1:
            raise FormatError(nverts_path, lineno, f"hyperedge size {size} < 1")
        edge = []
        for value, member_line in members[pos : pos + size]:
            if value < 0:
                raise FormatError(simplices_path, member_line, f"negative node id {value}")
            if value not in id_map:
                id_map[value] = len(id_map)
            edge.append(id_map[value])
        raw_edges.append(edge)
        pos += size
    H = canonicalize(raw_edges, timestamps=[t for t, _ in times])
    return H, id_map


def read_line_format(path: str, n: int | None = None) -> Hypergraph:
    """One hyperedge per line: node ids, then an optional final t=<int>.

    Either every hyperedge carries t= or none does; the first line that
    differs from the first hyperedge is an error.
    """
    raw_edges: list[list[int]] = []
    timestamps: list[int | None] = []
    timed: bool | None = None
    with _open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            toks = line.split()
            if not toks or toks[0].startswith("#"):
                continue
            ts: int | None = None
            if toks[-1].startswith("t="):
                try:
                    ts = int(toks[-1][2:])
                except ValueError:
                    raise FormatError(path, lineno, f"bad timestamp {toks[-1]!r}")
                toks = toks[:-1]
            if timed is None:
                timed = ts is not None
            elif timed != (ts is not None):
                raise FormatError(path, lineno, "either all or no hyperedges may carry t=")
            if not toks:
                raise FormatError(path, lineno, "hyperedge has no members")
            edge = []
            for tok in toks:
                try:
                    v = int(tok)
                except ValueError:
                    raise FormatError(path, lineno, f"expected a node id, got {tok!r}")
                if v < 0:
                    raise FormatError(path, lineno, f"negative node id {v}")
                edge.append(v)
            raw_edges.append(edge)
            timestamps.append(ts)
    stamps = timestamps if timed else None
    return canonicalize(raw_edges, n=n, timestamps=stamps)  # type: ignore[arg-type]


def write_line_format(H: Hypergraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in H.edges:
            line = " ".join(str(v) for v in e.members)
            if e.timestamp is not None:
                line += f" t={e.timestamp}"
            fh.write(line + "\n")


def _parse_subset(tok: str, path: str, lineno: int) -> KSubset:
    try:
        parts = tuple(int(p) for p in tok.split("-"))
    except ValueError:
        raise FormatError(path, lineno, f"bad subset token {tok!r}")
    if not parts or any(p < 0 for p in parts):
        raise FormatError(path, lineno, f"bad subset token {tok!r}")
    if tuple(sorted(set(parts))) != parts:
        raise FormatError(path, lineno, f"subset {tok!r} is not sorted and distinct")
    if parts[-1] >= 2**63:  # ids are stored as int64
        raise FormatError(path, lineno, f"subset {tok!r} has an id above 2**63 - 1")
    return parts


# Edges are formatted this many rows at a time, so that no Python list
# spans the whole edge array.
_WRITE_BLOCK = 2**16


def _write_edges(
    base: DecomposedGraph,
    path: str,
    weights: np.ndarray | None = None,
    self_loops: Mapping[int, int] | None = None,
) -> None:
    """Level header, one edge per line, then self-loops.

    With weights, each edge line ends in its weight and a `node` line lists
    every node that lies on no edge, so the file keeps all of the nodes.
    """
    labels = ["-".join(map(str, s)) for s in base.nodes.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# level={base.level}\n")
        for start in range(0, base.num_edges, _WRITE_BLOCK):
            us, vs = base.edge_array[start : start + _WRITE_BLOCK].T.tolist()
            if weights is None:
                fh.writelines(f"{labels[u]} {labels[v]}\n" for u, v in zip(us, vs))
            else:
                ws = weights[start : start + _WRITE_BLOCK].tolist()
                fh.writelines(f"{labels[u]} {labels[v]} {w}\n" for u, v, w in zip(us, vs, ws))
        if weights is not None:
            lone = np.flatnonzero(base.degrees() == 0).tolist()
            fh.writelines(f"node {labels[i]}\n" for i in lone)
        for node_idx, count in sorted((self_loops or {}).items()):
            fh.write(f"selfloop {labels[node_idx]} {count}\n")


def write_decomposed_graph(G: DecomposedGraph, path: str) -> None:
    """Level header, then one unweighted edge per line."""
    _write_edges(G, path)


def write_weighted_graph(G: WeightedDecomposedGraph, path: str) -> None:
    """Level header, weighted edge lines, `node` lines, then self-loop lines."""
    _write_edges(G.base, path, G.weights, G.self_loops)


def read_weighted_graph(path: str) -> WeightedDecomposedGraph:
    """Parse a file written by `write_weighted_graph`; errors carry path:line."""
    level: int | None = None
    # Each distinct subset token is parsed once; ids follow first appearance.
    token_ids: dict[str, int] = {}
    subsets: list[KSubset] = []
    first_lines: list[int] = []
    edges: list[tuple[int, int, int, int]] = []  # (u id, v id, weight, line)
    loops: list[tuple[int, int, int]] = []  # (subset id, count, line)

    def subset_id(tok: str, lineno: int) -> int:
        i = token_ids.get(tok)
        if i is None:
            i = token_ids[tok] = len(subsets)
            subsets.append(_parse_subset(tok, path, lineno))
            first_lines.append(lineno)
        return i

    with _open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            toks = line.split()
            if not toks:
                continue
            if toks[0] == "#":
                for tok in toks[1:]:
                    if tok.startswith("level="):
                        try:
                            level = int(tok[6:])
                        except ValueError:
                            raise FormatError(path, lineno, f"bad level {tok!r}")
                        # A row of `level` int64 ids must fit numpy's 2**63-byte limit.
                        if not 1 <= level < 2**60:
                            raise FormatError(path, lineno, f"level {level} not in 1..2**60 - 1")
                continue
            if toks[0] == "node":
                if len(toks) != 2:
                    raise FormatError(path, lineno, "node lines take one subset")
                subset_id(toks[1], lineno)
                continue
            if toks[0] == "selfloop":
                if len(toks) != 3:
                    raise FormatError(path, lineno, "selfloop lines take subset and count")
                s = subset_id(toks[1], lineno)
                try:
                    count = int(toks[2])
                except ValueError:
                    raise FormatError(path, lineno, f"bad count {toks[2]!r}")
                loops.append((s, count, lineno))
                continue
            if len(toks) != 3:
                raise FormatError(path, lineno, "edge lines take two subsets and a weight")
            u = subset_id(toks[0], lineno)
            v = subset_id(toks[1], lineno)
            try:
                w = int(toks[2])
            except ValueError:
                raise FormatError(path, lineno, f"bad weight {toks[2]!r}")
            if not 1 <= w < 2**63:
                raise FormatError(path, lineno, f"weight must be positive and < 2**63, got {w}")
            edges.append((u, v, w, lineno))
    if level is None:
        raise FormatError(path, 1, "missing '# level=<k>' header")

    for s, lineno in zip(subsets, first_lines):
        if len(s) != level:
            raise FormatError(path, lineno, f"subset {s} does not match level {level}")
    rows = np.array(subsets, dtype=np.int64).reshape(-1, level)
    nodes, node_of = rows, np.empty(0, dtype=np.int64)
    if subsets:  # np.unique(axis=0) builds one field per column, even for no rows
        nodes, inverse = np.unique(rows, axis=0, return_inverse=True)
        node_of = inverse.ravel()

    table = np.array(edges, dtype=np.int64).reshape(-1, 4)
    u, v, lines = node_of[table[:, 0]], node_of[table[:, 1]], table[:, 3]
    same = np.flatnonzero(u == v)
    if same.size:
        i = int(same[0])
        pair = tuple(nodes[u[i]].tolist())
        raise FormatError(path, int(lines[i]), f"self pair {pair} listed as an edge")
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((lines, hi, lo))
    lo, hi, lines = lo[order], hi[order], lines[order]
    repeat = np.flatnonzero((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1]))
    if repeat.size:
        raise FormatError(path, int(lines[repeat + 1].min()), "duplicate edge listed")
    edge_array = np.stack([lo, hi], axis=1)
    w_arr = table[order, 2]
    base = DecomposedGraph(level=level, nodes=nodes, edge_array=edge_array)
    self_loops: dict[int, int] = {}
    for s, count, lineno in loops:
        if level != 1:
            raise FormatError(path, lineno, "self-loops only belong to level 1")
        if count < 1:
            raise FormatError(path, lineno, f"self-loop count {count} must be positive")
        node = int(node_of[s])
        self_loops[node] = self_loops.get(node, 0) + count
    return WeightedDecomposedGraph(base=base, weights=w_arr, self_loops=self_loops)


def format_float(x: float) -> float:
    """Round to 6 significant digits for stable report output."""
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.6g}")


def _round_floats(obj):
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_report(obj, path: str) -> None:
    """Serialize a report dict (or object with to_dict) as stable JSON."""
    data = obj.to_dict() if hasattr(obj, "to_dict") else obj
    data = _round_floats(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report(path: str) -> dict:
    """Parse a JSON file; a syntax error raises FormatError at its line, and
    nesting too deep for the parser raises it at line 1."""
    with _open_input(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(path, exc.lineno, exc.msg)
        except RecursionError:
            raise FormatError(path, 1, "JSON nesting is too deep")


def write_histogram_tsv(hist: Mapping[int, int], path: str) -> None:
    """Degree histogram sidecar: value <tab> count, ascending."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("value\tcount\n")
        for value in sorted(hist):
            fh.write(f"{value}\t{hist[value]}\n")


def write_spectrum_tsv(values: Iterable[float], path: str) -> None:
    """Singular-value sidecar: rank <tab> value, descending values."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rank\tvalue\n")
        for rank, value in enumerate(values, start=1):
            fh.write(f"{rank}\t{format_float(float(value))}\n")
