"""Readers, writers, and report serialization.

Supports the three-file simplex format (sizes, member stream, timestamps),
a one-hyperedge-per-line text format, a weighted decomposed-graph format
that survives a recovery round trip, and JSON reports with TSV sidecars
for distributions. Parse errors carry the file and line they came from.
"""

from __future__ import annotations

import json
import math
from array import array
from typing import Iterable, Mapping

import numpy as np

from .core import (
    DecomposedGraph,
    FlatRows,
    Hypergraph,
    KSubset,
    WeightedDecomposedGraph,
    canonicalize,
    first_appearance,
    rank_rows,
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


def _int64(tok: str, path: str, lineno: int, what: str, low: int) -> int:
    """The value of an integer token, which must lie in low..2**63 - 1:
    ids, timestamps, weights and counts are stored as int64."""
    try:
        value = int(tok)
    except ValueError:
        raise FormatError(path, lineno, f"expected {what}, got {tok!r}") from None
    if not low <= value < 2**63:
        shown = "-2**63" if low == -(2**63) else low
        raise FormatError(path, lineno, f"{what} {value} is outside {shown}..2**63 - 1")
    return value


# Lines are parsed about this many characters at a time; a token never spans
# lines, so no block boundary splits one.
_READ_BLOCK = 1 << 20


def _int_array(path: str, what: str, low: int) -> tuple[np.ndarray, int]:
    """Every integer token of a file (commas are separators) and the line of
    the last one, or 1 if there is none. The file is read once, a block of
    lines at a time. A block that fails the bulk parse, or holds a value
    below `low`, is parsed again token by token to name the file and line of
    its first bad token; every earlier block passed both checks, so that
    token is the file's first."""
    blocks = [np.empty(0, np.int64)]
    seen, last = 0, 1  # lines read, and the last of them that holds a token
    with _open_input(path) as fh:
        for lines in iter(lambda: fh.readlines(_READ_BLOCK), []):
            toks = "".join(lines).replace(",", " ").split()
            try:
                block = np.fromiter(map(int, toks), np.int64, len(toks))
            except (ValueError, OverflowError):  # not an integer, or outside int64
                block = None
            if block is None or block.min(initial=low) < low:
                for lineno, line in enumerate(lines, start=seen + 1):
                    for tok in line.replace(",", " ").split():
                        _int64(tok, path, lineno, what, low)
                raise AssertionError(f"{path}: a token failed the bulk parse but not _int64")
            blocks.append(block)
            if toks:  # found from the block's end, usually at its last line
                last = seen + next(
                    i for i in range(len(lines), 0, -1) if lines[i - 1].replace(",", " ").split()
                )
            seen += len(lines)
    return np.concatenate(blocks), last


def read_simplex_format(
    nverts_path: str, simplices_path: str, times_path: str
) -> tuple[Hypergraph, np.ndarray]:
    """Parse the size/member-stream/timestamp triple of files.

    Node ids are remapped densely in order of first appearance; entry i of
    the returned int64 array is the original id of dense id i. Hyperedges
    keep their input order and may repeat.
    """
    sizes = _int_array(nverts_path, "a hyperedge size", low=1)[0]
    members, members_end = _int_array(simplices_path, "a node id", low=0)
    times, times_end = _int_array(times_path, "a timestamp", low=-(2**63))
    if len(times) != len(sizes):
        raise FormatError(
            times_path, times_end, f"{len(times)} timestamps for {len(sizes)} hyperedges"
        )
    total = sum(sizes.tolist())  # exact: an int64 sum of sizes could wrap
    if total != len(members):
        raise FormatError(
            simplices_path,
            members_end,
            f"member stream has {len(members)} entries, sizes sum to {total}",
        )

    ids, dense = first_appearance(members)
    offsets = np.append(0, np.cumsum(sizes))
    return canonicalize(FlatRows(offsets, dense), timestamps=times), ids


def read_line_format(path: str) -> Hypergraph:
    """One hyperedge per line: node ids, then an optional final t=<int>.

    Either every hyperedge carries t= or none does; the first line that
    differs from the first hyperedge is an error.
    """
    # Every value is checked here, so the rows go to canonicalize as FlatRows.
    members, sizes, stamps = array("q"), array("q"), array("q")
    timed: bool | None = None
    with _open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            toks = line.split()
            if not toks or toks[0].startswith("#"):
                continue
            ts: int | None = None
            if toks[-1].startswith("t="):
                ts = _int64(toks.pop()[2:], path, lineno, "a timestamp", low=-(2**63))
            if timed is None:
                timed = ts is not None
            elif timed != (ts is not None):
                raise FormatError(path, lineno, "either all or no hyperedges may carry t=")
            if not toks:
                raise FormatError(path, lineno, "hyperedge has no members")
            members.extend([_int64(tok, path, lineno, "a node id", low=0) for tok in toks])
            sizes.append(len(toks))
            if timed:
                stamps.append(ts)
    offsets = np.append(0, np.cumsum(np.frombuffer(sizes, np.int64)))
    rows = FlatRows(offsets, np.frombuffer(members, np.int64))
    return canonicalize(rows, timestamps=np.frombuffer(stamps, np.int64) if timed else None)


# Lines are formatted this many hyperedges, edges or node labels at a time,
# so that no Python list spans a whole array. A block's lines, their joined
# text and its encoding are all held at once: with 2**16 the peak RSS of a
# 480k-edge level-2 `decompose` was 3 MB higher, and larger blocks were no
# faster.
_WRITE_BLOCK = 2**10


def write_line_format(H: Hypergraph, path: str) -> None:
    """One hyperedge per line, `t=<timestamp>` last when there are timestamps."""
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, H.num_edges, _WRITE_BLOCK):
            bounds = H.offsets[start : start + _WRITE_BLOCK + 1]
            ids = list(map(str, H.members[bounds[0] : bounds[-1]].tolist()))
            at = (bounds - bounds[0]).tolist()
            lines = (" ".join(ids[a:b]) for a, b in zip(at[:-1], at[1:]))
            if H.timestamps is not None:
                stamps = H.timestamps[start : start + _WRITE_BLOCK].tolist()
                lines = (f"{line} t={t}" for line, t in zip(lines, stamps))
            fh.writelines(f"{line}\n" for line in lines)


def _parse_subset(tok: str, path: str, lineno: int) -> KSubset:
    try:
        parts = tuple(int(p) for p in tok.split("-"))
    except ValueError:  # "-" separates ids, so none can carry a sign
        raise FormatError(path, lineno, f"bad subset token {tok!r}")
    if tuple(sorted(set(parts))) != parts:
        raise FormatError(path, lineno, f"subset {tok!r} is not sorted and distinct")
    if parts[-1] >= 2**63:  # ids are stored as int64
        raise FormatError(path, lineno, f"subset {tok!r} has an id above 2**63 - 1")
    return parts


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
    labels = np.empty(len(base.nodes), object)
    for start in range(0, len(labels), _WRITE_BLOCK):
        columns = [map(str, col) for col in base.nodes[start : start + _WRITE_BLOCK].T.tolist()]
        labels[start : start + _WRITE_BLOCK] = list(map("-".join, zip(*columns)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# level={base.level}\n")
        for start in range(0, base.num_edges, _WRITE_BLOCK):
            fields = labels[base.edge_array[start : start + _WRITE_BLOCK]].T.tolist()
            if weights is not None:
                fields.append(map(str, weights[start : start + _WRITE_BLOCK].tolist()))
            fh.write("\n".join(map(" ".join, zip(*fields))))
            fh.write("\n")
        if weights is not None:
            fh.writelines(f"node {label}\n" for label in labels[base.degrees() == 0])
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
    edges = array("q")  # (u id, v id, weight, line) per edge, flat
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
                            value = int(tok[6:])
                        except ValueError:
                            raise FormatError(path, lineno, f"bad level {tok!r}")
                        # A row of `level` int64 ids must fit numpy's 2**63-byte limit.
                        if not 1 <= value < 2**60:
                            raise FormatError(path, lineno, f"level {value} not in 1..2**60 - 1")
                        if level is not None and value != level:
                            msg = f"level {value} conflicts with level {level} above"
                            raise FormatError(path, lineno, msg)
                        level = value
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
                count = _int64(toks[2], path, lineno, "a positive self-loop count", low=1)
                loops.append((s, count, lineno))
                continue
            if len(toks) != 3:
                raise FormatError(path, lineno, "edge lines take two subsets and a weight")
            u = subset_id(toks[0], lineno)
            v = subset_id(toks[1], lineno)
            edges.extend((u, v, _int64(toks[2], path, lineno, "a positive weight", low=1), lineno))
    if level is None:
        raise FormatError(path, 1, "missing '# level=<k>' header")

    for s, lineno in zip(subsets, first_lines):
        if len(s) != level:
            raise FormatError(path, lineno, f"subset {s} does not match level {level}")
    nodes, node_of = rank_rows(np.array(subsets, dtype=np.int64).reshape(-1, level))[:2]

    table = np.frombuffer(edges, dtype=np.int64).reshape(-1, 4)
    u, v, lines = node_of[table[:, 0]], node_of[table[:, 1]], table[:, 3]
    same = np.flatnonzero(u == v)
    if same.size:
        i = int(same[0])
        pair = tuple(nodes[u[i]].tolist())
        raise FormatError(path, int(lines[i]), f"self pair {pair} listed as an edge")
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = lo * len(nodes) + hi
    order = np.argsort(keys, kind="stable")  # lines rise, so a repeat follows its first line
    keys, lines = keys[order], lines[order]
    repeat = np.flatnonzero(keys[1:] == keys[:-1])
    if repeat.size:
        raise FormatError(path, int(lines[repeat + 1].min()), "duplicate edge listed")
    edge_array = np.stack([lo[order], hi[order]], axis=1)
    w_arr = table[order, 2]
    base = DecomposedGraph(level=level, nodes=nodes, edge_array=edge_array)
    self_loops: dict[int, int] = {}
    for s, count, lineno in loops:
        if level != 1:
            raise FormatError(path, lineno, "self-loops only belong to level 1")
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
