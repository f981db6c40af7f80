"""File formats: parsing, error positions, and round trips."""

import math
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperdecomp.io as io_mod
from hyperdecomp import (
    FormatError,
    RecoveryError,
    canonicalize,
    decompose_weighted,
    format_float,
    read_line_format,
    read_report,
    read_simplex_format,
    read_weighted_graph,
    recover,
    write_decomposed_graph,
    write_histogram_tsv,
    write_line_format,
    write_report,
    write_spectrum_tsv,
    write_weighted_graph,
)

from conftest import random_hypergraph


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def simplex_triple(tmp_path, nverts, simplices, times):
    return (
        write(tmp_path / "x-nverts.txt", nverts),
        write(tmp_path / "x-simplices.txt", simplices),
        write(tmp_path / "x-times.txt", times),
    )


# --- simplex triple --------------------------------------------------------


def test_simplex_read_remaps_ids_by_first_appearance(tmp_path):
    paths = simplex_triple(tmp_path, "2\n3\n1\n", "7\n9\n9 3 7\n5\n", "10\n20\n30\n")
    H, ids = read_simplex_format(*paths)
    assert ids.dtype == np.int64 and ids.tolist() == [7, 9, 3, 5]
    assert H.n == 4
    assert H.member_tuples() == [(0, 1), (0, 1, 2), (3,)]
    # The id array maps each hyperedge back to the ids it was read with.
    assert [sorted(ids[list(e)].tolist()) for e in H.member_tuples()] == [[7, 9], [3, 7, 9], [5]]
    assert [e.timestamp for e in H.edges] == [10, 20, 30]


def test_simplex_read_accepts_commas_and_single_line(tmp_path):
    paths = simplex_triple(tmp_path, "2,2", "0, 1, 1, 2", "5, 5")
    H, _ = read_simplex_format(*paths)
    assert H.member_tuples() == [(0, 1), (1, 2)]


def test_simplex_member_count_mismatch_names_file_and_line(tmp_path):
    paths = simplex_triple(tmp_path, "2\n2\n", "0 1\n2\n", "1\n2\n")
    with pytest.raises(FormatError) as exc:
        read_simplex_format(*paths)
    assert exc.value.path.endswith("x-simplices.txt")
    assert exc.value.line == 2
    assert "sizes sum to 4" in str(exc.value)


def test_simplex_times_count_mismatch(tmp_path):
    paths = simplex_triple(tmp_path, "1\n1\n", "0\n1\n", "3\n")
    with pytest.raises(FormatError) as exc:
        read_simplex_format(*paths)
    assert exc.value.path.endswith("x-times.txt")


def test_simplex_non_integer_token(tmp_path):
    paths = simplex_triple(tmp_path, "1\n", "zero\n", "1\n")
    with pytest.raises(FormatError) as exc:
        read_simplex_format(*paths)
    assert "'zero'" in str(exc.value)
    assert exc.value.line == 1


def test_simplex_negative_id_and_bad_size(tmp_path):
    paths = simplex_triple(tmp_path, "1\n", "-4\n", "1\n")
    with pytest.raises(FormatError) as exc:
        read_simplex_format(*paths)
    assert "-4" in str(exc.value)
    paths = simplex_triple(tmp_path, "0\n", "", "1\n")
    with pytest.raises(FormatError) as exc:
        read_simplex_format(*paths)
    assert "size 0" in str(exc.value)


def test_simplex_values_beyond_int64_name_their_line(tmp_path):
    for bad in (2**63, -(2**63) - 1):
        paths = simplex_triple(tmp_path, "1\n1\n", "0\n1\n", f"5\n{bad}\n")
        with pytest.raises(FormatError, match=f":2: a timestamp {bad} is outside") as exc:
            read_simplex_format(*paths)
        assert exc.value.path.endswith("x-times.txt")
    paths = simplex_triple(tmp_path, "2\n", f"0\n{2**63}\n", "5\n")
    with pytest.raises(FormatError, match=f":2: a node id {2**63} is outside") as exc:
        read_simplex_format(*paths)
    assert exc.value.path.endswith("x-simplices.txt")
    paths = simplex_triple(tmp_path, "2\n", f"{2**63 - 1} 0\n", f"{-(2**63)}\n")
    H, ids = read_simplex_format(*paths)
    assert ids.tolist() == [2**63 - 1, 0] and H.timestamps.tolist() == [-(2**63)]
    assert ids[H.members].tolist() == [2**63 - 1, 0]


# The per-token simplex reader that the bulk one replaced, kept as an oracle.


def _oracle_int64(tok, path, lineno, what, low):
    try:
        value = int(tok)
    except ValueError:
        raise FormatError(path, lineno, f"expected {what}, got {tok!r}") from None
    if not low <= value < 2**63:
        shown = "-2**63" if low == -(2**63) else low
        raise FormatError(path, lineno, f"{what} {value} is outside {shown}..2**63 - 1")
    return value


def _oracle_int_tokens(path, what, low):
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return [
            (_oracle_int64(tok, path, lineno, what, low), lineno)
            for lineno, line in enumerate(fh, start=1)
            for tok in line.replace(",", " ").split()
        ]


def oracle_read_simplex(nverts_path, simplices_path, times_path):
    sizes = _oracle_int_tokens(nverts_path, "a hyperedge size", low=1)
    members = _oracle_int_tokens(simplices_path, "a node id", low=0)
    times = _oracle_int_tokens(times_path, "a timestamp", low=-(2**63))
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
    id_map = {}
    dense = [id_map.setdefault(value, len(id_map)) for value, _ in members]
    starts = list(accumulate((size for size, _ in sizes), initial=0))
    raw_edges = [dense[a:b] for a, b in zip(starts[:-1], starts[1:])]
    return canonicalize(raw_edges, timestamps=[t for t, _ in times]), list(id_map)


def _outcome(read, paths):
    try:
        H, ids = read(*paths)
    except FormatError as exc:
        return ("error", exc.path, exc.line, str(exc))
    return ("parsed", H, list(ids))


def assert_matches_simplex_oracle(paths):
    got = _outcome(read_simplex_format, paths)
    assert got == _outcome(oracle_read_simplex, paths)
    if got[0] == "error":
        assert got[1] in paths and got[2] >= 1


def _render(tokens, seps):
    """Tokens joined by the drawn separators, each file ending in a newline."""
    return "".join(tok + sep for tok, sep in zip(tokens, seps)) + "\n"


_SEPARATORS = st.sampled_from([" ", "\n", ",", ", ", " ,", "\n\n", "\t", ",\n", "\n \n"])
_ODD_TOKENS = st.sampled_from(
    ["x", "-1", "0", "+5", "1_000", "\u0663", "1.5", str(2**63), str(-(2**63) - 1), "\udcff"]
)


@st.composite
def simplex_texts(draw, odd):
    """Three simplex-format texts; with `odd`, some tokens may be malformed,
    out of range or may break the size and timestamp counts."""
    edges = draw(st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=5), max_size=12))
    ids = draw(st.sampled_from([[0, 1], [10**6, 2**63 - 1], list(range(13))]))
    stamps = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=len(edges),
                           max_size=len(edges)))
    files = [
        [str(len(e)) for e in edges],
        [str(ids[v % len(ids)]) for e in edges for v in e],
        [str(t) for t in stamps],
    ]
    if odd:
        for toks in files:
            for _ in range(draw(st.integers(0, 2))):
                if toks and draw(st.booleans()):
                    toks[draw(st.integers(0, len(toks) - 1))] = draw(_ODD_TOKENS)
                else:
                    toks.insert(draw(st.integers(0, len(toks))), draw(_ODD_TOKENS))
    return [_render(toks, draw(st.lists(_SEPARATORS, min_size=len(toks), max_size=len(toks))))
            for toks in files]


def _write_triple(folder, texts):
    paths = [folder / f"oracle-{part}.txt" for part in ("nverts", "simplices", "times")]
    for path, text in zip(paths, texts):
        path.write_text(text, encoding="utf-8", errors="surrogateescape")
    return [str(p) for p in paths]


@settings(max_examples=150, deadline=None)
@given(texts=simplex_texts(odd=False), block=st.sampled_from([1, 5, 64, 1 << 20]))
def test_simplex_bulk_reader_matches_the_per_token_oracle(tmp_path_factory, texts, block):
    paths = _write_triple(tmp_path_factory.getbasetemp(), texts)
    with mock.patch.object(io_mod, "_READ_BLOCK", block):
        got = _outcome(read_simplex_format, paths)
    assert got[0] == "parsed"
    assert got == _outcome(oracle_read_simplex, paths)


@settings(max_examples=150, deadline=None)
@given(texts=simplex_texts(odd=True), block=st.sampled_from([1, 5, 1 << 20]))
def test_simplex_bulk_reader_errors_match_the_oracle(tmp_path_factory, texts, block):
    paths = _write_triple(tmp_path_factory.getbasetemp(), texts)
    with mock.patch.object(io_mod, "_READ_BLOCK", block):
        assert_matches_simplex_oracle(paths)


def test_simplex_bulk_reader_accepts_what_int_accepts(tmp_path):
    paths = simplex_triple(tmp_path, "+2\n0_1\n", "\u0663 1_000\n7\n", "-0\n+5\n")
    H, ids = read_simplex_format(*paths)
    assert ids.tolist() == [3, 1000, 7]
    assert H.member_tuples() == [(0, 1), (2,)] and H.timestamps.tolist() == [0, 5]


def test_simplex_count_errors_name_the_last_token_line(tmp_path):
    paths = simplex_triple(tmp_path, "1\n1\n", "0\n1\n\n, ,\n", "3\n\n4 5\n\n")
    with pytest.raises(FormatError, match=r"x-times.txt:3: 3 timestamps for 2") as exc:
        read_simplex_format(*paths)
    paths = simplex_triple(tmp_path, "2\n", "0,\n\n", "\n")
    with pytest.raises(FormatError, match=r"x-times.txt:1: 0 timestamps for 1"):
        read_simplex_format(*paths)
    paths = simplex_triple(tmp_path, "2\n", ",\n\n", "9\n")
    with pytest.raises(FormatError, match=r"x-simplices.txt:1: member stream has 0 entries"):
        read_simplex_format(*paths)
    big = 2**63 - 1
    paths = simplex_triple(tmp_path, f"{big}\n{big}\n", "0\n", "1\n2\n")
    with pytest.raises(FormatError, match=f":1: member stream has 1 entries, sizes sum to {2 * big}"):
        read_simplex_format(*paths)


@pytest.mark.parametrize(
    "texts, error",
    [
        (("2\n1\n", "0 1\n2\n", "5\n6\n"), None),
        (("2\n1\n", "0 1\n2x\n", "5\n6\n"), "x-simplices.txt:2: expected a node id"),
        (("2\n1\n", "0 1\n2\n", "5\n\n"), "x-times.txt:1: 1 timestamps for 2"),
        (("2\n1\n", "0 1\n\n", "5\n6\n"), "x-simplices.txt:1: member stream has 2 entries"),
    ],
    ids=["good", "bad-member", "short-times", "short-members"],
)
def test_simplex_reader_opens_each_file_once(tmp_path, texts, error):
    paths = simplex_triple(tmp_path, *texts)
    opened, real_open = [], io_mod._open_input

    def counting_open(path):
        opened.append(path)
        return real_open(path)

    with mock.patch.object(io_mod, "_open_input", counting_open):
        if error is None:
            read_simplex_format(*paths)
        else:
            with pytest.raises(FormatError, match=error):
                read_simplex_format(*paths)
    assert len(opened) == len(set(opened)) and set(opened) <= set(paths)


# --- line format -----------------------------------------------------------


def test_line_format_roundtrip(tmp_path):
    H = canonicalize([[4, 0, 2], [1], [1, 3]], timestamps=[9, 8, 7])
    p = tmp_path / "h.txt"
    write_line_format(H, str(p))
    back = read_line_format(str(p))
    assert back == H


def test_line_format_skips_comments_and_blanks(tmp_path):
    p = write(tmp_path / "h.txt", "# header\n\n0 1\n# trailing\n2\n")
    H = read_line_format(p)
    assert H.member_tuples() == [(0, 1), (2,)]
    assert all(e.timestamp is None for e in H.edges)


def test_line_format_parses_timestamps(tmp_path):
    p = write(tmp_path / "h.txt", "0 1 t=5\n2 t=-3\n")
    H = read_line_format(p)
    assert [e.timestamp for e in H.edges] == [5, -3]


def test_line_format_values_beyond_int64_name_their_line(tmp_path):
    cases = [("0 1", f"0 {2**63}", "a node id"), ("0 1 t=1", f"0 t={2**63}", "a timestamp")]
    cases.append(("0 1 t=1", f"0 t={-(2**63) - 1}", "a timestamp"))
    for first, bad, what in cases:
        p = write(tmp_path / "h.txt", f"{first}\n{bad}\n")
        with pytest.raises(FormatError, match=f":2: {what} -?[0-9]+ is outside") as exc:
            read_line_format(p)
        assert exc.value.path == p
    p = write(tmp_path / "h.txt", f"{2**63 - 1} t={-(2**63)}\n")
    assert read_line_format(p).timestamps.tolist() == [-(2**63)]


def test_line_format_rejects_partial_timestamps(tmp_path):
    p = write(tmp_path / "h.txt", "0 1 t=5\n2\n")
    with pytest.raises(FormatError) as exc:
        read_line_format(p)
    assert "all or no" in str(exc.value)
    assert exc.value.line == 2
    p = write(tmp_path / "h2.txt", "# c\n\n0 1 t=5\n2\n")
    with pytest.raises(FormatError) as exc:
        read_line_format(p)
    assert exc.value.line == 4


def test_line_format_bad_tokens(tmp_path):
    p = write(tmp_path / "h.txt", "0 one\n")
    with pytest.raises(FormatError) as exc:
        read_line_format(p)
    assert exc.value.line == 1
    p = write(tmp_path / "h2.txt", "0 -1\n")
    with pytest.raises(FormatError):
        read_line_format(p)
    p = write(tmp_path / "h3.txt", "t=4\n")
    with pytest.raises(FormatError) as exc:
        read_line_format(p)
    assert "no members" in str(exc.value)
    p = write(tmp_path / "h4.txt", "1 t=soon\n")
    with pytest.raises(FormatError):
        read_line_format(p)


# --- weighted graph --------------------------------------------------------


def test_weighted_graph_roundtrip(tmp_path):
    H = canonicalize([[0], [0], [0, 1, 2], [1, 2, 3], [1, 2, 3]])
    for level in (1, 2):
        G = decompose_weighted(H, level)
        p = str(tmp_path / f"g{level}.txt")
        write_weighted_graph(G, p)
        back = read_weighted_graph(p)
        assert back.base.level == G.base.level
        assert np.array_equal(back.base.nodes, G.base.nodes)
        assert np.array_equal(back.base.edge_array, G.base.edge_array)
        assert np.array_equal(back.weights, G.weights)
        assert back.self_loops == G.self_loops


def test_weighted_graph_files_feed_recovery(tmp_path):
    H = canonicalize([[0], [0, 1, 2, 3], [1, 2], [1, 2]])
    graphs = {}
    for level in (1, 2, 3):
        p = str(tmp_path / f"g{level}.txt")
        write_weighted_graph(decompose_weighted(H, level), p)
        graphs[level] = read_weighted_graph(p)
    R = recover(graphs)
    assert sorted(R.member_tuples()) == sorted(H.member_tuples())


def test_weighted_graph_files_keep_nodes_on_no_edge(tmp_path):
    # At level 2 the three pairs are nodes that lie on no edge.
    H = canonicalize([[0, 1, 2], [1, 2, 3], [3, 4], [0, 4], [2, 4], [5]])
    graphs = {}
    for level in (1, 2, 3):
        G = decompose_weighted(H, level)
        p = str(tmp_path / f"g{level}.txt")
        write_weighted_graph(G, p)
        back = graphs[level] = read_weighted_graph(p)
        assert back.base.nodes.tolist() == G.base.nodes.tolist()
        assert np.array_equal(back.base.edge_array, G.base.edge_array)
        assert np.array_equal(back.weights, G.weights)
        assert back.self_loops == G.self_loops
    assert graphs[2].base.num_nodes == 8
    assert "node 0-4\nnode 2-4\nnode 3-4\n" in (tmp_path / "g2.txt").read_text()
    in_memory = recover({k: decompose_weighted(H, k) for k in (1, 2, 3)})
    assert recover(graphs).member_tuples() == in_memory.member_tuples()
    # A listed node that no hyperedge explains is now caught from files too.
    with open(tmp_path / "g2.txt", "a", encoding="utf-8") as fh:
        fh.write("node 1-4\n")
    graphs[2] = read_weighted_graph(str(tmp_path / "g2.txt"))
    with pytest.raises(RecoveryError, match="1, 4"):
        recover(graphs)


def test_weighted_graph_node_lines_are_checked(tmp_path):
    p = write(tmp_path / "g.txt", "# level=2\n0-1 1-2 1\nnode 3-4 5-6\n")
    with pytest.raises(FormatError) as exc:
        read_weighted_graph(p)
    assert "node lines" in str(exc.value)
    assert exc.value.line == 3
    p = write(tmp_path / "g2.txt", "# level=2\n0-1 1-2 1\nnode 3\n")
    with pytest.raises(FormatError) as exc:
        read_weighted_graph(p)
    assert "level 2" in str(exc.value)
    assert exc.value.line == 3


def test_weighted_graph_header_required(tmp_path):
    p = write(tmp_path / "g.txt", "0 1 2\n")
    with pytest.raises(FormatError) as exc:
        read_weighted_graph(p)
    assert "level=" in str(exc.value)
    assert exc.value.line == 1
    p = write(tmp_path / "g0.txt", "0 1 2\n# level=0\n")
    with pytest.raises(FormatError) as exc:
        read_weighted_graph(p)
    assert exc.value.line == 2
    p = write(tmp_path / "gx.txt", "# level=1\n# level=abc\n")
    with pytest.raises(FormatError, match="bad level 'level=abc'") as exc:
        read_weighted_graph(p)
    assert exc.value.line == 2
    # No subset can be that wide, and no int64 array can have that shape.
    p = write(tmp_path / "g9.txt", f"\n# level={2**63}\n")
    with pytest.raises(FormatError, match="2\\*\\*60") as exc:
        read_weighted_graph(p)
    assert exc.value.line == 2


def test_weighted_graph_conflicting_level_headers(tmp_path):
    p = write(tmp_path / "g.txt", "# level=1\n3 4 2\n# level=2\n")
    with pytest.raises(FormatError, match="level 2 conflicts with level 1") as exc:
        read_weighted_graph(p)
    assert exc.value.line == 3
    p = write(tmp_path / "g2.txt", "# level=2\n# level=2 level=1\n")
    with pytest.raises(FormatError) as exc:
        read_weighted_graph(p)
    assert exc.value.line == 2
    p = write(tmp_path / "g3.txt", "# level=1\n3 4 2\n# level=1\n# note level=1\n")
    G = read_weighted_graph(p)
    assert G.level == 1 and G.base.nodes.tolist() == [[3], [4]]


def test_weighted_graph_subset_errors(tmp_path):
    p = write(tmp_path / "g.txt", "# level=2\n1-0 0-2 1\n")
    with pytest.raises(FormatError) as exc:
        read_weighted_graph(p)
    assert "sorted" in str(exc.value)
    assert exc.value.line == 2
    p = write(tmp_path / "g2.txt", "# level=2\n0-0 0-1 1\n")
    with pytest.raises(FormatError) as exc:
        read_weighted_graph(p)
    assert exc.value.line == 2
    p = write(tmp_path / "g3.txt", "# level=2\n0-1-2 0-1 1\n")
    with pytest.raises(FormatError) as exc:
        read_weighted_graph(p)
    assert "level 2" in str(exc.value)
    assert exc.value.line == 2
    p = write(tmp_path / "g6.txt", f"# level=2\n0-1 1-2 1\nnode 1-{2**63}\n")
    with pytest.raises(FormatError, match="2\\*\\*63") as exc:
        read_weighted_graph(p)
    assert exc.value.line == 3
    p = write(tmp_path / "g5.txt", "# level=2\n0-1 1-2 1\n0-1-2 0-1 1\n")
    with pytest.raises(FormatError) as exc:
        read_weighted_graph(p)
    assert "level 2" in str(exc.value)
    assert exc.value.line == 3
    # A bad token is reported where it first appears.
    p = write(tmp_path / "g4.txt", "# level=1\n0 1 1\n2 0x 1\n0x 3 1\n")
    with pytest.raises(FormatError) as exc:
        read_weighted_graph(p)
    assert exc.value.line == 3


def test_weighted_graph_weight_and_structure_errors(tmp_path):
    p = write(tmp_path / "g.txt", "# level=1\n0 1 0\n")
    with pytest.raises(FormatError) as exc:
        read_weighted_graph(p)
    assert "positive" in str(exc.value)
    assert exc.value.line == 2
    p = write(tmp_path / "g1.txt", f"# level=1\n0 1 {2**63}\n")
    with pytest.raises(FormatError, match="2\\*\\*63") as exc:
        read_weighted_graph(p)
    assert exc.value.line == 2
    p = write(tmp_path / "g2.txt", "# level=1\n0 1 2\n1 0 1\n")
    with pytest.raises(FormatError) as exc:
        read_weighted_graph(p)
    assert "duplicate" in str(exc.value)
    assert exc.value.line == 3
    p = write(tmp_path / "g2b.txt", "# level=1\n0 1 2\n0 2 1\n1 0 1\n")
    with pytest.raises(FormatError) as exc:
        read_weighted_graph(p)
    assert "duplicate" in str(exc.value)
    assert exc.value.line == 4
    p = write(tmp_path / "g3.txt", "# level=1\n0 0 1\n")
    with pytest.raises(FormatError) as exc:
        read_weighted_graph(p)
    assert "self pair" in str(exc.value)
    assert exc.value.line == 2
    p = write(tmp_path / "g3b.txt", "# level=1\n0 1 1\n0 0 1\n")
    with pytest.raises(FormatError) as exc:
        read_weighted_graph(p)
    assert exc.value.line == 3
    p = write(tmp_path / "g4.txt", "# level=2\n0-1 1-2 1\nselfloop 0-1 2\n")
    with pytest.raises(FormatError) as exc:
        read_weighted_graph(p)
    assert "level 1" in str(exc.value)
    assert exc.value.line == 3
    p = write(tmp_path / "g5.txt", "# level=1\n0 1 1\nselfloop 0 2\nselfloop 1 0\n")
    with pytest.raises(FormatError) as exc:
        read_weighted_graph(p)
    assert "self-loop count" in str(exc.value)
    assert exc.value.line == 4


def test_decomposed_graph_writers_exact_bytes(tmp_path):
    H = canonicalize([[0], [0], [0, 1, 2], [1, 12]])
    G = decompose_weighted(H, 1)
    p = str(tmp_path / "w.txt")
    write_weighted_graph(G, p)
    assert open(p).read() == (
        "# level=1\n0 1 1\n0 2 1\n1 2 1\n1 12 1\nselfloop 0 2\n"
    )
    p = str(tmp_path / "u.txt")
    write_decomposed_graph(decompose_weighted(H, 2).base, p)
    assert open(p).read() == "# level=2\n0-1 0-2\n0-1 1-2\n0-2 1-2\n"


def test_edge_writers_bytes_do_not_depend_on_block_size(tmp_path, monkeypatch):
    H = canonicalize([[0], [0], [0, 1, 2], [1, 12], [3, 4, 5, 6], [7], [4, 5, 6]])
    graphs = {k: decompose_weighted(H, k) for k in (1, 2, 3)}

    def written(tag):
        out = []
        for k, G in graphs.items():
            write_weighted_graph(G, str(tmp_path / f"{tag}-w{k}"))
            write_decomposed_graph(G.base, str(tmp_path / f"{tag}-u{k}"))
            out += [(tmp_path / f"{tag}-{kind}{k}").read_bytes() for kind in "wu"]
        return out

    whole = written("whole")
    for block in (1, 2, 5):
        monkeypatch.setattr(io_mod, "_WRITE_BLOCK", block)
        assert written(f"block{block}") == whole


def reference_edge_file(G, weights=None, self_loops=None):
    """What the edge writers must produce, formatted one line at a time."""
    labels = ["-".join(str(i) for i in row) for row in G.nodes.tolist()]
    lines = [f"# level={G.level}"]
    for i, (u, v) in enumerate(G.edge_array.tolist()):
        lines.append(f"{labels[u]} {labels[v]}" + ("" if weights is None else f" {weights[i]}"))
    if weights is not None:
        on_edge = set(G.edge_array.ravel().tolist())
        lines += [f"node {label}" for i, label in enumerate(labels) if i not in on_edge]
    lines += [f"selfloop {labels[i]} {count}" for i, count in sorted((self_loops or {}).items())]
    return "".join(line + "\n" for line in lines)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), block=st.sampled_from([1, 3, 7, io_mod._WRITE_BLOCK]))
def test_edge_writers_match_a_per_line_reference(tmp_path_factory, seed, block):
    rng = np.random.default_rng(seed)
    H = random_hypergraph(rng, max_nodes=12, max_edge_size=6, max_edges=12)
    path = tmp_path_factory.getbasetemp() / "edge-writer.txt"
    with mock.patch.object(io_mod, "_WRITE_BLOCK", block):
        for level in (1, 2, 3, 4):
            G = decompose_weighted(H, level)
            write_weighted_graph(G, str(path))
            assert path.read_text() == reference_edge_file(G.base, G.weights, G.self_loops)
            write_decomposed_graph(G.base, str(path))
            assert path.read_text() == reference_edge_file(G.base)


def test_edge_writers_on_small_and_edgeless_graphs(tmp_path):
    H = canonicalize([[0], [0], [5], [3, 9]])
    cases = {1: "# level=1\n3 9 1\nnode 0\nnode 5\nselfloop 0 2\nselfloop 5 1\n",
             2: "# level=2\nnode 3-9\n", 3: "# level=3\n"}
    for level, want in cases.items():
        G = decompose_weighted(H, level)
        write_weighted_graph(G, str(tmp_path / "w.txt"))
        assert (tmp_path / "w.txt").read_text() == want
        assert want == reference_edge_file(G.base, G.weights, G.self_loops)
        write_decomposed_graph(G.base, str(tmp_path / "u.txt"))
        assert (tmp_path / "u.txt").read_text() == reference_edge_file(G.base)


def test_line_writer_bytes_do_not_depend_on_block_size(tmp_path, monkeypatch):
    raw = [[0], [0], [0, 1, 2], [1, 12], [3, 4, 5, 6], [7], [4, 5, 6]]
    graphs = [canonicalize(raw), canonicalize(raw, timestamps=[5, -1, 3, 2**63 - 1, 0, 0, 9])]

    def written(tag):
        for i, H in enumerate(graphs):
            write_line_format(H, str(tmp_path / f"{tag}-{i}"))
        return [(tmp_path / f"{tag}-{i}").read_bytes() for i in range(len(graphs))]

    whole = written("whole")
    assert whole[0] == b"0\n0\n0 1 2\n1 12\n3 4 5 6\n7\n4 5 6\n"
    assert whole[1].splitlines()[3] == f"1 12 t={2**63 - 1}".encode()
    for block in (1, 2, 5):
        monkeypatch.setattr(io_mod, "_WRITE_BLOCK", block)
        assert written(f"block{block}") == whole


# --- malformed input -------------------------------------------------------

# Each reader with one valid file for each path it takes.
_READERS = {
    "line": (read_line_format, ["0 1 t=3\n# note\n2 t=4\n"]),
    "weighted": (read_weighted_graph, ["# level=1\n0 1 2\n0 2 1\nnode 5\nselfloop 0 3\n"]),
    "simplex": (read_simplex_format, ["2\n1\n", "0 1\n2\n", "5\n6\n"]),
}
# Tokens on the edges of what the readers accept; b"\xff" is not UTF-8.
_EDGE_TOKENS = [
    tok.encode()
    for tok in [
        "-1", "0", "2", str(2**63 - 1), str(2**63), str(10**30), "1-0", "0-0", "0-1-2",
        "x", "1.5", "", "#", "node", "selfloop", "level=2", f"level={2**63}", "t=", "t=1",
        "+5", "1_000", "\u0663", "1,2", ",",
    ]
] + [b"\xff"]


def _parses_or_raises_format_error(read, paths):
    """Every reader raises only FormatErrors that name a line of one of its
    files; the simplex reader must also do exactly what its oracle does."""
    if read is read_simplex_format:
        assert_matches_simplex_oracle(paths)
    try:
        read(*paths)
    except FormatError as exc:
        assert exc.path in paths and exc.line >= 1
        assert str(exc).startswith(f"{exc.path}:{exc.line}: ")


@pytest.mark.parametrize("name", sorted(_READERS))
def test_single_token_mutants_raise_only_format_errors(tmp_path, name):
    read, seeds = _READERS[name]
    seeds = [seed.encode() for seed in seeds]
    for k, seed in enumerate(seeds):
        lines = [line.split(b" ") for line in seed.splitlines()]
        for i, line in enumerate(lines):
            for j in range(len(line)):
                for tok in _EDGE_TOKENS:
                    mutant = [list(toks) for toks in lines]
                    mutant[i][j] = tok
                    texts = list(seeds)
                    texts[k] = b"".join(b" ".join(toks) + b"\n" for toks in mutant)
                    paths = [tmp_path / f"f{n}.txt" for n in range(len(texts))]
                    for path, text in zip(paths, texts):
                        path.write_bytes(text)
                    _parses_or_raises_format_error(read, list(map(str, paths)))


_NUMBERS = st.one_of(
    st.integers(min_value=-2, max_value=9), st.sampled_from([2**63 - 1, 2**63, 10**30])
)
_TOKENS = st.one_of(
    _NUMBERS.map(str),
    st.lists(_NUMBERS, min_size=1, max_size=3).map(lambda ids: "-".join(map(str, ids))),
    st.tuples(st.sampled_from(["level=", "t="]), _NUMBERS).map(lambda t: f"{t[0]}{t[1]}"),
    st.sampled_from(["#", "node", "selfloop", "t=", "x", "1.5", "-", ","]),
)
_FILES = st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=8).map(
    lambda lines: "".join(line + "\n" for line in lines)
)


@pytest.mark.parametrize("name", sorted(_READERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_random_files_raise_only_format_errors(tmp_path_factory, name, data):
    read, seeds = _READERS[name]
    folder = tmp_path_factory.getbasetemp()
    paths = [write(folder / f"fuzz-{name}-{i}.txt", data.draw(_FILES)) for i in range(len(seeds))]
    _parses_or_raises_format_error(read, paths)


# --- reports and sidecars --------------------------------------------------


def test_report_roundtrip_rounds_floats(tmp_path):
    p = str(tmp_path / "r.json")
    write_report({"pi": math.pi, "nested": {"vals": [1.23456789e-7]}, "n": 3}, p)
    data = read_report(p)
    assert data["pi"] == 3.14159
    assert data["nested"]["vals"] == [1.23457e-7]
    assert data["n"] == 3


def test_report_accepts_to_dict_objects_and_is_stable(tmp_path):
    class R:
        def to_dict(self):
            return {"b": 2.0, "a": 1.0}

    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_report(R(), p1)
    write_report({"a": 1.0, "b": 2.0}, p2)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_format_float_six_significant_digits():
    assert format_float(0.123456789) == 0.123457
    assert format_float(1234567.0) == 1234570.0
    assert format_float(0.0) == 0.0
    assert format_float(float("inf")) == float("inf")
    assert math.isnan(format_float(float("nan")))


def test_histogram_and_spectrum_sidecars(tmp_path):
    hp = tmp_path / "h.tsv"
    write_histogram_tsv({3: 1, 1: 4}, str(hp))
    assert hp.read_text() == "value\tcount\n1\t4\n3\t1\n"
    sp = tmp_path / "s.tsv"
    write_spectrum_tsv([2.0, 0.123456789], str(sp))
    assert sp.read_text() == "rank\tvalue\n1\t2.0\n2\t0.123457\n"
