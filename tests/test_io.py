"""File formats: parsing, error positions, and round trips."""

import math

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
    H, id_map = read_simplex_format(*paths)
    assert id_map == {7: 0, 9: 1, 3: 2, 5: 3}
    assert H.n == 4
    assert H.member_tuples() == [(0, 1), (0, 1, 2), (3,)]
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


# --- line format -----------------------------------------------------------


def test_line_format_roundtrip(tmp_path):
    H = canonicalize([[4, 0, 2], [1], [1, 3]], n=6, timestamps=[9, 8, 7])
    p = tmp_path / "h.txt"
    write_line_format(H, str(p))
    back = read_line_format(str(p), n=6)
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
    # No subset can be that wide, and no int64 array can have that shape.
    p = write(tmp_path / "g9.txt", f"\n# level={2**63}\n")
    with pytest.raises(FormatError, match="2\\*\\*60") as exc:
        read_weighted_graph(p)
    assert exc.value.line == 2


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
    ]
] + [b"\xff"]


def _parses_or_raises_format_error(read, paths):
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
