"""End-to-end command-line behavior via in-process main() calls."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hyperdecomp
import hyperdecomp.cli as cli
from hyperdecomp import MetricError, ValidationError, read_line_format

SMALL = "0 1 2\n1 2 3\n3 4\n0 4\n2 4\n"


def run(argv):
    return cli.main(argv)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def small_input(tmp_path):
    return write(tmp_path / "in.txt", SMALL)


def test_decompose_writes_pairs_and_summary(small_input, tmp_path, capsys):
    out = tmp_path / "lv2.txt"
    assert run(["decompose", small_input, "--level", "2", "--out", str(out)]) == 0
    assert "level=2 nodes=" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "# level=2"
    assert all(len(line.split()) == 2 for line in lines[1:])


def test_decompose_weighted_then_recover_roundtrip(small_input, tmp_path, capsys):
    files = []
    for level in (1, 2):
        out = tmp_path / f"w{level}.txt"
        assert (
            run(
                [
                    "decompose",
                    small_input,
                    "--level",
                    str(level),
                    "--weighted",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        files.append(str(out))
    back = tmp_path / "back.txt"
    assert run(["recover", *files, "--out", str(back)]) == 0
    assert "hyperedges=5" in capsys.readouterr().out
    original = read_line_format(small_input)
    recovered = read_line_format(str(back))
    assert Counter(recovered.member_tuples()) == Counter(original.member_tuples())


def test_decompose_weighted_rejects_edge_size_cap(tmp_path, capsys):
    data = write(tmp_path / "in.txt", "0 1 2 3 4 5 6 7\n1 2\n")
    out = tmp_path / "w2.txt"
    argv = ["decompose", data, "--level", "2", "--weighted", "--max-edge-size", "3"]
    assert run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--max-edge-size" in err
    assert not out.exists()


def test_decompose_accepts_simplex_triple(tmp_path, capsys):
    nv = write(tmp_path / "d-nverts.txt", "3\n2\n")
    sx = write(tmp_path / "d-simplices.txt", "0\n1\n2\n1\n2\n")
    tm = write(tmp_path / "d-times.txt", "1\n2\n")
    out = tmp_path / "lv1.txt"
    code = run(
        ["decompose", "--simplex", nv, sx, tm, "--level", "1", "--out", str(out)]
    )
    assert code == 0
    assert "nodes=3" in capsys.readouterr().out


def test_analyze_writes_reports_and_sidecars(small_input, tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code = run(
        ["analyze", small_input, "--levels", "1,2", "--out", str(out_dir), "--sv-count", "5"]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "level=1" in printed and "level=2" in printed
    for level in (1, 2):
        data = json.loads((out_dir / f"level{level}.json").read_text())
        assert data["level"] == level
        assert "components" in data
        assert (out_dir / f"level{level}-degrees.tsv").exists()
    assert (out_dir / "level1-spectrum.tsv").read_text().startswith("rank\tvalue\n")


def test_analyze_failure_cleans_partial_outputs(small_input, tmp_path, monkeypatch, capsys):
    calls = []
    real = cli.singular_values

    def flaky(G, m):
        calls.append(m)
        if len(calls) == 2:
            raise MetricError("spectrum unavailable")
        return real(G, m)

    monkeypatch.setattr(cli, "singular_values", flaky)
    out_dir = tmp_path / "reports"
    code = run(
        ["analyze", small_input, "--levels", "1,2", "--out", str(out_dir), "--sv-count", "4"]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert list(out_dir.iterdir()) == []

    # The tail verdicts run after every level's spectrum has been written;
    # a failure there removes those files too.
    monkeypatch.setattr(cli, "singular_values", real)
    verdicts = []
    real_verdict = cli.heavy_tail_verdict

    def failing_last(degrees):
        verdicts.append(sorted(p.name for p in out_dir.iterdir()))
        if len(verdicts) == 2:
            raise ValidationError("tail test unavailable")
        return real_verdict(degrees)

    monkeypatch.setattr(cli, "heavy_tail_verdict", failing_last)
    code = run(
        ["analyze", small_input, "--levels", "1,2", "--out", str(out_dir), "--sv-count", "4"]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert len(verdicts) == 2
    assert {"level1-spectrum.tsv", "level2-spectrum.tsv"} <= set(verdicts[-1])
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
def test_analyze_rejects_bad_worker_count(small_input, tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv(cli.WORKERS_ENV, value)
    out_dir = tmp_path / "reports"
    assert run(["analyze", small_input, "--levels", "1", "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and cli.WORKERS_ENV in err
    assert not out_dir.exists()


@pytest.mark.parametrize("text", ["0\n1\n2\n", "0 1\n1 2\n"])
def test_analyze_rejects_sv_count_below_one_whatever_the_input(tmp_path, capsys, text):
    # Level 1 of the singletons has no edge, so no spectrum would ever ask.
    src = write(tmp_path / "in.txt", text)
    out_dir = tmp_path / "reports"
    assert run(["analyze", src, "--levels", "1", "--sv-count", "0", "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--sv-count" in err
    assert not out_dir.exists()


def test_evaluate_rejects_sv_count_below_one_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "absent.txt")
    out = tmp_path / "card.json"
    assert run(["evaluate", missing, missing, "--sv-count", "-1", "--out", str(out)]) == 1
    assert "--sv-count" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("present", [True, False])
@pytest.mark.parametrize("command", ["analyze", "evaluate", "generate"])
def test_negative_seed_is_refused_before_any_input_is_read(tmp_path, capsys, command, present):
    # generate, and analyze on levels within the exact-BFS threshold, used to
    # run with it; a level above the threshold failed inside numpy.
    src = write(tmp_path / "in.txt", SMALL) if present else str(tmp_path / "absent.txt")
    out = tmp_path / "out"
    argv = {
        "analyze": ["analyze", src, "--levels", "1"],
        "evaluate": ["evaluate", src, src],
        "generate": ["generate", src, "--model", "null"],
    }[command]
    assert run([*argv, "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seed" in err
    assert not out.exists()


@pytest.mark.parametrize("levels", ["x", ",", "1,x"])
def test_analyze_rejects_a_bad_level_list(small_input, tmp_path, capsys, levels):
    out_dir = tmp_path / "reports"
    assert run(["analyze", small_input, "--levels", levels, "--out", str(out_dir)]) == 1
    assert "level" in capsys.readouterr().err
    assert not out_dir.exists()


def test_analyze_records_a_degree_tail_it_cannot_test(tmp_path):
    # One edge: two positive degrees, too few for the Lilliefors test.
    src = write(tmp_path / "in.txt", "0 1\n")
    out_dir = tmp_path / "reports"
    assert run(["analyze", src, "--levels", "1", "--sv-count", "2", "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "level1.json").read_text())
    assert "degree_tail" not in summary
    assert "at least 5" in summary["degree_tail_error"]


@pytest.mark.parametrize(
    "model, expected",
    [("hyperpa", "--params is required"), ("null", "needs input data")],
)
def test_generate_without_input_or_params_fails_cleanly(tmp_path, capsys, model, expected):
    out = tmp_path / "gen.txt"
    assert run(["generate", "--model", model, "--out", str(out)]) == 1
    assert expected in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_failing_writer_leaves_no_temp_file_and_removes_earlier_outputs(tmp_path):
    def fail(path):
        Path(path).write_text("partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        with cli._outputs() as write_out:
            write_out(str(tmp_path / "a.txt"), lambda p: Path(p).write_text("done"))
            assert (tmp_path / "a.txt").read_text() == "done"
            write_out(str(tmp_path / "b.txt"), fail)
    assert list(tmp_path.iterdir()) == []


def test_generate_hyperpa_manifest_and_determinism(tmp_path, capsys):
    data = write(
        tmp_path / "in.txt",
        "\n".join(f"{3 * i} {3 * i + 1} {3 * i + 2} t={i}" for i in range(12)) + "\n",
    )
    out1, out2, out3 = (str(tmp_path / f"g{i}.txt") for i in (1, 2, 3))
    assert run(["generate", data, "--model", "hyperpa", "--out", out1]) == 0
    assert "model=hyperpa" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "g1.txt.manifest.json").read_text())
    assert manifest["model"] == "hyperpa"
    assert manifest["seed"] == 42
    assert manifest["subset_cap"] == 6
    assert manifest["fallback_draws"] >= 0
    assert manifest["params"]["sizes"] == {"3": 1.0}
    assert run(["generate", data, "--model", "hyperpa", "--out", out2]) == 0
    assert open(out1).read() == open(out2).read()
    assert run(["generate", data, "--model", "hyperpa", "--seed", "7", "--out", out3]) == 0
    assert open(out1).read() != open(out3).read()


def test_generate_null_preserves_size_multiset(small_input, tmp_path):
    out = str(tmp_path / "null.txt")
    assert run(["generate", small_input, "--model", "null", "--out", out]) == 0
    H = read_line_format(small_input)
    N = read_line_format(out)
    assert Counter(len(e) for e in N.member_tuples()) == Counter(
        len(e) for e in H.member_tuples()
    )


def test_generate_null_rejects_params(small_input, tmp_path, capsys):
    params = write(
        tmp_path / "params.json",
        json.dumps({"n": 40, "sizes": {"2": 1.0}, "new_edges": {"1": 1.0}}),
    )
    out = tmp_path / "null.txt"
    argv = ["generate", small_input, "--model", "null", "--params", params]
    assert run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--params" in err
    assert not out.exists()


def test_generate_subset_from_params_file(tmp_path):
    params = write(
        tmp_path / "params.json",
        json.dumps(
            {"n": 40, "sizes": {"2": 0.5, "3": 0.5}, "new_edges": {"1": 1.0}}
        ),
    )
    out = str(tmp_path / "s.txt")
    code = run(
        [
            "generate",
            "--model",
            "subset",
            "--params",
            params,
            "--rule",
            "k-most-recent",
            "--window",
            "4",
            "--out",
            out,
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "s.txt.manifest.json").read_text())
    assert manifest["rule"] == {"kind": "k-most-recent", "k": 4, "inner": "random"}
    assert manifest["p"] == 0.8
    assert read_line_format(out).num_edges > 0


@pytest.mark.parametrize(
    "flags", [["--rule", "recent", "--window", "3"], ["--inner", "recent"]]
)
def test_generate_rejects_window_and_inner_without_k_most_recent(tmp_path, capsys, flags):
    params = write(
        tmp_path / "params.json",
        json.dumps({"n": 40, "sizes": {"2": 0.5, "3": 0.5}, "new_edges": {"1": 1.0}}),
    )
    out = tmp_path / "s.txt"
    argv = ["generate", "--model", "subset", "--params", params, *flags, "--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "k-most-recent" in err
    assert not out.exists()


def test_generate_subset_window_too_small_fails_cleanly(tmp_path, capsys):
    params = write(
        tmp_path / "params.json",
        json.dumps({"n": 50, "sizes": {"2": 0.5, "4": 0.5}, "new_edges": {"1": 1.0}}),
    )
    out = tmp_path / "s.txt"
    argv = ["generate", "--model", "subset", "--params", params, "--p", "1.0"]
    argv += ["--rule", "k-most-recent", "--window", "1", "--seed", "0", "--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "k=1" in err and "s=4" in err
    assert not out.exists()


_GOOD_PARAMS = '{"n": 40, "sizes": {"2": 1.0}, "new_edges": {"1": 1.0}}'


@pytest.mark.parametrize(
    "text, expected",
    [
        (_GOOD_PARAMS[:-1], "params.json:1: "),
        ('{"n": 40,\n"sizes": {"2": 1.0},\n\n', "params.json:4: "),
        (_GOOD_PARAMS.replace("{", "{\n").encode() + b"\xff", "params.json:4: "),
        (_GOOD_PARAMS.replace("1.0}, ", '"x"}, '), "malformed generator parameters"),
        (_GOOD_PARAMS.replace("40", '"five"'), "malformed generator parameters"),
        (_GOOD_PARAMS.encode().replace(b'"2"', b'"\xff"'), "malformed generator parameters"),
        ("[1, 2]", "malformed generator parameters"),
        ("[" * 100_000 + "]" * 100_000, "params.json:1: JSON nesting is too deep"),
        (_GOOD_PARAMS.replace("40", "2.5"), "malformed generator parameters: n must be"),
    ],
    ids=[
        "truncated",
        "unclosed",
        "stray-byte",
        "bad-weight",
        "bad-n",
        "bad-key-byte",
        "list",
        "deep-nesting",
        "fractional-n",
    ],
)
def test_generate_rejects_malformed_params_file(tmp_path, capsys, text, expected):
    params = tmp_path / "params.json"
    if isinstance(text, bytes):
        params.write_bytes(text)
    else:
        params.write_text(text, encoding="utf-8")
    out = tmp_path / "g.txt"
    argv = ["generate", "--model", "hyperpa", "--params", str(params), "--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and expected in err
    assert not out.exists()


def test_evaluate_reports_points(tmp_path, capsys):
    data = write(
        tmp_path / "in.txt",
        "\n".join(f"{3 * i} {3 * i + 1} {3 * i + 2} t={i}" for i in range(40)) + "\n",
    )
    gen = str(tmp_path / "g.txt")
    assert run(["generate", data, "--model", "hyperpa", "--out", gen]) == 0
    capsys.readouterr()
    out = str(tmp_path / "card.json")
    code = run(["evaluate", data, gen, "--levels", "1,2", "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("points=")
    card = json.loads(open(out).read())
    assert set(card) >= {"levels", "points", "applicable"}


def test_errors_exit_nonzero_with_message(tmp_path, capsys):
    code = run(["decompose", str(tmp_path / "nope.txt"), "--level", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()
    code = run(["analyze", "--out", str(tmp_path / "d")])
    assert code == 1
    assert "input" in capsys.readouterr().err


def test_recover_rejects_duplicate_levels(small_input, tmp_path, capsys):
    out = tmp_path / "w1.txt"
    run(["decompose", small_input, "--level", "1", "--weighted", "--out", str(out)])
    capsys.readouterr()
    code = run(["recover", str(out), str(out), "--out", str(tmp_path / "r.txt")])
    assert code == 1
    assert "twice" in capsys.readouterr().err


def test_recover_refuses_a_multiplicity_too_large_to_expand(tmp_path, capsys):
    src = write(tmp_path / "w1.txt", f"# level=1\nselfloop 0 {2**40}\n")
    tracemalloc.start()
    try:
        code = run(["recover", src, "--out", str(tmp_path / "r.txt")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: level 1: ")
    assert f"need {2**40 * 8} bytes" in err[0]
    assert peak < 2**24  # nothing near the 8 TiB the expansion would take
    assert not (tmp_path / "r.txt").exists()


def _console_script_spec(name):
    """The ``[project.scripts]`` target that an install turns into ``name``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def _smoke_decompose(command, workdir, env=None):
    workdir.mkdir()
    src = write(workdir / "in.txt", SMALL)
    out = workdir / "lv1.txt"
    proc = subprocess.run(
        [*command, "decompose", src, "--level", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "level=1" in proc.stdout
    assert out.exists()


def test_installed_entry_point_smoke(tmp_path):
    # A source checkout has no console script on PATH, so launch the
    # declared entry point in a fresh interpreter the way the script that
    # an install generates does.
    spec = _console_script_spec("hyperdecomp")
    launcher = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "sys.argv[0] = 'hyperdecomp'\n"
        f"sys.exit(EntryPoint('hyperdecomp', {spec!r}, 'console_scripts').load()())\n"
    )
    package_root = str(Path(hyperdecomp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    _smoke_decompose([sys.executable, "-c", launcher], tmp_path / "spec", env)

    # Where the package is installed, the generated script is checked too.
    exe = shutil.which("hyperdecomp")
    if exe is not None:
        _smoke_decompose([exe], tmp_path / "script")


# --- pinned analyze and evaluate reports ------------------------------------

# sha256 of every file `analyze` writes at levels 1-3 and of the `evaluate`
# scorecard, both with 20 singular values. Hyperedges draw their members
# with probability falling as 1/rank, so the level-2 and level-3 graphs
# hold many cliques of true twins, and their giant components keep more
# than 22 twin classes: the spectrum runs Lanczos there, on a twin quotient.
# A changed digest means changed output bytes.
PINNED_REPORTS = {
    "analyze/level1-degrees.tsv": "9ea96c757b37ebef883451ae76f376c97a46071d76963a43816d6c2b2f21b9ce",
    "analyze/level1-spectrum.tsv": "4b033fe019de67559ec979faf12a053fa528c57e8cfda54055e09cf5caaaf355",
    "analyze/level1.json": "e9a853f86a4826e19f3a7dcfd41ec0e8a5cfcefcf2fb18d017a09f0f6b96d616",
    "analyze/level2-degrees.tsv": "1a71a4676a975dc2c970c2ec712a3863c38a7044fa28dd2f6ae4ccafb1562fd9",
    "analyze/level2-spectrum.tsv": "129374a6ea8040bbc82b2719f548e823b2a6fccacf62df9cb1e30b0ff179c87c",
    "analyze/level2.json": "1d38c813c155f5e75f774b974ffee38b77292051a4dcc78cbb39f78e212303a1",
    "analyze/level3-degrees.tsv": "31b011913001cca5d1b906ef5d4cc75f09c2534fd1fe6fbff3c146d1cc8f7e3c",
    "analyze/level3-spectrum.tsv": "850cf9d07ca1becdea3c9926ec7cf1c303b96c400142a9f68bff9393ec24bb1f",
    "analyze/level3.json": "6fc3b8454f3f3ebcb7dd175329eb2d8d9283794e3c6599c8c21177a55784ade3",
    "card.json": "aa9763bcd2379ac159a6cff7dc8cafad455253e3134433f68c20c1e9df6084a5",
}


def _ranked_input(path, seed):
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, 51)
    edges = [
        np.sort(rng.choice(50, size=int(size), replace=False, p=weights / weights.sum()))
        for size in rng.choice([2, 3, 3, 4, 4, 5, 6], size=90)
    ]
    path.write_text("".join(" ".join(map(str, e.tolist())) + "\n" for e in edges))
    return str(path)


def test_analyze_and_evaluate_outputs_are_pinned(tmp_path, capsys):
    real = _ranked_input(tmp_path / "real.txt", 0)
    gen = _ranked_input(tmp_path / "gen.txt", 1)
    common = ["--levels", "1,2,3", "--sv-count", "20"]
    assert run(["analyze", real, *common, "--out", str(tmp_path / "analyze")]) == 0
    assert run(["evaluate", real, gen, *common, "--out", str(tmp_path / "card.json")]) == 0
    written = sorted(
        str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()
    )
    assert written == sorted([*PINNED_REPORTS, "gen.txt", "real.txt"])
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_REPORTS
    }
    assert digests == PINNED_REPORTS
