"""Fresh-interpreter behaviour of the CLI: what it imports, and that the
worker count never changes its output.

No command loads scipy: the metrics and the tail fits run on numpy, and
only the Lanczos solver for spectrum blocks above the dense budget imports
it, on first use. No command loads mpmath, which is a test-only oracle.
Each check runs in a new interpreter, since this test process has long
since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperdecomp
from hyperdecomp import DecomposeConfig, decompose, read_line_format, singular_values
from hyperdecomp.io import write_spectrum_tsv

# Runs CLI commands (or, for a string step, Python code) one after another
# in a single interpreter and prints, per step, which scipy/mpmath modules
# are loaded once the step is done.
PROBE = r"""
import json, sys

def heavy():
    return sorted(k for k in sys.modules if k.split(".")[0] in ("scipy", "mpmath"))

loaded = {}
import hyperdecomp, hyperdecomp.cli as cli
loaded["import"] = heavy()
for name, argv in json.loads(sys.argv[1]):
    if isinstance(argv, str):
        exec(argv)
    elif cli.main(argv) != 0:
        raise SystemExit(f"{name} failed")
    loaded[name] = heavy()
print(json.dumps(loaded))
"""


def _env(**extra):
    package_root = str(Path(hyperdecomp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    env.update(extra)
    return env


def _timestamped_input(path, edges=40):
    rng = np.random.default_rng(5)
    lines = []
    for t in range(edges):
        size = int(rng.integers(2, 6))
        members = sorted(rng.choice(30, size=size, replace=False).tolist())
        lines.append(" ".join(map(str, members)) + f" t={t}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _probe(steps):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(steps)],
        capture_output=True,
        text=True,
        env=_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_loads_neither_scipy_nor_mpmath(tmp_path):
    data = _timestamped_input(tmp_path / "in.txt")
    steps = [
        ["decompose", ["decompose", data, "--level", "2", "--out", str(tmp_path / "l2.txt")]],
    ]
    # Hyperedges have up to five members, so recovery needs levels 1-4.
    weighted = [str(tmp_path / f"w{k}.txt") for k in (1, 2, 3, 4)]
    for k, out in enumerate(weighted, start=1):
        steps.append(
            [f"decompose-weighted-{k}", ["decompose", data, "--level", str(k), "--weighted", "--out", out]]
        )
    back = tmp_path / "back.txt"
    steps.append(["recover", ["recover", *weighted, "--out", str(back)]])
    for model in ("hyperpa", "naivepa", "subset", "null"):
        out = str(tmp_path / f"gen-{model}.txt")
        steps.append([f"generate-{model}", ["generate", data, "--model", model, "--out", out]])
    steps.append(
        ["analyze", ["analyze", data, "--levels", "1", "--sv-count", "4", "--out", str(tmp_path / "rep")]]
    )
    card = str(tmp_path / "card.json")
    steps.append(
        ["evaluate", ["evaluate", data, str(tmp_path / "gen-hyperpa.txt"), "--levels", "1,2", "--out", card]]
    )
    steps.append(["lanczos", (
        "from hyperdecomp import DecomposeConfig, decompose, metrics, read_line_format\n"
        "metrics.DENSE_BLOCK_BYTES = 0\n"
        f"G = decompose(read_line_format({data!r}), DecomposeConfig.for_level(1))\n"
        "metrics.singular_values(G, m=2)"
    )])

    loaded = _probe(steps)

    assert list(loaded) == ["import"] + [name for name, _ in steps]
    for name, modules in loaded.items():
        if name != "lanczos":
            assert modules == [], f"{name} loaded {modules}"
    # The probe can see an import: with no dense budget the spectrum runs
    # scipy's Lanczos solver.
    assert "scipy.sparse.linalg" in loaded["lanczos"]
    assert not [m for m in loaded["lanczos"] if m.startswith("mpmath")]
    assert sorted(read_line_format(str(back)).member_tuples()) == sorted(
        read_line_format(data).member_tuples()
    )


# Runs one CLI command with `singular_values` and `heavy_tail_verdict`
# wrapped where the CLI calls them, and prints the order of their calls and
# which of WATCHED are loaded once the command is done.
SCHEDULE_PROBE = r"""
import json, sys
import hyperdecomp.cli as cli

WATCHED = ("numpy.random", "numpy.ma", "concurrent.futures")
calls = []

def spy(name, real):
    def call(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    return call

cli.singular_values = spy("spectrum", cli.singular_values)
cli.heavy_tail_verdict = spy("tail", cli.heavy_tail_verdict)
if cli.main(json.loads(sys.argv[1])) != 0:
    raise SystemExit("command failed")
print(json.dumps([calls, [name for name in WATCHED if name in sys.modules]]))
"""


@pytest.mark.parametrize("workers, expected", [(1, []), (2, ["concurrent.futures"])])
def test_every_spectrum_runs_before_the_tail_test_imports(tmp_path, workers, expected):
    # analyze runs every level's spectrum before the first degree-tail test,
    # as the two phases keep its peak lower; the tail test imports neither
    # numpy.random nor numpy.ma, and the thread pool is imported only for
    # more than one worker.
    data = _timestamped_input(tmp_path / "in.txt")
    out_dir = tmp_path / "rep"
    argv = ["analyze", data, "--levels", "1,2,3", "--sv-count", "4", "--out", str(out_dir)]
    proc = subprocess.run(
        [sys.executable, "-c", SCHEDULE_PROBE, json.dumps(argv)],
        capture_output=True,
        text=True,
        env=_env(HYPERDECOMP_WORKERS=str(workers)),
    )
    assert proc.returncode == 0, proc.stderr

    calls, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert calls == ["spectrum"] * 3 + ["tail"] * 3
    assert loaded == expected
    for k in (1, 2, 3):
        report = json.loads((out_dir / f"level{k}.json").read_text())
        assert report["edges"] > 0 and "degree_tail" in report, k


def _analyze_outputs(data, out_dir, workers, sv_count=6):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "hyperdecomp.cli",
            "analyze",
            data,
            "--levels",
            "1,2,3",
            "--sv-count",
            str(sv_count),
            "--out",
            str(out_dir),
        ],
        capture_output=True,
        text=True,
        env=_env(HYPERDECOMP_WORKERS=str(workers)),
    )
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_analyze_output_is_identical_for_any_worker_count(tmp_path):
    data = _timestamped_input(tmp_path / "in.txt", edges=60)
    serial = _analyze_outputs(data, tmp_path / "w1", workers=1)
    threaded = _analyze_outputs(data, tmp_path / "w2", workers=2)

    expected = {
        f"level{k}{suffix}"
        for k in (1, 2, 3)
        for suffix in (".json", "-degrees.tsv", "-spectrum.tsv")
    }
    assert set(serial) == expected
    assert set(threaded) == expected
    for name in sorted(expected):
        assert threaded[name] == serial[name], name


def test_spectrum_under_two_workers_is_the_in_process_one(tmp_path):
    # The 4-cycle 0-1-3-2 with leaves 4, 5 and 6 on node 0: its 5 largest
    # magnitudes cover all its distinct eigenvalues.
    pairs = [(0, 1), (1, 3), (3, 2), (2, 0), (0, 4), (0, 5), (0, 6)]
    data = tmp_path / "in.txt"
    data.write_text("".join(f"{u} {v}\n" for u, v in pairs), encoding="utf-8")
    threaded = _analyze_outputs(str(data), tmp_path / "w2", workers=2, sv_count=5)
    G = decompose(read_line_format(str(data)), DecomposeConfig.for_level(1))
    write_spectrum_tsv(singular_values(G, m=5).values, str(tmp_path / "here.tsv"))
    assert threaded["level1-spectrum.tsv"] == (tmp_path / "here.tsv").read_bytes()


def _collect_surface_tests(pythonpath):
    """`pytest --collect-only` of one test file from the checkout root."""
    root = Path(__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-p", "no:cacheprovider",
         "tests/test_surface.py"],
        cwd=root,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )


def test_pytest_names_the_package_it_tests_and_stops_on_another(tmp_path):
    checkout = Path(__file__).resolve().parents[1] / "src" / "hyperdecomp"
    other = tmp_path / "other"
    (other / "hyperdecomp").mkdir(parents=True)
    (other / "hyperdecomp" / "__init__.py").write_text("")

    proc = _collect_surface_tests(str(other))
    said = proc.stdout + proc.stderr
    assert proc.returncode == 4, said
    assert str(other / "hyperdecomp") in said and str(checkout) in said
    assert "-o pythonpath=" in said

    # The first PYTHONPATH entry holding the package decides, as for Python.
    proc = _collect_surface_tests(os.pathsep.join([str(checkout.parent), str(other)]))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"hyperdecomp imported from {checkout}" in proc.stdout
