"""Fresh-interpreter behaviour of the CLI: what it imports, and that the
worker count never changes its output.

Commands that only read, decompose, generate or recover must not pay for
scipy; it loads on first use inside the metric and tail-fit functions. No
command loads mpmath, which is a test-only oracle. Each check runs in a new
interpreter, since this test process has long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import hyperdecomp
from hyperdecomp import read_line_format

# Runs CLI commands one after another in a single interpreter and prints,
# per step, which scipy/mpmath modules are loaded once the step is done.
PROBE = r"""
import json, sys

def heavy():
    return sorted(k for k in sys.modules if k.split(".")[0] in ("scipy", "mpmath"))

loaded = {}
import hyperdecomp, hyperdecomp.cli as cli
loaded["import"] = heavy()
for name, argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{name} exited with {code}")
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


def test_cli_loads_scipy_only_when_analyzing_and_never_mpmath(tmp_path):
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

    loaded = _probe(steps)

    assert list(loaded) == ["import"] + [name for name, _ in steps]
    for name, modules in loaded.items():
        if name != "analyze":
            assert modules == [], f"{name} loaded {modules}"
    # The probe can see an import: analyze pulls scipy in on first use.
    assert "scipy.sparse" in loaded["analyze"]
    assert not [m for modules in loaded.values() for m in modules if m.startswith("mpmath")]
    assert sorted(read_line_format(str(back)).member_tuples()) == sorted(
        read_line_format(data).member_tuples()
    )


def _analyze_outputs(data, out_dir, workers):
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
            "6",
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
