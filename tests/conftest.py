"""Shared fixtures: dataset discovery, random hypergraph builders and the
scipy adjacency that oracles take."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix

import hyperdecomp
from hyperdecomp import DecomposedGraph, Hypergraph, canonicalize
from hyperdecomp.core import _adjacency
from hyperdecomp.io import read_simplex_format

DATA_ENV = "HYPERDECOMP_DATA"

# --- which package is under test ------------------------------------------
# pytest's `pythonpath = ["src"]` (pyproject.toml) goes before PYTHONPATH, so
# a run asked to test another tree would silently test this checkout's src/.

_IMPORTED = Path(hyperdecomp.__file__).resolve().parent


def pytest_report_header(config):
    return f"hyperdecomp imported from {_IMPORTED}"


def pytest_sessionstart(session):
    """Stop when PYTHONPATH points at a different hyperdecomp than the one
    imported: the first PYTHONPATH entry that holds the package names the
    tree the run was asked to test."""
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        wanted = Path(entry).resolve() / "hyperdecomp"
        if (wanted / "__init__.py").is_file():
            if wanted != _IMPORTED:
                pytest.exit(
                    f"PYTHONPATH names {wanted}, but the tests import {_IMPORTED}, "
                    "because pytest's pythonpath setting goes first; "
                    "add -o pythonpath= to test the PYTHONPATH package",
                    returncode=pytest.ExitCode.USAGE_ERROR,
                )
            return

_DATASET_CACHE: dict[str, Hypergraph] = {}

# Published under a longer name; accept either directory spelling.
_DATASET_ALIASES = {"tags-math": ("tags-math", "tags-math-sx")}


def data_root() -> Path:
    override = os.environ.get(DATA_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parent.parent / "data"


def dataset_paths(name: str) -> tuple[Path, Path, Path] | None:
    root = data_root()
    for alias in _DATASET_ALIASES.get(name, (name,)):
        for base in (root / alias, root):
            triple = tuple(
                base / f"{alias}-{part}.txt" for part in ("nverts", "simplices", "times")
            )
            if all(p.is_file() for p in triple):
                return triple  # type: ignore[return-value]
    return None


def load_dataset(name: str) -> Hypergraph:
    """Parse a simplex-format dataset, skipping the test if it is absent."""
    if name in _DATASET_CACHE:
        return _DATASET_CACHE[name]
    paths = dataset_paths(name)
    if paths is None:
        pytest.skip(
            f"dataset {name!r} not found under {data_root()} "
            f"(set {DATA_ENV} or see README for the expected layout)"
        )
    H, _ = read_simplex_format(*(str(p) for p in paths))
    _DATASET_CACHE[name] = H
    return H


def random_hypergraph(
    rng: np.random.Generator,
    max_nodes: int = 40,
    max_edge_size: int = 6,
    max_edges: int = 40,
    with_duplicates: bool = True,
) -> Hypergraph:
    """Multiset hypergraph with singletons and optional duplicate edges."""
    n = int(rng.integers(2, max_nodes + 1))
    num_edges = int(rng.integers(1, max_edges + 1))
    edges: list[list[int]] = []
    for _ in range(num_edges):
        size = int(rng.integers(1, min(max_edge_size, n) + 1))
        members = rng.choice(n, size=size, replace=False)
        edges.append([int(v) for v in members])
    if with_duplicates and len(edges) >= 2:
        for _ in range(int(rng.integers(0, 4))):
            edges.append(list(edges[int(rng.integers(0, len(edges)))]))
    return canonicalize(edges, n=n)


def adjacency_csr(G: DecomposedGraph) -> csr_matrix:
    """The adjacency of a decomposed graph as a scipy.sparse int8 CSR matrix."""
    n, (u, v) = G.num_nodes, G.edge_array.T
    indptr, indices, _ = _adjacency(n, u, v)
    return csr_matrix((np.ones(indices.size, np.int8), indices, indptr), shape=(n, n))


@pytest.fixture
def lanczos_blocks(monkeypatch):
    """Sends spectrum blocks to Lanczos iteration whenever m <= q - 2, however
    small they are, and lists the size of each block that iteration solves,
    so that a test of the iterative path can check that it ran."""
    from hyperdecomp import metrics

    solved: list[int] = []
    lanczos = metrics._lanczos_magnitudes

    def spy(block, m):
        solved.append(block.indptr.size - 1)
        return lanczos(block, m)

    monkeypatch.setattr(metrics, "DENSE_BLOCK_BYTES", 0)
    monkeypatch.setattr(metrics, "_lanczos_magnitudes", spy)
    return solved


# --- acceptance criterion reporting ---------------------------------------
# Tests marked @pytest.mark.acceptance(num=..., desc=...) get one summary
# line each at the end of the run, whatever their outcome.

_ACCEPTANCE_INFO: dict[str, tuple[int, str]] = {}
_ACCEPTANCE_OUTCOME: dict[str, str] = {}


def pytest_collection_modifyitems(items):
    for item in items:
        marker = item.get_closest_marker("acceptance")
        if marker is not None:
            _ACCEPTANCE_INFO[item.nodeid] = (marker.kwargs["num"], marker.kwargs["desc"])


def pytest_runtest_logreport(report):
    if report.nodeid not in _ACCEPTANCE_INFO:
        return
    if report.skipped:
        _ACCEPTANCE_OUTCOME[report.nodeid] = "SKIPPED"
    elif report.when == "call":
        _ACCEPTANCE_OUTCOME[report.nodeid] = "PASS" if report.passed else "FAIL"
    elif report.failed:  # setup/teardown error
        _ACCEPTANCE_OUTCOME[report.nodeid] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = sorted(
        (info, _ACCEPTANCE_OUTCOME.get(nodeid, "NOT RUN"))
        for nodeid, info in _ACCEPTANCE_INFO.items()
    )
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for (num, desc), outcome in rows:
        terminalreporter.write_line(f"ACCEPTANCE {num:2d} ({desc}): {outcome}")
