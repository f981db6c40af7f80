"""The package's public names, the parameters of its public functions, the
fields of its public dataclasses and NamedTuples, the third-party modules
its source imports, and that every name it imports is used.

Adding an exported name, a function option or a constructor field, or
dropping one, has to edit these pins.
"""

import ast
import dataclasses
import inspect
import re
import sys
from pathlib import Path

import pytest

import hyperdecomp

PUBLIC_NAMES = [
    "ComponentReport",
    "ConvergenceError",
    "DecomposeConfig",
    "DecomposedGraph",
    "FitError",
    "FitResult",
    "FormatError",
    "GenParams",
    "Hyperedge",
    "Hypergraph",
    "KSubset",
    "MetricError",
    "RecoveryError",
    "SamplingRule",
    "ScoreCard",
    "SingularSpectrum",
    "TailVerdict",
    "ValidationError",
    "WeightedDecomposedGraph",
    "canonicalize",
    "clustering_coefficient",
    "connected_components",
    "decompose",
    "decompose_weighted",
    "dedup",
    "degree_histogram",
    "effective_diameter",
    "evaluate",
    "fit",
    "format_float",
    "heavy_tail_verdict",
    "hyperpa",
    "hyperpa_detailed",
    "ks_dstat",
    "learn_params",
    "lilliefors_exp",
    "loglik_ratio",
    "naivepa",
    "null_model",
    "read_line_format",
    "read_report",
    "read_simplex_format",
    "read_weighted_graph",
    "recover",
    "singular_values",
    "subset_sampling",
    "write_decomposed_graph",
    "write_histogram_tsv",
    "write_line_format",
    "write_report",
    "write_spectrum_tsv",
    "write_weighted_graph",
]

PARAMETERS = {
    "canonicalize": ("raw_edges", "n", "timestamps"),
    "clustering_coefficient": ("G",),
    "connected_components": ("G",),
    "decompose": ("H", "cfg"),
    "decompose_weighted": ("H", "k"),
    "dedup": ("H",),
    "degree_histogram": ("G",),
    "effective_diameter": ("G", "exact_threshold", "num_sources", "seed"),
    "evaluate": ("real", "gen", "levels", "sv_count", "seed"),
    "fit": ("data", "family", "xmin"),
    "format_float": ("x",),
    "heavy_tail_verdict": ("data",),
    "hyperpa": ("params", "seed", "subset_cap"),
    "hyperpa_detailed": ("params", "seed", "subset_cap"),
    "ks_dstat": ("a", "b"),
    "learn_params": ("H",),
    "lilliefors_exp": ("data",),
    "loglik_ratio": ("data", "family", "xmin"),
    "naivepa": ("params", "seed"),
    "null_model": ("H", "seed"),
    "read_line_format": ("path",),
    "read_report": ("path",),
    "read_simplex_format": ("nverts_path", "simplices_path", "times_path"),
    "read_weighted_graph": ("path",),
    "recover": ("graphs",),
    "singular_values": ("G", "m"),
    "subset_sampling": ("params", "p", "rule", "seed"),
    "write_decomposed_graph": ("G", "path"),
    "write_histogram_tsv": ("hist", "path"),
    "write_line_format": ("H", "path"),
    "write_report": ("obj", "path"),
    "write_spectrum_tsv": ("values", "path"),
    "write_weighted_graph": ("G", "path"),
}

FIELDS = {
    "ComponentReport": ("sizes", "largest_frac", "second_frac", "is_giant"),
    "DecomposeConfig": ("level", "max_edge_size"),
    "DecomposedGraph": ("level", "nodes", "edge_array"),
    "FitResult": ("family", "params", "log_likelihood", "xmin"),
    "GenParams": ("n", "sizes", "new_edges"),
    "Hyperedge": ("members", "timestamp"),
    "Hypergraph": ("n", "offsets", "members", "timestamps"),
    "SamplingRule": ("kind", "k", "inner"),
    "ScoreCard": ("levels", "points", "applicable"),
    "SingularSpectrum": ("values",),
    "TailVerdict": (
        "heavy_tailed", "lilliefors_rejected", "lilliefors_stat", "lilliefors_critical", "ratios"
    ),
    "WeightedDecomposedGraph": ("base", "weights", "self_loops"),
}


def test_public_names_are_pinned_and_resolve():
    assert hyperdecomp.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(hyperdecomp, name) is not None


def test_public_function_parameters_are_pinned():
    functions = {
        name: getattr(hyperdecomp, name)
        for name in PUBLIC_NAMES
        if inspect.isfunction(getattr(hyperdecomp, name))
    }
    assert set(functions) == set(PARAMETERS)
    for name, fn in functions.items():
        assert tuple(inspect.signature(fn).parameters) == PARAMETERS[name], name


def _fields(obj) -> tuple[str, ...] | None:
    """A dataclass's or a NamedTuple's fields in order; None for anything else."""
    if isinstance(obj, type) and dataclasses.is_dataclass(obj):
        return tuple(f.name for f in dataclasses.fields(obj))
    if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields"):
        return obj._fields
    return None


def test_public_record_fields_are_pinned():
    fields = {name: _fields(getattr(hyperdecomp, name)) for name in PUBLIC_NAMES}
    assert {name: f for name, f in fields.items() if f is not None} == FIELDS


def test_runtime_dependencies_are_the_third_party_imports():
    # Keeps pyproject.toml's dependency list, and with it the floors the CI
    # matrix tests, in step with what the source really imports.
    tomllib = pytest.importorskip("tomllib")
    package = Path(hyperdecomp.__file__).resolve().parent
    imported = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"hyperdecomp"}
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0] for dep in pyproject["project"]["dependencies"]}
    assert third_party == declared == {"numpy", "scipy"}


def test_every_imported_name_is_used():
    package = Path(hyperdecomp.__file__).resolve().parent
    unused = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []
