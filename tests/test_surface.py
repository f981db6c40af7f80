"""The package's public names and the parameters of its public functions.

Adding an exported name or a function option, or dropping one, has to
edit these pins.
"""

import inspect

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
    "GroupDegreeIndex",
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
    "read_line_format": ("path", "n"),
    "read_report": ("path",),
    "read_simplex_format": ("nverts_path", "simplices_path", "times_path"),
    "read_weighted_graph": ("path",),
    "recover": ("graphs", "max_size"),
    "singular_values": ("G", "m", "rel_tol", "max_iter"),
    "subset_sampling": ("params", "p", "rule", "seed"),
    "write_decomposed_graph": ("G", "path"),
    "write_histogram_tsv": ("hist", "path"),
    "write_line_format": ("H", "path"),
    "write_report": ("obj", "path"),
    "write_spectrum_tsv": ("values", "path"),
    "write_weighted_graph": ("G", "path"),
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
