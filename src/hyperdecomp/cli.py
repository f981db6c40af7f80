"""Command-line interface.

Subcommands: decompose, analyze, generate, evaluate, recover. All outputs
are written atomically (temp file plus rename); on failure partial outputs
are removed and the exit status is nonzero. Every random choice flows from
the --seed of analyze, generate and evaluate, so identical invocations give
identical files.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager, suppress

from . import io as hio
from .core import Hypergraph, ValidationError, dedup
from .decompose import DecomposeConfig, decompose, decompose_weighted
from .generators import (
    DEFAULT_SUBSET_CAP,
    GenParams,
    SamplingRule,
    evaluate,
    hyperpa_detailed,
    learn_params,
    naivepa,
    null_model,
    subset_sampling,
)
from .metrics import (
    MetricError,
    clustering_coefficient,
    connected_components,
    degree_histogram,
    effective_diameter,
    singular_values,
)
from .recovery import RecoveryError, recover
from .tailfit import FitError, heavy_tail_verdict

WORKERS_ENV = "HYPERDECOMP_WORKERS"


@contextmanager
def _outputs():
    """Yield write(path, writer), which runs a path-taking writer against a
    temp file and then renames it to path. If the block fails, every path
    written so far is removed."""
    written: list[str] = []

    def write(path: str, writer) -> None:
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-hyperdecomp-")
        os.close(fd)
        try:
            writer(tmp)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        written.append(path)

    try:
        yield write
    except BaseException:
        for path in written:
            with suppress(OSError):
                os.unlink(path)
        raise


def _load_hypergraph(args) -> Hypergraph:
    if args.simplex:
        nverts, simplices, times = args.simplex
        H, _ = hio.read_simplex_format(nverts, simplices, times)
        return H
    if args.input is None:
        raise ValidationError("provide an input file or --simplex triple")
    return hio.read_line_format(args.input)


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", help="hyperedge-per-line input file")
    p.add_argument(
        "--simplex",
        nargs=3,
        metavar=("NVERTS", "SIMPLICES", "TIMES"),
        help="read the three-file simplex format instead",
    )


def _workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValidationError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return workers


def _check_at_least(args, **lowest: int) -> None:
    """Runs before any input is read, as not every input reaches a setting: a
    level without edges never uses --sv-count, nor a small one --seed."""
    for name, low in lowest.items():
        if getattr(args, name) < low:
            flag = "--" + name.replace("_", "-")
            raise ValidationError(f"{flag} must be at least {low}, got {getattr(args, name)}")


def cmd_decompose(args) -> int:
    if args.weighted and args.max_edge_size is not None:
        raise ValidationError("--max-edge-size does not apply to --weighted, which is uncapped")
    H = _load_hypergraph(args)
    with _outputs() as write:
        if args.weighted:
            G = decompose_weighted(H, args.level)
            write(args.out, lambda p: hio.write_weighted_graph(G, p))
            base = G.base
        else:
            cfg = DecomposeConfig.for_level(args.level, args.max_edge_size)
            base = decompose(H, cfg)
            write(args.out, lambda p: hio.write_decomposed_graph(base, p))
    print(f"level={base.level} nodes={base.num_nodes} edges={base.num_edges}")
    return 0


def _measure_level(H: Hypergraph, level: int, args, write) -> tuple[dict, object]:
    """Phase 1: all but the tail verdict; returns (summary, degrees or None)."""
    G = decompose(H, DecomposeConfig.for_level(level, args.max_edge_size))
    report = connected_components(G)
    summary: dict = {
        "level": level,
        "nodes": G.num_nodes,
        "edges": G.num_edges,
        "components": report.to_dict(),
    }
    hist = degree_histogram(G)
    prefix = os.path.join(args.out, f"level{level}")
    write(prefix + "-degrees.tsv", lambda p: hio.write_histogram_tsv(hist, p))
    if not G.num_edges:
        return summary, None
    try:
        summary["effective_diameter"] = effective_diameter(G, seed=args.seed)
    except MetricError as exc:
        summary["effective_diameter_error"] = str(exc)
    summary["clustering"] = clustering_coefficient(G)
    spectrum = singular_values(G, m=args.sv_count)
    write(prefix + "-spectrum.tsv", lambda p: hio.write_spectrum_tsv(spectrum.values, p))
    return summary, G.degrees()


def _report_level(measured: tuple[dict, object], args, write) -> dict:
    """Phase 2 of a level: the degree-tail verdict, then the level JSON."""
    summary, degrees = measured
    if degrees is not None:
        try:
            summary["degree_tail"] = heavy_tail_verdict(degrees).to_dict()
        except FitError as exc:  # degenerate degree samples stay reportable
            summary["degree_tail_error"] = str(exc)
    write(os.path.join(args.out, f"level{summary['level']}.json"),
          lambda p: hio.write_report(summary, p))
    return summary


def cmd_analyze(args) -> int:
    _check_at_least(args, seed=0, sv_count=1)
    workers = _workers()
    H = dedup(_load_hypergraph(args))
    levels = _parse_levels(args.levels)
    os.makedirs(args.out, exist_ok=True)
    with _outputs() as write, ExitStack() as stack:
        # No pool for one worker: its thread's own malloc arena adds about
        # 1 MB of RSS, and concurrent.futures 0.6 MB and 6 ms of imports.
        run_all = map
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            run_all = stack.enter_context(ThreadPoolExecutor(max_workers=workers)).map
        # Every spectrum runs before the first tail test, whose Monte Carlo table
        # loads numpy.random and numpy.ma: 8 MB that would sit under eigvalsh.
        measured = list(run_all(lambda lv: _measure_level(H, lv, args, write), levels))
        summaries = list(run_all(lambda m: _report_level(m, args, write), measured))
    for s in summaries:
        comp = s["components"]
        line = (
            f"level={s['level']} nodes={s['nodes']} edges={s['edges']} "
            f"giant={comp['is_giant']}"
        )
        if "effective_diameter" in s:
            line += (
                f" diameter={s['effective_diameter']:.4g}"
                f" clustering={s['clustering']:.4g}"
            )
        print(line)
    return 0


def _parse_levels(raw: str) -> list[int]:
    try:
        levels = sorted({int(tok) for tok in raw.split(",") if tok})
    except ValueError:
        raise ValidationError(f"bad level list {raw!r}")
    if not levels:
        raise ValidationError("no levels requested")
    return levels


def _load_params(args, H: Hypergraph | None) -> GenParams:
    if args.params is not None:
        return GenParams.from_dict(hio.read_report(args.params))
    if H is None:
        raise ValidationError("--params is required when no input data is given")
    return learn_params(dedup(H))


def cmd_generate(args) -> int:
    _check_at_least(args, seed=0)
    H = None
    if args.input is not None or args.simplex:
        H = _load_hypergraph(args)
    if args.rule != "k-most-recent" and (args.window is not None or args.inner is not None):
        raise ValidationError(
            f"--window and --inner only apply to --rule k-most-recent, not {args.rule!r}"
        )
    manifest: dict = {"model": args.model, "seed": args.seed}
    if args.model == "null":
        if H is None:
            raise ValidationError("the null model needs input data")
        if args.params is not None:
            raise ValidationError("--params does not apply to --model null")
        out_H = null_model(H, seed=args.seed)
    else:
        params = _load_params(args, H)
        manifest["params"] = params.to_dict()
        if args.model == "hyperpa":
            out_H, stats = hyperpa_detailed(
                params, seed=args.seed, subset_cap=args.subset_cap
            )
            manifest["subset_cap"] = args.subset_cap
            manifest.update(stats.to_dict())
        elif args.model == "naivepa":
            out_H = naivepa(params, seed=args.seed)
        elif args.model == "subset":
            rule = SamplingRule(kind=args.rule, k=args.window, inner=args.inner or "random")
            out_H = subset_sampling(params, p=args.p, rule=rule, seed=args.seed)
            manifest["p"] = args.p
            manifest["rule"] = rule.to_dict()
        else:
            raise ValidationError(f"unknown model {args.model!r}")
    with _outputs() as write:
        write(args.out, lambda p: hio.write_line_format(out_H, p))
        write(args.out + ".manifest.json", lambda p: hio.write_report(manifest, p))
    print(f"model={args.model} nodes={out_H.n} hyperedges={out_H.num_edges}")
    return 0


def cmd_evaluate(args) -> int:
    _check_at_least(args, seed=0, sv_count=1)
    real = dedup(hio.read_line_format(args.real))
    gen = dedup(hio.read_line_format(args.generated))
    card = evaluate(
        real,
        gen,
        levels=_parse_levels(args.levels),
        sv_count=args.sv_count,
        seed=args.seed,
    )
    with _outputs() as write:
        write(args.out, lambda p: hio.write_report(card, p))
    print(f"points={card.points} applicable={card.applicable}")
    return 0


def cmd_recover(args) -> int:
    graphs = {}
    for path in args.graphs:
        G = hio.read_weighted_graph(path)
        if G.level in graphs:
            raise ValidationError(f"level {G.level} provided twice")
        graphs[G.level] = G
    H = recover(graphs)
    with _outputs() as write:
        write(args.out, lambda p: hio.write_line_format(H, p))
    print(f"nodes={H.n} hyperedges={H.num_edges}")
    return 0


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=42, help="seed for all randomness")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperdecomp",
        description="Multi-level hypergraph decomposition, pattern analysis, "
        "generation, and recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="write one decomposition level")
    _add_input_args(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--max-edge-size", type=int, default=None)
    p.add_argument("--weighted", action="store_true", help="uncapped, with weights")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("analyze", help="per-level structural reports")
    _add_seed(p)
    _add_input_args(p)
    p.add_argument("--levels", default="1,2,3,4")
    p.add_argument("--max-edge-size", type=int, default=None)
    p.add_argument("--sv-count", type=int, default=500)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="run a generator")
    _add_seed(p)
    _add_input_args(p)
    p.add_argument(
        "--model", required=True, choices=["hyperpa", "naivepa", "subset", "null"]
    )
    p.add_argument("--params", help="JSON file with generator parameters")
    p.add_argument("--subset-cap", type=int, default=DEFAULT_SUBSET_CAP)
    p.add_argument("--p", type=float, default=0.8)
    p.add_argument("--rule", default="random", choices=["random", "recent", "k-most-recent"])
    p.add_argument("--window", type=int, default=None, help="window for k-most-recent")
    p.add_argument("--inner", choices=["random", "recent"], help="k-most-recent only; default random")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score generated against reference data")
    _add_seed(p)
    p.add_argument("real")
    p.add_argument("generated")
    p.add_argument("--levels", default="1,2,3,4")
    p.add_argument("--sv-count", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recover", help="rebuild hyperedges from weighted levels")
    p.add_argument("graphs", nargs="+", help="weighted decomposition files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_recover)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ValidationError,
        hio.FormatError,
        MetricError,
        RecoveryError,
        FitError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
