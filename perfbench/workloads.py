"""The four workloads: seeded inputs, CLI commands and output checks.

Each builder writes its inputs from the seed into a directory and returns
a `Workload` whose `commands(out_dir)` lists the CLI invocations of one
pass, in order. A command's `check` looks at its stdout and output files
and returns a failure reason, or None when the output is right.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import inputs

WHY = {
    "analyze-evaluate": "measure-and-score path: metrics and tailfit dominate analyze and evaluate",
    "ingest": "large simplex input through the reader, canonicalize and capped decompose; no metric runs",
    "roundtrip": "weighted decompose writes seven levels and recover reads and peels them back",
    "generate": "the four generator models, learning parameters from a reference or a params file",
}
NAMES = tuple(WHY)

# Sizes at scale 1; tests run the same code at a small scale.
PA_ARRIVALS = 700
INGEST_HYPEREDGES = 20_000
INGEST_ID_RANGE = 100_000
ROUNDTRIP_HYPEREDGES = 300
ROUNDTRIP_ID_RANGE = 12_000
GENERATE_ARRIVALS = 25_000
ROUNDTRIP_LEVELS = 7
SV_COUNT = 100


@dataclass
class Command:
    kind: str
    argv: list[str]
    inputs: list[str]
    outputs: list[str]
    check: Callable[[str], str | None]


@dataclass
class Workload:
    input_files: list[str]
    commands: Callable[[str], list[Command]]


def _scaled(base: int, scale: float, floor: int) -> int:
    return max(floor, int(round(base * scale)))


def _read_hyperedges(path: str) -> list[tuple[int, ...]]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            toks = [t for t in line.split() if not t.startswith("t=")]
            if toks and not toks[0].startswith("#"):
                out.append(tuple(sorted(int(t) for t in toks)))
    return out


def _field(stdout: str, key: str) -> int | None:
    for tok in stdout.split():
        if tok.startswith(key + "="):
            return int(tok[len(key) + 1 :])
    return None


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def analyze_evaluate(seed: int, scale: float, work: str) -> Workload:
    arrivals = _scaled(PA_ARRIVALS, scale, 300)
    ref = os.path.join(work, "reference.txt")
    gen = os.path.join(work, "generated.txt")
    inputs.write_line(ref, inputs.preferential_attachment(seed, arrivals), timestamps=True)
    inputs.write_line(gen, inputs.preferential_attachment(seed + 1, arrivals), timestamps=True)
    levels = (1, 2, 3, 4)

    def commands(out: str) -> list[Command]:
        adir = os.path.join(out, "analyze")
        reports = [os.path.join(adir, f"level{lv}.json") for lv in levels]
        card = os.path.join(out, "scorecard.json")

        def check_analyze(stdout: str) -> str | None:
            for lv, path in zip(levels, reports):
                if not os.path.exists(path):
                    return f"level {lv} report missing"
                with open(path, encoding="utf-8") as fh:
                    report = json.load(fh)
                if report["edges"] == 0:
                    continue
                rows = _count_lines(os.path.join(adir, f"level{lv}-spectrum.tsv")) - 1
                want = min(SV_COUNT, report["nodes"])
                if rows != want:
                    return f"level {lv} spectrum has {rows} rows, expected {want}"
            return None

        def check_evaluate(stdout: str) -> str | None:
            with open(card, encoding="utf-8") as fh:
                score = json.load(fh)
            if not 0 <= score["points"] <= score["applicable"]:
                return f"points {score['points']} outside [0, {score['applicable']}]"
            return None

        lv = ",".join(map(str, levels))
        return [
            Command(
                "analyze",
                ["analyze", ref, "--levels", lv, "--sv-count", str(SV_COUNT),
                 "--seed", str(seed), "--out", adir],
                [ref],
                [os.path.join(adir, name) for lv_ in levels for name in (
                    f"level{lv_}.json", f"level{lv_}-degrees.tsv", f"level{lv_}-spectrum.tsv")],
                check_analyze,
            ),
            Command(
                "evaluate",
                ["evaluate", ref, gen, "--levels", lv, "--seed", str(seed), "--out", card],
                [ref, gen],
                [card],
                check_evaluate,
            ),
        ]

    return Workload([ref, gen], commands)


def ingest(seed: int, scale: float, work: str) -> Workload:
    count = _scaled(INGEST_HYPEREDGES, scale, 500)
    blocks = inputs.ingest_blocks(seed, count, INGEST_ID_RANGE)
    files = list(inputs.write_simplex(os.path.join(work, "ingest"), inputs.interleave(blocks, seed)))
    caps = {1: 25, 2: 7}
    expected = {lv: inputs.capped_level_counts(blocks, lv, cap, INGEST_ID_RANGE)
                for lv, cap in caps.items()}

    def commands(out: str) -> list[Command]:
        cmds = []
        for lv in caps:
            path = os.path.join(out, f"level{lv}.txt")

            def check(stdout: str, lv=lv, path=path) -> str | None:
                got = (_field(stdout, "nodes"), _field(stdout, "edges"))
                if got != expected[lv]:
                    return f"level {lv} nodes/edges {got}, independent count {expected[lv]}"
                if _count_lines(path) != expected[lv][1] + 1:
                    return f"level {lv} edge file does not hold {expected[lv][1]} edges"
                return None

            cmds.append(Command(
                "decompose",
                ["decompose", "--simplex", *files, "--level", str(lv), "--out", path],
                files, [path], check,
            ))
        return cmds

    return Workload(files, commands)


def roundtrip(seed: int, scale: float, work: str) -> Workload:
    count = _scaled(ROUNDTRIP_HYPEREDGES, scale, 100)
    edges = inputs.roundtrip_edges(seed, count, ROUNDTRIP_ID_RANGE)
    src = os.path.join(work, "hyperedges.txt")
    inputs.write_line(src, edges, timestamps=False)
    want = Counter(edges)

    def commands(out: str) -> list[Command]:
        weighted = [os.path.join(out, f"weighted{k}.txt") for k in range(1, ROUNDTRIP_LEVELS + 1)]
        back = os.path.join(out, "recovered.txt")

        def check_recover(stdout: str) -> str | None:
            got = Counter(_read_hyperedges(back))
            if got != want:
                return f"recovered multiset differs from input ({sum((got - want).values())} "\
                       f"extra, {sum((want - got).values())} missing)"
            return None

        cmds = [
            Command("decompose",
                    ["decompose", src, "--level", str(k), "--weighted", "--out", path],
                    [src], [path], lambda stdout: None)
            for k, path in enumerate(weighted, start=1)
        ]
        cmds.append(Command("recover", ["recover", *weighted, "--out", back],
                            weighted, [back], check_recover))
        return cmds

    return Workload([src], commands)


def generate(seed: int, scale: float, work: str) -> Workload:
    arrivals = _scaled(GENERATE_ARRIVALS, scale, 300)
    ref_edges = inputs.preferential_attachment(seed, arrivals)
    ref = os.path.join(work, "reference.txt")
    params = os.path.join(work, "params.json")
    inputs.write_line(ref, ref_edges, timestamps=True)
    inputs.write_params(params, arrivals)
    ref_sizes = Counter(len(e) for e in ref_edges)

    def commands(out: str) -> list[Command]:
        def run(model: str, source: list[str], extra: list[str], same_sizes: bool) -> Command:
            path = os.path.join(out, f"{model}.txt")
            manifest = path + ".manifest.json"

            def check(stdout: str) -> str | None:
                n = _field(stdout, "nodes")
                edges = _read_hyperedges(path)
                if n is None or any(e[-1] >= n for e in edges):
                    return f"{model}: an output id is not below n={n}"
                if same_sizes and Counter(map(len, edges)) != ref_sizes:
                    return f"{model}: hyperedge sizes differ from the input's"
                with open(manifest, encoding="utf-8") as fh:
                    if json.load(fh).get("seed") != seed:
                        return f"{model}: manifest does not carry seed {seed}"
                return None

            argv = ["generate", *source, "--model", model, *extra, "--seed", str(seed), "--out", path]
            files = [params] if source[:1] == ["--params"] else [ref]
            return Command("generate", argv, files, [path, manifest], check)

        return [
            run("hyperpa", [ref], [], False),
            run("naivepa", ["--params", params], [], False),
            run("subset", ["--params", params], ["--rule", "recent"], False),
            run("null", [ref], [], True),
        ]

    return Workload([ref, params], commands)


BUILDERS = {
    "analyze-evaluate": analyze_evaluate,
    "ingest": ingest,
    "roundtrip": roundtrip,
    "generate": generate,
}

# Functions each workload's traced pass must reach; together they cover
# every function in layers.TARGETS.
REACHES = {
    "analyze-evaluate": (
        "cli.main", "cli.cmd_analyze", "cli.cmd_evaluate", "io.read_line_format",
        "io.write_report", "io.write_histogram_tsv", "io.write_spectrum_tsv",
        "core.canonicalize", "core.dedup", "decompose.decompose",
        "metrics.connected_components", "metrics.degree_histogram",
        "metrics.effective_diameter", "metrics.clustering_coefficient",
        "metrics.singular_values", "tailfit.heavy_tail_verdict", "tailfit.ks_dstat",
        "generators.evaluate",
    ),
    "ingest": ("cli.main", "cli.cmd_decompose", "io.read_simplex_format",
               "core.canonicalize", "decompose.decompose"),
    "roundtrip": (
        "cli.main", "cli.cmd_decompose", "cli.cmd_recover", "io.read_line_format",
        "io.write_weighted_graph", "io.read_weighted_graph", "io.write_line_format",
        "core.canonicalize", "decompose.decompose_weighted", "recovery.recover",
    ),
    "generate": (
        "cli.main", "cli.cmd_generate", "io.read_line_format", "io.write_line_format",
        "io.write_report", "core.canonicalize", "core.dedup", "generators.learn_params",
        "generators.hyperpa_detailed", "generators.naivepa", "generators.subset_sampling",
        "generators.null_model",
    ),
}

# Layers whose self time must be nonzero on each workload's traced pass.
BUSY_LAYERS = {
    "analyze-evaluate": ("cli", "io", "decompose", "metrics", "tailfit", "generators"),
    "ingest": ("cli", "io", "core", "decompose"),
    "roundtrip": ("cli", "io", "decompose", "recovery"),
    "generate": ("cli", "io", "core", "generators"),
}
