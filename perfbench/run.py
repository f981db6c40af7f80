"""Benchmark of the hyperdecomp CLI on seeded synthetic workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark builds its inputs
from --seed, then runs the workload's CLI commands one after another, each
in its own process (a closed loop with one client), pass after pass until
--seconds have been measured. Every output is checked.

With --trace 0 it reports the end-to-end metrics: medians over passes of
the commands' total wall time and highest peak RSS, plus the median time
a fresh interpreter takes to import the CLI. With --trace 1 it alternates
untraced and traced passes; traced commands start through trace_boot.py,
which records spans around the package's public functions, and the
report holds the per-layer metrics. The last line of stdout is the JSON
result; details, input digests and the environment go to
.perfbench-work/results/.

--workload all runs every workload both untraced and traced, ignoring
--trace, and ends with a summary line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import inputs
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
BOOT = os.path.join(HERE, "trace_boot.py")

BLAS_THREADS = "1"
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 120.0
COMMAND_KINDS = ("analyze", "evaluate", "generate", "decompose", "recover")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **layers.UNITS,
    **{f"cmd.{kind}_s": "s" for kind in COMMAND_KINDS},
    "failed_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["HYPERDECOMP_WORKERS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_process(argv: list[str], log: str) -> dict:
    """Run one process to completion; wall time and rusage from wait4."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log, "r", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "stdout": stdout,
    }


def time_import(scratch: str) -> float:
    """Wall time for a fresh interpreter to import the CLI module."""
    res = run_process([sys.executable, "-c", "import hyperdecomp.cli"],
                      os.path.join(scratch, "setup.log"))
    if res["rc"] != 0:
        raise BenchError(f"importing hyperdecomp.cli failed:\n{res['stdout']}")
    return res["wall_s"]


def run_pass(wl: workloads.Workload, out: str, traced: bool, hook=None) -> dict:
    """One pass over the workload's commands, checking each output."""
    os.makedirs(out, exist_ok=True)
    results = []
    for i, cmd in enumerate(wl.commands(out)):
        if hook is not None:
            hook(i, cmd)
        log = os.path.join(out, f"cmd{i}.log")
        spans_path = os.path.join(out, f"cmd{i}.spans.json")
        if traced:
            argv = [sys.executable, BOOT, spans_path, "--", *cmd.argv]
        else:
            argv = [sys.executable, "-m", "hyperdecomp.cli", *cmd.argv]
        res = run_process(argv, log)
        res["kind"] = cmd.kind
        res["argv"] = cmd.argv
        if res["rc"] == 3 and traced and "trace:" in res["stdout"]:
            raise BenchError(res["stdout"].strip())
        if res["rc"] != 0:
            res["failure"] = f"exit status {res['rc']}: {res['stdout'].strip()[-300:]}"
        else:
            res["failure"] = cmd.check(res["stdout"])
        if res["failure"] is None:
            res["digests"] = inputs.digests(cmd.outputs, out)
            for path in cmd.outputs:
                if path.endswith(".manifest.json"):
                    with open(path, encoding="utf-8") as fh:
                        res["manifest"] = json.load(fh)
        res["bytes_read"] = sum(os.path.getsize(p) for p in cmd.inputs if os.path.exists(p))
        res["bytes_written"] = sum(os.path.getsize(p) for p in cmd.outputs if os.path.exists(p))
        if traced and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                res["spans"] = json.load(fh)
        del res["stdout"]
        results.append(res)
    return {
        "traced": traced,
        "commands": results,
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["maxrss_mb"] for r in results),
    }


def mark_nondeterminism(passes: list[dict]) -> None:
    """Outputs that differ from the first pass's are failures."""
    first: dict[int, dict] = {}
    for p in passes:
        for j, res in enumerate(p["commands"]):
            if res["failure"] is not None:
                continue
            if res["digests"] != first.setdefault(j, res["digests"]):
                res["failure"] = "output bytes differ from an earlier pass"


def digest_store(name: str, input_digests: dict) -> str:
    """Where output digests of a workload on these exact inputs are kept."""
    key = hashlib.sha256(json.dumps(input_digests, sort_keys=True).encode()).hexdigest()[:16]
    return os.path.join(WORK, "digests", f"{name}-{key}.json")


def mark_changes_since_earlier_runs(name: str, input_digests: dict, passes: list[dict]) -> None:
    """Outputs that differ from an earlier run of this checkout on the same inputs fail."""
    path = digest_store(name, input_digests)
    current = {str(j): r["digests"] for p in passes for j, r in enumerate(p["commands"])
               if r["failure"] is None}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        for p in passes:
            for j, res in enumerate(p["commands"]):
                if res["failure"] is None and earlier.get(str(j), res["digests"]) != res["digests"]:
                    res["failure"] = "output bytes differ from an earlier run on the same inputs"
    elif len(current) == len(passes[0]["commands"]):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(current, fh, sort_keys=True)


def measure(wl: workloads.Workload, seconds: float, trace: bool, scratch: str,
            started: float, hook=None) -> tuple[list[dict], list[float]]:
    """Passes until `seconds` are measured, alternating when tracing.

    Untraced runs also time a fresh import before each pass, so that the
    import times sample the same stretch of the run as the passes, and top
    them up to SETUP_REPEATS at the end. A first import is not counted: it
    also compiles bytecode, which users pay only once.
    """
    passes: list[dict] = []
    imports: list[float] = []
    if not trace:
        time_import(scratch)
    begin = time.perf_counter()
    while True:
        for traced in ((False, True) if trace else (False,)):
            if not trace:
                imports.append(time_import(scratch))
            out = os.path.join(scratch, f"pass{len(passes)}")
            passes.append(run_pass(wl, out, traced, hook))
            shutil.rmtree(out, ignore_errors=True)
        elapsed = time.perf_counter() - begin - sum(imports)
        per_round = elapsed / (len(passes) // (2 if trace else 1))
        if elapsed + per_round > seconds or time.perf_counter() - started + per_round > RUN_DEADLINE_S:
            break
    while not trace and len(imports) < SETUP_REPEATS:
        imports.append(time_import(scratch))
    return passes, imports


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(passes: list[dict], setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "wall_s": _median([p["wall_s"] for p in passes]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
    }


def per_layer(passes: list[dict], failed: int, attempted: int) -> tuple[dict[str, float], set[str]]:
    """Per-layer metrics, and the names of the wrapped functions the traced passes hit."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        metrics, hit, read_s = layers.layer_metrics([r.get("spans", []) for r in p["commands"]])
        metrics["io.bytes_read"] = sum(r["bytes_read"] for r in p["commands"])
        metrics["io.bytes_written"] = sum(r["bytes_written"] for r in p["commands"])
        metrics["io.read_mb_per_s"] = metrics["io.bytes_read"] / 1e6 / read_s if read_s else 0.0
        per_pass.append((metrics, hit))
    out = {name: _median([m[name] for m, _ in per_pass]) for name in per_pass[0][0]}
    hit = set.union(*(h for _, h in per_pass))
    out["cli.cpu_s"] = _median([p["cpu_s"] for p in plain])
    out["cli.commands"] = float(len(plain[0]["commands"]))
    out.update(_hyperpa_manifest(plain[0]))
    for kind in COMMAND_KINDS:
        out[f"cmd.{kind}_s"] = _median(
            [sum(r["wall_s"] for r in p["commands"] if r["kind"] == kind) for p in plain])
    plain_wall = _median([p["wall_s"] for p in plain])
    out["trace.overhead_frac"] = (_median([p["wall_s"] for p in traced]) - plain_wall) / plain_wall
    out["failed_frac"] = failed / attempted
    return {name: out[name] for name in PER_LAYER_UNITS}, hit


def _hyperpa_manifest(plain_pass: dict) -> dict[str, float]:
    """Draw counts from the manifest of the pass's hyperpa command, if any."""
    counts = {"generators.hyperpa_fallback_draws": 0.0, "generators.hyperpa_capped_draws": 0.0}
    for res in plain_pass["commands"]:
        if res["kind"] == "generate" and "hyperpa" in res["argv"]:
            manifest = res.get("manifest", {})
            counts["generators.hyperpa_fallback_draws"] = float(manifest.get("fallback_draws", 0))
            counts["generators.hyperpa_capped_draws"] = float(manifest.get("capped_draws", 0))
    return counts


def check_coverage(wl_name: str, hit: set[str], metrics: dict[str, float]) -> None:
    missing = sorted(set(workloads.REACHES[wl_name]) - hit)
    if missing:
        raise BenchError(f"{wl_name}: traced pass never reached {', '.join(missing)}")
    idle = [layer for layer in workloads.BUSY_LAYERS[wl_name]
            if metrics["cli.self_s" if layer == "cli" else f"{layer}.self_s"] <= 0]
    if idle:
        raise BenchError(f"{wl_name}: no self time measured in layer(s) {', '.join(idle)}")


def environment() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": int(BLAS_THREADS),
        "git_sha": sha,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, hook=None) -> dict:
    """Build, measure and check one workload; returns the result object.

    `scale` multiplies the input sizes (tests use tiny inputs); `hook(i, cmd)`
    runs before each command, so tests can tamper with intermediate files.
    """
    started = time.perf_counter()
    scratch = os.path.join(WORK, f"tmp-{name}-{seed}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(os.path.join(scratch, "inputs"))
    try:
        wl = workloads.BUILDERS[name](seed, scale, os.path.join(scratch, "inputs"))
        passes, imports = measure(wl, seconds, trace, scratch, started, hook)
        mark_nondeterminism(passes)
        input_digests = inputs.digests(wl.input_files, scratch)
        mark_changes_since_earlier_runs(name, input_digests, passes)
        attempted = sum(len(p["commands"]) for p in passes)
        failures = [r["failure"] for p in passes for r in p["commands"] if r["failure"]]
        if trace:
            metrics, hit = per_layer(passes, len(failures), attempted)
            if not failures:
                check_coverage(name, hit, metrics)
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(passes, statistics.median(imports))
            units = END_TO_END_UNITS
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        details = {
            "workload": name,
            "seed": seed,
            "scale": scale,
            "trace": int(trace),
            "environment": environment(),
            "input_digests": input_digests,
            "setup_imports_s": imports,
            "failures": sorted(set(failures)),
            "passes": [{k: v for k, v in p.items() if k != "commands"} | {
                "commands": [{k: v for k, v in r.items() if k != "spans"}
                             for r in p["commands"]]} for p in passes],
            "result": result,
        }
        os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
        with open(os.path.join(WORK, "results", f"{name}-seed{seed}-trace{int(trace)}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(details, fh, indent=1, sort_keys=True)
        for reason in sorted(set(failures)):
            print(f"FAILED {name}: {reason}")
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyperdecomp", "cli.py")):
        print(f"error: no hyperdecomp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        runs = [(args.workload, bool(args.trace))]
    else:
        runs = [(name, trace) for name in workloads.NAMES for trace in (False, True)]
    results = []
    try:
        for name, trace in runs:
            result = run_workload(name, args.seed, args.seconds, trace)
            results.append(result)
            if len(runs) > 1:
                print(f"{name} --trace {int(trace)}: {json.dumps(result, sort_keys=True)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(runs) > 1:
        results = [{
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }]
    print(json.dumps(results[0], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
