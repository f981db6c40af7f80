"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import os
import sys

import pytest

import inputs
import layers
import run
import workloads

TINY = 0.05

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_emits_every_listed_metric_with_its_unit(name):
    for trace, listed in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
        result = run.run_workload(name, seed=3, seconds=0, trace=trace, scale=TINY)
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == _units(listed)
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["metrics"]["failed_frac"]["value"] == 0.0


def test_decremented_weight_makes_roundtrip_fail():
    def corrupt(index, cmd):
        if cmd.kind != "recover":
            return
        path = cmd.argv[1]  # the level-1 weighted file
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        i = next(i for i, line in enumerate(lines) if not line.startswith(("#", "selfloop")))
        u, v, w = lines[i].split()
        lines[i] = f"{u} {v} {int(w) - 1}"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    result = run.run_workload("roundtrip", seed=3, seconds=0, trace=True, scale=TINY,
                              hook=corrupt)
    assert not result["correct"]
    assert result["metrics"]["failed_frac"]["value"] > 0


def test_output_change_since_an_earlier_run_fails(tmp_path):
    (tmp_path / "inputs").mkdir()
    wl = workloads.BUILDERS["ingest"](4, TINY, str(tmp_path / "inputs"))
    store = run.digest_store("ingest", inputs.digests(wl.input_files, str(tmp_path)))
    assert run.run_workload("ingest", seed=4, seconds=0, trace=True, scale=TINY)["correct"]
    with open(store, encoding="utf-8") as fh:
        digests = json.load(fh)
    digests["0"] = {k: "0" * 64 for k in digests["0"]}
    with open(store, "w", encoding="utf-8") as fh:
        json.dump(digests, fh)
    try:
        result = run.run_workload("ingest", seed=4, seconds=0, trace=True, scale=TINY)
    finally:
        os.unlink(store)
    assert not result["correct"]


def test_workloads_reach_every_wrapped_function():
    wrapped = {f"{layer}.{fn}" for layer, names in layers.TARGETS.items() for fn in names}
    reached = set().union(*workloads.REACHES.values())
    assert reached == wrapped
    timed = {n for names in layers.FUNCTION_TIMES.values() for n in names}
    assert timed <= wrapped
    assert set().union(*workloads.BUSY_LAYERS.values()) == set(layers.LAYERS)


def test_missing_target_is_refused_before_anything_is_wrapped(monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    import hyperdecomp.cli as cli

    original = cli.decompose
    monkeypatch.setitem(layers.TARGETS, "recovery", ("recover", "renamed_away"))
    with pytest.raises(layers.TargetMissing, match="renamed_away"):
        layers.Tracer().install()
    assert cli.decompose is original


def test_benchmark_json_follows_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert _units(BENCHMARK["end_to_end"]) == run.END_TO_END_UNITS
    assert _units(BENCHMARK["per_layer"]) == run.PER_LAYER_UNITS


def test_self_time_subtracts_children_and_their_hooks():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0.0, 0, 0, None],
        ["io.read_line_format", 1.0, 3.0, 0, 0.5, 0, 0, None],
        ["core.canonicalize", 1.5, 2.5, 1, 0.0, 0, 0, None],
        ["decompose.decompose", 4.0, 8.0, 0, 0.0, 0, 0, None],
    ]
    assert layers.self_times(spans) == [10.0 - 2.5 - 4.0, 1.0, 1.0, 4.0]


def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path):
    digests = []
    for seed in (5, 5, 6):
        d = tmp_path / str(len(digests))
        d.mkdir()
        wl = workloads.BUILDERS["generate"](seed, TINY, str(d))
        digests.append(inputs.digests(wl.input_files, str(d)))
    assert digests[0] == digests[1] != digests[2]


def test_independent_counts_on_a_hand_example():
    blocks = [
        inputs.np.array([[0, 1]]),
        inputs.np.array([[0, 1, 2], [1, 2, 3]]),
    ]
    # Level 1: nodes 0..3; edges 01 02 12 13 23.
    assert inputs.capped_level_counts(blocks, 1, 25, 10) == (4, 5)
    # Level 2: nodes 01 02 12 13 23; each triangle is a clique on three of them.
    assert inputs.capped_level_counts(blocks, 2, 7, 10) == (5, 6)
    assert inputs.capped_level_counts(blocks, 2, 2, 10) == (1, 0)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
