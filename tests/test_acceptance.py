"""Acceptance criteria, one test per criterion.

Each test carries an `acceptance` marker; conftest prints one summary line
per criterion at the end of the run. Tests needing reference datasets skip
with a message naming the expected location (see README for the layout).
Synthetic portions of mixed criteria are asserted before any skip, so a
SKIPPED line never hides a synthetic failure.
"""

import time
from collections import Counter

import numpy as np
import pytest

from hyperdecomp import (
    DecomposeConfig,
    GenParams,
    canonicalize,
    clustering_coefficient,
    connected_components,
    decompose,
    decompose_weighted,
    dedup,
    effective_diameter,
    evaluate,
    heavy_tail_verdict,
    hyperpa,
    hyperpa_detailed,
    learn_params,
    lilliefors_exp,
    loglik_ratio,
    naivepa,
    null_model,
    recover,
    singular_values,
    subset_sampling,
)
from hyperdecomp.decompose import HIGHER_LEVEL_CAP, NODE_LEVEL_CAP

from conftest import adjacency_csr, load_dataset, random_hypergraph
from test_decompose import edge_pairs, oracle_unweighted, oracle_weighted, subsets, weight_map
from test_metrics import random_graph

MINUTES_BUDGET = 900.0  # generous bound for the criteria stated as "minutes"


@pytest.mark.acceptance(num=1, desc="size-8 hyperedge at k=3 gives 56 nodes, 1540 edges")
def test_criterion_01_decomposition_arithmetic():
    start = time.perf_counter()
    H = canonicalize([list(range(8))])
    G = decompose(H, DecomposeConfig.for_level(3, max_edge_size=8))
    assert G.num_nodes == 56
    assert G.num_edges == 1540
    assert time.perf_counter() - start < 1.0


@pytest.mark.acceptance(num=2, desc="recovery round trip on 300 random hypergraphs")
def test_criterion_02_recovery_roundtrip():
    start = time.perf_counter()
    for seed in range(300):
        rng = np.random.default_rng(seed)
        H = random_hypergraph(rng, max_nodes=40, max_edge_size=6, max_edges=40)
        levels = {k: decompose_weighted(H, k) for k in range(1, max(2, H.max_edge_size()))}
        R = recover(levels)
        assert Counter(R.member_tuples()) == Counter(H.member_tuples()), f"seed {seed}"
    assert time.perf_counter() - start < 60.0


@pytest.mark.acceptance(num=3, desc="decompositions match brute-force oracles, 100 hypergraphs")
def test_criterion_03_oracle_equivalence():
    start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        H = random_hypergraph(rng, max_nodes=12, max_edge_size=6, max_edges=14)
        members = H.member_tuples()
        for k in range(1, 5):
            cap = NODE_LEVEL_CAP if k == 1 else HIGHER_LEVEL_CAP
            G = decompose(H, DecomposeConfig.for_level(k))
            nodes, edges = oracle_unweighted(members, k, cap)
            assert subsets(G) == nodes
            assert edge_pairs(G) == edges

            W = decompose_weighted(H, k)
            wnodes, wedges, loops = oracle_weighted(members, k)
            assert subsets(W.base) == wnodes
            assert weight_map(W) == wedges
            if k == 1:
                assert {wnodes[i]: c for i, c in W.self_loops.items()} == loops
            else:
                assert not W.self_loops
    assert time.perf_counter() - start < 30.0


@pytest.mark.acceptance(num=4, desc="email-Eu and DAWN node-level statistics")
def test_criterion_04_node_level_statistics():
    eu = load_dataset("email-Eu")
    dawn = load_dataset("DAWN")
    start = time.perf_counter()

    G = decompose(eu, DecomposeConfig.for_level(1))
    assert G.num_nodes == 998
    assert connected_components(G).largest_frac == pytest.approx(0.98, abs=0.01)
    assert effective_diameter(G) == pytest.approx(2.8, abs=0.2)
    assert clustering_coefficient(G) == pytest.approx(0.49, abs=0.02)

    G = decompose(dawn, DecomposeConfig.for_level(1))
    assert G.num_nodes == 2558
    assert effective_diameter(G) == pytest.approx(2.6, abs=0.2)
    assert clustering_coefficient(G) == pytest.approx(0.64, abs=0.02)
    assert time.perf_counter() - start < MINUTES_BUDGET


@pytest.mark.acceptance(num=5, desc="email-Eu edge-level statistics")
def test_criterion_05_edge_level_statistics():
    eu = load_dataset("email-Eu")
    start = time.perf_counter()
    G = decompose(eu, DecomposeConfig.for_level(2))
    assert G.num_nodes == 13_499
    assert effective_diameter(G) == pytest.approx(5.71, abs=0.4)
    assert clustering_coefficient(G) == pytest.approx(0.81, abs=0.03)
    assert connected_components(G).largest_frac == pytest.approx(0.98, abs=0.01)
    assert time.perf_counter() - start < MINUTES_BUDGET


@pytest.mark.acceptance(num=6, desc="triangle-level shattering verdicts")
def test_criterion_06_shattering_verdicts():
    ndc = load_dataset("NDC-classes")
    tags = load_dataset("tags-math")
    start = time.perf_counter()

    report = connected_components(decompose(ndc, DecomposeConfig.for_level(3)))
    assert report.largest_frac == pytest.approx(0.27, abs=0.02)
    assert report.second_frac == pytest.approx(0.11, abs=0.02)
    assert not report.is_giant

    for level in (1, 2, 3):
        G = decompose(tags, DecomposeConfig.for_level(level))
        assert connected_components(G).is_giant, f"level {level}"
    assert time.perf_counter() - start < MINUTES_BUDGET


@pytest.mark.acceptance(num=7, desc="null-model statistics on email-Eu")
def test_criterion_07_null_model_statistics():
    eu = load_dataset("email-Eu")
    start = time.perf_counter()
    diameters = []
    clusterings = []
    for seed in range(10):
        G = decompose(null_model(eu, seed=seed), DecomposeConfig.for_level(1))
        diameters.append(effective_diameter(G))
        clusterings.append(clustering_coefficient(G))
    assert np.mean(diameters) == pytest.approx(1.85, abs=0.1)
    assert np.mean(clusterings) == pytest.approx(0.36, abs=0.05)

    G = decompose(null_model(eu, seed=0), DecomposeConfig.for_level(2))
    assert not connected_components(G).is_giant
    assert time.perf_counter() - start < MINUTES_BUDGET


@pytest.mark.acceptance(num=8, desc="tail-test calibration and email-Eu degree verdict")
def test_criterion_08_statistical_calibration():
    start = time.perf_counter()

    rejections = 0
    negative_powerlaw = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        x = rng.exponential(scale=2.0, size=5000)
        rejected, _, _ = lilliefors_exp(x)
        rejections += int(rejected)
        r = loglik_ratio(x, "powerlaw")
        negative_powerlaw += int(r is not None and r < 0)
    assert rejections <= 5
    assert negative_powerlaw >= 95

    heavy = 0
    for trial in range(100):
        rng = np.random.default_rng(77_000 + trial)
        x = rng.pareto(2.5, size=5000) + 1.0
        heavy += int(heavy_tail_verdict(x).heavy_tailed)
    assert heavy >= 95
    assert time.perf_counter() - start < 300.0

    eu = load_dataset("email-Eu")
    degrees = decompose(eu, DecomposeConfig.for_level(1)).degrees()
    verdict = heavy_tail_verdict(degrees.astype(float))
    assert verdict.ratios["powerlaw"] < 0
    assert verdict.ratios["lognormal"] < 0
    assert verdict.lilliefors_rejected
    assert verdict.heavy_tailed
    assert time.perf_counter() - start < 300.0


@pytest.mark.acceptance(num=9, desc="iterative spectra match dense SVD; star closed forms")
def test_criterion_09_singular_values(lanczos_blocks):
    start = time.perf_counter()
    iterated = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 61))
        G = random_graph(rng, n, float(rng.uniform(0.05, 0.5)))
        m = int(rng.integers(1, max(2, G.num_nodes - 2)))
        lanczos_blocks.clear()
        got = singular_values(G, m=m)
        iterated += bool(lanczos_blocks)
        dense = np.linalg.svd(
            adjacency_csr(G).toarray().astype(float), compute_uv=False
        )
        tol = 1e-6 * max(1.0, float(dense[0]))
        assert np.all(np.abs(np.asarray(got.values) - dense[:m]) <= tol), f"seed {seed}"
    # Only seed 27's twin quotient has no block with m <= q - 2.
    assert iterated == 49

    for leaves in (3, 9, 20):
        star = canonicalize([[0, i] for i in range(1, leaves + 1)])
        G = decompose(star, DecomposeConfig.for_level(1))
        values = np.asarray(singular_values(G, m=G.num_nodes).values)
        assert values[0] == pytest.approx(np.sqrt(leaves), abs=1e-9)
        assert values[1] == pytest.approx(np.sqrt(leaves), abs=1e-9)
        assert np.all(np.abs(values[2:]) < 1e-9)
    assert time.perf_counter() - start < 30.0


@pytest.mark.acceptance(num=10, desc="generator invariants: fallback bound, determinism, null sizes, self-score")
def test_criterion_10_generator_properties():
    spread = GenParams(
        n=60,
        sizes={2: 0.3, 3: 0.2, 4: 0.15, 5: 0.1, 6: 0.1, 7: 0.05, 8: 0.05, 9: 0.05},
        new_edges={1: 0.6, 2: 0.4},
    )
    bound = spread.max_size // 2 - 1
    for seed in range(200):
        _, stats = hyperpa_detailed(spread, seed=seed)
        assert stats.fallback_draws <= bound, f"seed {seed}"

    params = GenParams(
        n=120, sizes={2: 0.5, 3: 0.3, 4: 0.2}, new_edges={0: 0.2, 1: 0.5, 2: 0.3}
    )
    H = hyperpa(params, seed=0)
    for make in (
        lambda s: hyperpa(params, seed=s),
        lambda s: naivepa(params, seed=s),
        lambda s: subset_sampling(params, seed=s),
        lambda s: null_model(H, seed=s),
    ):
        assert make(11).member_tuples() == make(11).member_tuples()

    N = null_model(H, seed=3)
    assert Counter(len(e) for e in N.member_tuples()) == Counter(
        len(e) for e in H.member_tuples()
    )

    big = hyperpa(
        GenParams(n=400, sizes={2: 0.3, 3: 0.4, 4: 0.3}, new_edges={1: 0.6, 2: 0.4}),
        seed=1,
    )
    card = evaluate(big, big)
    assert card.applicable >= 5
    assert card.points == card.applicable


@pytest.mark.acceptance(num=11, desc="HyperPA outscores NaivePA; 4clique-level giant retention")
def test_criterion_11_generator_comparison():
    eu = dedup(load_dataset("email-Eu"))
    tags = dedup(load_dataset("tags-math"))
    start = time.perf_counter()

    for name, H in (("email-Eu", eu), ("tags-math", tags)):
        params = learn_params(H)
        hyperpa_scores = [evaluate(H, hyperpa(params, seed=s)).points for s in range(5)]
        naivepa_scores = [evaluate(H, naivepa(params, seed=s)).points for s in range(5)]
        assert np.mean(hyperpa_scores) > np.mean(naivepa_scores), (
            f"{name}: {hyperpa_scores} vs {naivepa_scores}"
        )

    params = learn_params(eu)
    for seed in range(5):
        G = decompose(hyperpa(params, seed=seed), DecomposeConfig.for_level(4))
        assert connected_components(G).is_giant, f"hyperpa seed {seed}"
        G = decompose(naivepa(params, seed=seed), DecomposeConfig.for_level(4))
        assert connected_components(G).largest_frac < 0.1, f"naivepa seed {seed}"
    assert time.perf_counter() - start <= 1800.0
