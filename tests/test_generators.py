"""Generator semantics, determinism, and the evaluation scorecard."""

import hashlib
import json
import random
import tracemalloc
from array import array
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperdecomp import (
    DecomposeConfig,
    GenParams,
    GroupDegreeIndex,
    SamplingRule,
    ValidationError,
    canonicalize,
    connected_components,
    dedup,
    decompose,
    evaluate,
    hyperpa,
    hyperpa_detailed,
    learn_params,
    naivepa,
    null_model,
    subset_sampling,
)
from hyperdecomp import generators as gen_mod

PARAMS = GenParams(
    n=200,
    sizes={1: 0.1, 2: 0.4, 3: 0.3, 4: 0.2},
    new_edges={0: 0.2, 1: 0.5, 2: 0.3},
)


# --- parameters ------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValidationError):
        GenParams(n=0, sizes={2: 1.0}, new_edges={1: 1.0})
    with pytest.raises(ValidationError):
        GenParams(n=5, sizes={0: 1.0}, new_edges={1: 1.0})
    with pytest.raises(ValidationError):
        GenParams(n=5, sizes={2: 0.5}, new_edges={1: 1.0})
    with pytest.raises(ValidationError):
        GenParams(n=5, sizes={2: 1.0}, new_edges={-1: 1.0})
    with pytest.raises(ValidationError):
        GenParams(n=5, sizes={2: -0.2, 3: 1.2}, new_edges={1: 1.0})


def test_params_roundtrip_dict():
    p = GenParams.from_dict(PARAMS.to_dict())
    assert p == PARAMS
    assert PARAMS.max_size == 4


def test_learn_params_worked_example():
    H = dedup(canonicalize([[0, 1], [0, 2], [1, 2, 3]], timestamps=[0, 1, 2]))
    p = learn_params(H)
    assert p.n == 4
    assert p.sizes == {2: pytest.approx(2 / 3), 3: pytest.approx(1 / 3)}
    assert p.new_edges == {0: pytest.approx(1 / 4), 1: pytest.approx(3 / 4)}


def test_learn_params_tie_breaking_is_stable():
    # Equal timestamps keep input order: [1] arrives first, so [0, 1]
    # lands on the later node and each node absorbs one arrival.  The
    # reversed order would give one node both.
    H = dedup(canonicalize([[1], [0, 1]], timestamps=[3, 3]))
    p = learn_params(H)
    assert p.new_edges == {1: pytest.approx(1.0)}


def test_learn_params_counts_silent_nodes_as_zero():
    H = dedup(canonicalize([[0, 1, 2]], timestamps=[0], n=5))
    p = learn_params(H)
    assert p.new_edges == {0: pytest.approx(4 / 5), 1: pytest.approx(1 / 5)}


def learn_params_oracle(H):
    """Size and arrival laws by a loop over hyperedges in timestamp order."""
    new_id, arrivals, sizes = {}, Counter(), Counter()
    for e in sorted(H.edges, key=lambda e: e.timestamp):
        for v in e.members:
            new_id.setdefault(v, len(new_id))
        arrivals[max(new_id[v] for v in e.members)] += 1
        sizes[len(e)] += 1
    per_node = Counter(arrivals.get(i, 0) for i in range(H.n))
    return (
        {k: c / H.num_edges for k, c in sorted(sizes.items())},
        {k: c / H.n for k, c in sorted(per_node.items())},
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_learn_params_matches_loop_oracle(data):
    edge = st.lists(st.integers(0, 11), min_size=1, max_size=5)
    raw = data.draw(st.lists(edge, min_size=1, max_size=15))
    stamps = data.draw(st.lists(st.integers(-2, 2), min_size=len(raw), max_size=len(raw)))
    extra = data.draw(st.integers(0, 3))  # nodes that never appear
    H = dedup(canonicalize(raw, n=1 + max(map(max, raw)) + extra, timestamps=stamps))
    p = learn_params(H)
    assert p.n == H.n
    assert (p.sizes, p.new_edges) == learn_params_oracle(H)
    assert all(type(k) is int for k in [*p.sizes, *p.new_edges])


def test_learn_params_preconditions():
    with pytest.raises(ValidationError):
        learn_params(canonicalize([[0, 1]], timestamps=[0]))  # not deduplicated
    with pytest.raises(ValidationError):
        learn_params(dedup(canonicalize([[0, 1]])))  # no timestamps
    with pytest.raises(ValidationError, match="empty"):
        learn_params(dedup(canonicalize([], timestamps=[])))


# --- group-degree index ----------------------------------------------------


def test_index_degree_recount_matches_stored_hyperedges():
    rng = random.Random(0)
    index = GroupDegreeIndex(cap=3)
    stored = []
    for _ in range(40):
        size = rng.randint(1, 6)
        members = tuple(sorted(rng.sample(range(30), size)))
        stored.append(members)
        index.add_hyperedge(members)
    for j in (1, 2, 3):
        want = Counter()
        for e in stored:
            for sub in combinations(e, j):
                want[sub] += 1
        assert index.degrees(j) == want
        assert index.count(j) == sum(want.values())


def test_index_sampling_is_degree_proportional():
    index = GroupDegreeIndex(cap=1)
    for _ in range(3):
        index.add_hyperedge((0,))
    index.add_hyperedge((1,))
    rng = random.Random(1)
    draws = Counter(index.sample(1, rng) for _ in range(8000))
    assert draws[(0,)] / 8000 == pytest.approx(0.75, abs=0.03)


def test_index_errors():
    with pytest.raises(ValidationError):
        GroupDegreeIndex(cap=0)
    index = GroupDegreeIndex(cap=2)
    with pytest.raises(ValidationError):
        index.sample(2, random.Random(0))


def test_index_rejects_ids_beyond_uint32_rows():
    top = 2**32 - 1
    index = GroupDegreeIndex(cap=2)
    index.add_hyperedge((0, top))
    assert index.sample(2, random.Random(0)) == (0, top)
    for members in ((0, top + 1), (np.int64(0), np.int64(top + 1))):
        with pytest.raises(ValidationError, match="uint32"):
            index.add_hyperedge(members)
    assert index.count(1) == 2 and index.count(2) == 1


# --- attachment generators -------------------------------------------------


def test_hyperpa_shape_and_determinism():
    H1, stats = hyperpa_detailed(PARAMS, seed=9)
    H2, _ = hyperpa_detailed(PARAMS, seed=9)
    assert H1.member_tuples() == H2.member_tuples()
    assert H1.n == PARAMS.n + 2 * (PARAMS.max_size // 2)
    assert stats.fallback_draws >= 0 and stats.capped_draws == 0
    assert hyperpa(PARAMS, seed=9).member_tuples() == H1.member_tuples()
    assert hyperpa(PARAMS, seed=10).member_tuples() != H1.member_tuples()


def test_hyperpa_edges_are_valid_sets():
    H, _ = hyperpa_detailed(PARAMS, seed=3)
    sizes = set()
    for e in H.edges:
        assert len(set(e.members)) == len(e.members)
        assert all(0 <= v < H.n for v in e.members)
        sizes.add(len(e.members))
    assert sizes <= {2} | set(PARAMS.sizes)


def test_hyperpa_new_member_is_latest_node():
    # Groups predate the arriving node, so every non-seed hyperedge is
    # topped by its arrival, and arrivals only move forward.
    H, _ = hyperpa_detailed(PARAMS, seed=4)
    seed_nodes = 2 * (PARAMS.max_size // 2)
    maxima = [max(e.members) for e in H.edges[seed_nodes // 2 :]]
    assert all(m >= seed_nodes for m in maxima)
    assert maxima == sorted(maxima)


def test_hyperpa_fallback_bound():
    spread = GenParams(
        n=80,
        sizes={2: 0.3, 3: 0.2, 4: 0.1, 5: 0.1, 6: 0.1, 7: 0.1, 8: 0.05, 9: 0.05},
        new_edges={1: 0.5, 2: 0.5},
    )
    bound = spread.max_size // 2 - 1
    for seed in range(25):
        _, stats = hyperpa_detailed(spread, seed=seed)
        assert stats.fallback_draws <= bound


def test_hyperpa_capped_branch_counts_separately():
    wide = GenParams(n=40, sizes={2: 0.5, 9: 0.5}, new_edges={1: 1.0})
    _, stats = hyperpa_detailed(wide, seed=0, subset_cap=6)
    assert stats.capped_draws > 0
    # With the cap raised past s-1 the same runs use group draws instead.
    _, stats_raised = hyperpa_detailed(wide, seed=0, subset_cap=8)
    assert stats_raised.capped_draws == 0


def test_hyperpa_index_updates_batched_per_node(monkeypatch):
    """All of a node's hyperedges are drawn before any enters the index."""
    events = []

    class NodeRows(array):
        """The size-1 rows, which unit draws index without `sample`."""

        def __getitem__(self, i):
            events.append(("sample", 1))
            return super().__getitem__(i)

    class Recording(GroupDegreeIndex):
        def __init__(self, cap):
            super().__init__(cap)
            self._rows[1] = NodeRows("I")

        def add_hyperedge(self, members):
            events.append(("add", tuple(members)))
            super().add_hyperedge(members)

        def sample(self, size, rng):
            events.append(("sample", size))
            return super().sample(size, rng)

    monkeypatch.setattr(gen_mod, "GroupDegreeIndex", Recording)
    params = GenParams(n=30, sizes={2: 0.6, 3: 0.4}, new_edges={2: 1.0})
    hyperpa(params, seed=1)
    # Within each arriving node the trace must be samples first, adds after;
    # the seed edges produce leading adds. Both group sizes are drawn.
    assert {size for kind, size in events if kind == "sample"} == {1, 2}
    trace = [kind for kind, _ in events]
    pos = 0
    while pos < len(trace) and trace[pos] == "add":
        pos += 1
    while pos < len(trace):
        start = pos
        while pos < len(trace) and trace[pos] == "sample":
            pos += 1
        assert pos > start  # two hyperedges per node means two samples
        adds = 0
        while pos < len(trace) and trace[pos] == "add":
            adds += 1
            pos += 1
        assert adds == 2


def test_hyperpa_requires_size_two():
    with pytest.raises(ValidationError):
        hyperpa(GenParams(n=5, sizes={1: 1.0}, new_edges={1: 1.0}), seed=0)


def test_naivepa_shape_and_determinism():
    H1 = naivepa(PARAMS, seed=5)
    H2 = naivepa(PARAMS, seed=5)
    assert H1.member_tuples() == H2.member_tuples()
    assert H1.n == PARAMS.n + 2 * (PARAMS.max_size // 2)
    for e in H1.edges:
        assert len(set(e.members)) == len(e.members)


def test_naivepa_attachment_is_degree_biased():
    # With pure pair edges the construction is preferential attachment;
    # the maximum degree should far exceed the median.
    params = GenParams(n=800, sizes={2: 1.0}, new_edges={1: 1.0})
    H = naivepa(params, seed=2)
    G = decompose(H, DecomposeConfig.for_level(1))
    deg = np.sort(G.degrees())
    assert deg[-1] >= 8 * max(1, int(np.median(deg)))


# --- reference attachment --------------------------------------------------
# Reference choosers: NaivePA over a bag of its own, and HyperPA over plain
# lists of group tuples. The package must make exactly their draws. They
# share the arrival process, `_grow`, with the package.


def reference_naivepa(params, seed):
    rng = random.Random(seed)
    bag = []

    def choose(node, s):
        chosen = set()
        while len(chosen) < s - 1:
            chosen.add(bag[rng.randrange(len(bag))])
        return tuple(sorted(chosen | {node}))

    return gen_mod._grow(params, rng, 2, params.max_size // 2, choose, bag.extend)


def reference_hyperpa(params, seed, cap):
    rng = random.Random(seed)
    groups = {j: [] for j in range(1, cap + 1)}
    fallback = capped = 0

    def absorb(members):
        for j in range(1, min(len(members), cap) + 1):
            groups[j].extend(combinations(members, j))

    def choose(node, s):
        nonlocal fallback, capped
        g_size = s - 1
        if g_size == 0:
            return (node,)
        if g_size > cap:
            capped += 1
            chosen = set()
            while len(chosen) < g_size:
                chosen.add(groups[1][rng.randrange(len(groups[1]))][0])
            group = tuple(chosen)
        elif not groups[g_size]:
            fallback += 1
            group = tuple(rng.sample(range(node), g_size))
        else:
            group = groups[g_size][rng.randrange(len(groups[g_size]))]
        return tuple(sorted(group + (node,)))

    H = gen_mod._grow(params, rng, 2, params.max_size // 2, choose, absorb)
    return H, gen_mod.RunStats(fallback_draws=fallback, capped_draws=capped)


def _law(draw, keys):
    weights = {k: draw(st.integers(1, 5)) for k in sorted(keys)}
    total = sum(weights.values())
    return {k: w / total for k, w in weights.items()}


@st.composite
def attachment_params(draw):
    # One size of at least 2, so that attachment has seed hyperedges.
    sizes = draw(st.sets(st.integers(1, 12), max_size=4)) | {draw(st.integers(2, 12))}
    arrivals = draw(st.sets(st.integers(0, 6), min_size=1, max_size=4))
    return GenParams(
        n=draw(st.integers(1, 60)), sizes=_law(draw, sizes), new_edges=_law(draw, arrivals)
    )


@settings(max_examples=60, deadline=None)
@given(params=attachment_params(), seed=st.integers(0, 2**32), cap=st.integers(1, 20))
@example(params=GenParams(n=40, sizes={1: 0.2, 2: 0.3, 7: 0.5}, new_edges={2: 1.0}),
         seed=0, cap=3)
@example(params=GenParams(n=40, sizes={2: 0.5, 3: 0.5}, new_edges={1: 0.5, 2: 0.5}),
         seed=1, cap=1_000)
def test_attachment_engine_matches_the_reference_choosers(params, seed, cap):
    H = naivepa(params, seed=seed)
    R = reference_naivepa(params, seed)
    assert (H.n, H.member_tuples()) == (R.n, R.member_tuples())
    H, stats = hyperpa_detailed(params, seed=seed, subset_cap=cap)
    R, want = reference_hyperpa(params, seed, cap)
    assert (H.n, H.member_tuples(), stats) == (R.n, R.member_tuples(), want)


def test_group_index_holds_no_group_larger_than_a_draw_needs():
    # Sizes {2, 3} draw groups of at most two nodes, so a cap of 2e6 must cost
    # what a cap of 6 costs; an index of 2e6 empty rows took about 300 MB.
    params = GenParams(n=50, sizes={2: 0.5, 3: 0.5}, new_edges={1: 0.5, 2: 0.5})
    H, stats = hyperpa_detailed(params, seed=3, subset_cap=6)
    tracemalloc.start()
    try:
        got, got_stats = hyperpa_detailed(params, seed=3, subset_cap=2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got.member_tuples(), got_stats) == (H.member_tuples(), stats)
    assert peak < 1024**2, peak


# --- subset sampling -------------------------------------------------------


def test_subset_sampling_p1_pairs_draw_from_prior_edges():
    params = GenParams(n=50, sizes={2: 1.0}, new_edges={1: 1.0})
    H = subset_sampling(params, p=1.0, seed=0)
    s_bar = 2
    seen = [tuple(range(s_bar)), tuple(range(s_bar, 2 * s_bar))]
    for e in H.edges[2:]:
        assert len(e.members) == 2
        newcomer = max(e.members)
        other = min(e.members)
        assert any(other in prior for prior in seen)
        seen.append(e.members)


def test_subset_sampling_sizes_and_truncation():
    params = GenParams(n=60, sizes={3: 1.0}, new_edges={1: 1.0})
    H = subset_sampling(params, p=1.0, seed=1)
    assert all(len(e.members) == 3 for e in H.edges)


def test_subset_sampling_rules_and_determinism():
    for rule in (
        SamplingRule(),
        SamplingRule(kind="recent"),
        SamplingRule(kind="k-most-recent", k=5, inner="random"),
        SamplingRule(kind="k-most-recent", k=5, inner="recent"),
    ):
        H1 = subset_sampling(PARAMS, rule=rule, seed=7)
        H2 = subset_sampling(PARAMS, rule=rule, seed=7)
        assert H1.member_tuples() == H2.member_tuples()


def test_k_most_recent_window_too_small_raises():
    # A window holding one pair, plus the newcomer, cannot fill a size-4
    # hyperedge; sampling used to loop forever here.
    params = GenParams(n=50, sizes={2: 0.5, 4: 0.5}, new_edges={1: 1.0})
    rule = SamplingRule(kind="k-most-recent", k=1)
    with pytest.raises(ValidationError, match=r"k=1 .* s=4"):
        subset_sampling(params, p=1.0, rule=rule, seed=0)
    # Four recent hyperedges hold four distinct newcomers: enough for size 4.
    wide = SamplingRule(kind="k-most-recent", k=4)
    assert subset_sampling(params, p=1.0, rule=wide, seed=0).num_edges == 52


def test_sampling_rule_validation():
    with pytest.raises(ValidationError):
        SamplingRule(kind="fifo")
    with pytest.raises(ValidationError):
        SamplingRule(kind="k-most-recent")
    with pytest.raises(ValidationError):
        SamplingRule(kind="k-most-recent", k=3, inner="sideways")
    with pytest.raises(ValidationError):
        subset_sampling(PARAMS, p=0.0, seed=0)


def test_recent_rule_weights_positions_linearly():
    rng = random.Random(0)
    counts = Counter(gen_mod._pick_recent(4, rng) for _ in range(40000))
    for i in (1, 2, 3, 4):
        assert counts[i] / 40000 == pytest.approx(i / 10, abs=0.01)


def test_k_most_recent_window_is_honored():
    rng = random.Random(1)
    edges = [(i,) for i in range(100)]
    rule = SamplingRule(kind="k-most-recent", k=3, inner="random")
    for _ in range(300):
        assert gen_mod._pick_prior(edges, rule, rng)[0] >= 97


# --- pinned outputs --------------------------------------------------------

# sha256 of the canonical JSON of (n, member tuples, run stats) for one seed
# of a size law reaching 4. cap 2 forces the capped branch, cap 6 meets one
# fallback draw. A changed digest means a changed RNG stream or draw order.
PINNED = {
    "hyperpa-cap2": "bc6034fab6f5ce165efd5baa9c3d41e47230953a317deae42f8267b346fad737",
    "hyperpa-cap6": "6f584ffcc4c39ef5d458f10b9c3bc9564f4032729de103ff659778a6894823aa",
    "naivepa": "1795b1118c53fd4fa67fd2df46744fe85e3c81dad52f02ffef0febab4e48e704",
    "subset-random-p0.3": "eb81f31dffd94c8cd689efb482005cc685773f87112c6a5c47edb5169beeaf1e",
    "subset-random-p1.0": "a3c094addbe3f80299a71edb6009fc18c4ec2fd37ef0f12331e18b26a7f13a57",
    "subset-recent-p0.3": "7b2008b82dff07882fa2bd98bd54607035d2c38ac1990832b33c84efc05066f3",
    "subset-recent-p1.0": "7ddadb28a7becde547a981dad2be4c06911145152551eeba051058e8db2e9a57",
    "subset-k5random-p0.3": "fb6fa1406489c6bf0e097d32a4986bb1e9ed94a785166b3587e5fd9f9a1bf629",
    "subset-k5random-p1.0": "648fc0dfe9a7985d2c5d12c4744168f14476713284645756426b9067e75f30c9",
    "subset-k5recent-p0.3": "b38cae5e6794bb23542e2bc83538af4a324df3e3e9db87437e48011db9967eb8",
    "subset-k5recent-p1.0": "031a24c93af893f294e0b55951d304afb02811fdccac522657b8c782bf7204d1",
}


def _pinned_run(case: str):
    params = GenParams(
        n=120, sizes={1: 0.1, 2: 0.4, 3: 0.3, 4: 0.2}, new_edges={0: 0.2, 1: 0.5, 2: 0.3}
    )
    model, _, variant = case.partition("-")
    if model == "hyperpa":
        return hyperpa_detailed(params, seed=2, subset_cap=int(variant[3:]))
    if model == "naivepa":
        return naivepa(params, seed=2), None
    name, p = variant.split("-p")
    rules = {
        "random": SamplingRule(),
        "recent": SamplingRule(kind="recent"),
        "k5random": SamplingRule(kind="k-most-recent", k=5, inner="random"),
        "k5recent": SamplingRule(kind="k-most-recent", k=5, inner="recent"),
    }
    return subset_sampling(params, p=float(p), rule=rules[name], seed=2), None


@pytest.mark.parametrize("case", sorted(PINNED))
def test_generator_outputs_are_pinned(case):
    H, stats = _pinned_run(case)
    canonical = {
        "n": H.n,
        "edges": H.member_tuples(),
        "stats": stats.to_dict() if stats is not None else None,
    }
    digest = hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED[case]


# --- null model ------------------------------------------------------------


def test_null_model_preserves_sizes_nodes_and_timestamps():
    H = canonicalize([[0, 1, 2], [2, 3], [4], [0, 1, 2]], n=10, timestamps=[4, 3, 2, 1])
    N = null_model(H, seed=0)
    assert N.n == H.n
    assert Counter(len(e) for e in N.edges) == Counter(len(e) for e in H.edges)
    assert [e.timestamp for e in N.edges] == [e.timestamp for e in H.edges]
    for e in N.edges:
        assert all(0 <= v < H.n for v in e.members)
    assert null_model(H, seed=0).member_tuples() == N.member_tuples()


# --- evaluation ------------------------------------------------------------


def test_evaluate_self_awards_every_applicable_point():
    H = hyperpa(
        GenParams(n=250, sizes={2: 0.4, 3: 0.4, 4: 0.2}, new_edges={1: 0.5, 2: 0.5}),
        seed=8,
    )
    card = evaluate(H, H, levels=(1, 2))
    assert card.applicable >= 5
    assert card.points == card.applicable


def test_evaluate_marks_shattered_levels_not_applicable():
    # Disjoint triangles never form a giant component.
    tris = canonicalize([[3 * i, 3 * i + 1, 3 * i + 2] for i in range(30)])
    card = evaluate(tris, tris, levels=(1,))
    assert card.applicable == 0
    statuses = {po.status for po in card.levels[1].values()}
    assert statuses == {"not-applicable"}


def test_evaluate_denies_dependent_patterns_without_gen_giant():
    real = hyperpa(
        GenParams(n=300, sizes={2: 0.5, 3: 0.5}, new_edges={1: 0.5, 2: 0.5}), seed=2
    )
    scattered = canonicalize([[2 * i, 2 * i + 1] for i in range(200)])
    card = evaluate(real, scattered, levels=(1,))
    row = card.levels[1]
    assert row["P1"].status == "denied"
    assert row["P3"].status == "denied"
    assert row["P4"].status == "denied"
    assert row["P3"].detail.get("reason")


def test_evaluate_denies_degree_and_spectrum_closeness_to_an_empty_level():
    # Singletons have no pair, so the generated level-2 graph has no nodes.
    real = canonicalize([[i, i + 1, i + 2] for i in range(100)])
    card = evaluate(real, canonicalize([[0], [1], [2]]), levels=(2,), sv_count=5)
    row = card.levels[2]
    assert (card.points, card.applicable) == (0, 5)
    for name in ("P2", "P5"):
        assert row[name].status == "denied"
        assert row[name].detail == {"reason": "generated level graph is empty"}


def test_evaluate_scorecard_serializes():
    H = hyperpa(
        GenParams(n=200, sizes={2: 0.5, 3: 0.5}, new_edges={1: 1.0}), seed=1
    )
    card = evaluate(H, H, levels=(1,))
    d = card.to_dict()
    assert d["points"] == card.points
    assert "1" in d["levels"] and "P1" in d["levels"]["1"]


def test_evaluate_gen_giant_check_uses_component_rule():
    real = hyperpa(
        GenParams(n=300, sizes={2: 0.5, 3: 0.5}, new_edges={1: 0.5, 2: 0.5}), seed=3
    )
    G = decompose(real, DecomposeConfig.for_level(1))
    assert connected_components(G).is_giant
    card = evaluate(real, real, levels=(1,))
    assert card.levels[1]["P1"].status == "awarded"
