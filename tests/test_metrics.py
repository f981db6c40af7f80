"""Structural metrics against independent oracles."""

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperdecomp import (
    ConvergenceError,
    DecomposeConfig,
    GenParams,
    MetricError,
    ValidationError,
    canonicalize,
    clustering_coefficient,
    connected_components,
    decompose,
    degree_histogram,
    effective_diameter,
    hyperpa,
    singular_values,
)
from hyperdecomp.core import DecomposedGraph
from hyperdecomp import metrics as metrics_mod
from hyperdecomp.metrics import GIANT_RATIO

from conftest import adjacency_csr, random_hypergraph


def ids(n):
    """Level-1 nodes 0..n-1 as an (n, 1) array."""
    return np.arange(n, dtype=np.int64).reshape(-1, 1)


def graph_from_pairs(pairs, extra_isolated=0):
    """Level-1 graph over the ids appearing in `pairs`."""
    H = canonicalize([list(p) for p in pairs])
    G = decompose(H, DecomposeConfig.for_level(1))
    if extra_isolated:
        nodes = np.concatenate([G.nodes, G.nodes.max() + 1 + ids(extra_isolated)])
        G = DecomposedGraph(level=1, nodes=nodes, edge_array=G.edge_array)
    return G


def random_graph(rng, n, p):
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    if not pairs:
        pairs = [(0, 1)]
    return graph_from_pairs(pairs)


class UnionFind:
    """Path-compressing union-find; the oracle for component structure."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def oracle_component_sizes(G):
    uf = UnionFind(G.num_nodes)
    for u, v in G.edge_array:
        uf.union(int(u), int(v))
    from collections import Counter

    sizes = Counter(uf.find(i) for i in range(G.num_nodes))
    return sorted(sizes.values(), reverse=True)


def oracle_effective_diameter(G, q=0.9, sources=None):
    """Dense shortest-path matrix plus the interpolation definition."""
    dist = csgraph.shortest_path(adjacency_csr(G), method="D", unweighted=True, indices=sources)
    finite = dist[np.isfinite(dist) & (dist > 0)]
    values = np.sort(finite)
    total = values.size
    max_d = int(values.max())
    def g(d):
        return float((values <= d).sum()) / total
    d_star = 1
    while g(d_star) < q:
        d_star += 1
        assert d_star <= max_d
    return d_star - 1 + (q - g(d_star - 1)) / (g(d_star) - g(d_star - 1))


def test_components_match_union_find_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        G = random_graph(rng, int(rng.integers(2, 60)), float(rng.uniform(0.02, 0.2)))
        assert list(connected_components(G).sizes) == oracle_component_sizes(G)


def test_giant_ratio_rule():
    # 140 nodes in one chain plus an isolated pair: ratio exactly 70.
    chain = [(i, i + 1) for i in range(139)] + [(140, 141)]
    rep = connected_components(graph_from_pairs(chain))
    assert rep.sizes[0] == 140 and rep.sizes[1] == 2
    assert rep.largest_frac / rep.second_frac == pytest.approx(GIANT_RATIO)
    assert rep.is_giant

    shy = [(i, i + 1) for i in range(138)] + [(139, 140)]
    assert not connected_components(graph_from_pairs(shy)).is_giant


def test_single_component_counts_one_node_as_second():
    path70 = graph_from_pairs([(i, i + 1) for i in range(69)])
    rep = connected_components(path70)
    assert len(rep.sizes) == 1 and rep.is_giant
    path69 = graph_from_pairs([(i, i + 1) for i in range(68)])
    assert not connected_components(path69).is_giant


def test_components_empty_graph():
    G = DecomposedGraph(level=1, nodes=ids(0), edge_array=np.empty((0, 2), dtype=np.int64))
    rep = connected_components(G)
    assert rep.sizes == () and not rep.is_giant


def test_degree_histogram_cases():
    tri = graph_from_pairs([(0, 1), (1, 2), (0, 2)])
    assert degree_histogram(tri) == {2: 3}
    star = graph_from_pairs([(0, i) for i in range(1, 6)])
    assert degree_histogram(star) == {5: 1, 1: 5}
    iso = graph_from_pairs([(0, 1)], extra_isolated=2)
    assert degree_histogram(iso) == {1: 2, 0: 2}


def test_effective_diameter_closed_forms():
    K10 = graph_from_pairs([(i, j) for i in range(10) for j in range(i + 1, 10)])
    assert effective_diameter(K10) == pytest.approx(0.9)
    P3 = graph_from_pairs([(0, 1), (1, 2)])
    assert effective_diameter(P3) == pytest.approx(1.7)
    # Star on 4 leaves: 8 ordered pairs at distance 1, 12 at distance 2.
    star = graph_from_pairs([(0, i) for i in range(1, 5)])
    assert effective_diameter(star) == pytest.approx(1 + (0.9 - 0.4) / 0.6)


def test_effective_diameter_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(15):
        G = random_graph(rng, int(rng.integers(5, 80)), float(rng.uniform(0.05, 0.3)))
        got = effective_diameter(G)
        want = oracle_effective_diameter(G)
        assert got == pytest.approx(want, abs=1e-12)


def test_effective_diameter_ignores_cross_component_pairs():
    two_cliques = graph_from_pairs(
        [(0, 1), (1, 2), (0, 2), (10, 11), (11, 12), (10, 12)]
    )
    assert effective_diameter(two_cliques) == pytest.approx(0.9)


def test_effective_diameter_sampling_full_coverage_is_exact():
    rng = np.random.default_rng(1)
    G = random_graph(rng, 50, 0.1)
    exact = effective_diameter(G)
    sampled = effective_diameter(G, exact_threshold=0, num_sources=50)
    assert sampled == pytest.approx(exact)


def test_effective_diameter_sampled_close_on_random_graph():
    rng = np.random.default_rng(9)
    G = random_graph(rng, 300, 0.02)
    exact = effective_diameter(G)
    sampled = effective_diameter(G, exact_threshold=0, num_sources=120, seed=3)
    assert abs(sampled - exact) < 0.5


def test_effective_diameter_errors():
    G = DecomposedGraph(level=1, nodes=ids(1), edge_array=np.empty((0, 2), dtype=np.int64))
    with pytest.raises(MetricError):
        effective_diameter(G)


def test_effective_diameter_counts_the_last_row_before_trailing_isolated_nodes():
    # Node 2's second neighbour is the last CSR entry; node 3 has none.
    G = graph_from_pairs([(0, 2), (1, 2)], extra_isolated=1)
    assert effective_diameter(G) == pytest.approx(oracle_effective_diameter(G))
    assert effective_diameter(G) == pytest.approx(1.7)


def graph_on(n, pairs):
    """Level-1 graph on nodes 0..n-1 with the given undirected pairs."""
    edges = np.unique(np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1), axis=0)
    return DecomposedGraph(level=1, nodes=ids(n), edge_array=edges)


def component_pairs(rng, kind, s):
    """Edges of one s-node component on nodes 0..s-1."""
    if kind == "clique":
        return [(i, j) for i in range(s) for j in range(i + 1, s)]
    if kind == "path":
        return [(i, i + 1) for i in range(s - 1)]
    # A random spanning tree plus random chords keeps it connected.
    tree = [(int(rng.integers(0, i)), i) for i in range(1, s)]
    return tree + [(i, j) for i in range(s) for j in range(i + 1, s) if rng.random() < 0.2]


@st.composite
def shattered_graphs(draw):
    """A graph of random components under a random node numbering, often
    followed by isolated nodes, and a spectrum request size for it."""
    parts = draw(st.lists(
        st.tuples(st.sampled_from(["clique", "path", "random"]), st.integers(1, 30)),
        min_size=1, max_size=8,
    ))
    trailing = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs, n = [], 0
    for kind, s in parts:
        pairs += [(n + u, n + v) for u, v in component_pairs(rng, kind, s)]
        n += s
    label = rng.permutation(n)
    G = graph_on(n + trailing, [(label[u], label[v]) for u, v in pairs])
    return G, draw(st.integers(1, G.num_nodes))


def twenty_k6_and_a_path():
    k6 = [(6 * c + i, 6 * c + j) for c in range(20) for i in range(6) for j in range(i + 1, 6)]
    return graph_on(320, k6 + [(i, i + 1) for i in range(120, 319)])


@st.composite
def many_components(draw):
    """Many small components, or a few long paths, under a random node
    numbering, then isolated nodes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    small = st.lists(st.integers(1, 4), min_size=1, max_size=300)
    sizes = draw(st.one_of(small, st.lists(st.integers(50, 3000), min_size=1, max_size=3)))
    pairs, n = [], 0
    for s in sizes:
        pairs += [(n + u, n + v) for u, v in component_pairs(rng, "path" if s > 4 else "random", s)]
        n += s
    label = rng.permutation(n)
    return graph_on(n + draw(st.integers(0, 5)), [(label[u], label[v]) for u, v in pairs])


def long_path(n):
    """A path in node order: the first hooking round points each node at the
    one before it, a chain that pointer jumping takes log2(n) rounds to flatten."""
    return graph_on(n, [(i, i + 1) for i in range(n - 1)])


@settings(max_examples=60, deadline=None)
@given(G=st.one_of(shattered_graphs().map(lambda case: case[0]), many_components()))
@example(G=long_path(5_000))
@example(G=graph_on(12, [(0, 11)]))
def test_components_match_csgraph(G):
    count, labels = csgraph.connected_components(adjacency_csr(G), directed=False)
    comps = G._components
    assert comps.bounds.tolist() == [0, *np.cumsum(np.bincount(labels, minlength=count))]
    assert (np.searchsorted(comps.bounds, comps.position, side="right") - 1).tolist() == labels.tolist()
    order = np.argsort(labels, kind="stable")
    assert comps.position[order].tolist() == list(range(G.num_nodes))
    want = adjacency_csr(G)[order][:, order]
    want.sort_indices()
    assert comps.csr.indptr.tolist() == want.indptr.tolist()
    assert comps.csr.indices.tolist() == want.indices.tolist()


def oracle_distance_counts(G, sources):
    dist = csgraph.shortest_path(adjacency_csr(G), method="D", unweighted=True, indices=sources)
    return np.bincount(dist[np.isfinite(dist) & (dist > 0)].astype(np.int64), minlength=1)


@settings(max_examples=80, deadline=None)
@given(case=shattered_graphs(), data=st.data())
def test_blocked_bfs_matches_shortest_paths(case, data):
    G, _ = case
    comps = G._components
    everyone = np.arange(G.num_nodes)
    hist = metrics_mod._distance_histogram(comps, everyone)
    assert hist.tolist() == oracle_distance_counts(G, everyone).tolist()

    k = data.draw(st.integers(1, G.num_nodes))
    seed = data.draw(st.integers(0, 1000))
    drawn = np.random.default_rng(seed).choice(G.num_nodes, size=k, replace=False)
    hist = metrics_mod._distance_histogram(comps, np.sort(comps.position[drawn]))
    assert hist.tolist() == oracle_distance_counts(G, drawn).tolist()
    if k < G.num_nodes and hist.sum() > 0:
        sampled = effective_diameter(G, exact_threshold=0, num_sources=k, seed=seed)
        assert sampled == pytest.approx(oracle_effective_diameter(G, sources=drawn), abs=1e-12)


def oracle_neighbours(G):
    neigh = [set() for _ in range(G.num_nodes)]
    for u, v in G.edge_array:
        neigh[int(u)].add(int(v))
        neigh[int(v)].add(int(u))
    return neigh


def oracle_triangles(G):
    """Per node, the pairs of its neighbours that are adjacent themselves."""
    neigh = oracle_neighbours(G)
    return [
        sum(1 for a in neigh[v] for b in neigh[v] if a < b and b in neigh[a])
        for v in range(G.num_nodes)
    ]


def oracle_clustering(G):
    neigh, links = oracle_neighbours(G), oracle_triangles(G)
    total = 0.0
    for v in range(G.num_nodes):
        k = len(neigh[v])
        if k < 2:
            continue
        total += 2.0 * links[v] / (k * (k - 1))
    return total / G.num_nodes


def clustering_cases():
    """Random graphs, then hub-heavy ones whose hubs meet every triangle."""
    rng = np.random.default_rng(17)
    for _ in range(15):
        yield random_graph(rng, int(rng.integers(4, 70)), float(rng.uniform(0.05, 0.4)))
    # A star over 40 leaves, 24 of which also form cliques of six.
    cliques = [
        (a, b) for c in range(1, 25, 6) for a in range(c, c + 6) for b in range(a + 1, c + 6)
    ]
    yield graph_from_pairs([(0, i) for i in range(1, 41)] + cliques)
    # Windmills: copies of K3 and of K5 sharing one centre.
    for blade in (3, 5):
        yield graph_from_pairs(
            (a, b)
            for c in range(1, 12 * (blade - 1), blade - 1)
            for a in [0, *range(c, c + blade - 1)]
            for b in range(max(a + 1, c), c + blade - 1)
        )


def test_clustering_closed_forms():
    K3 = graph_from_pairs([(0, 1), (1, 2), (0, 2)])
    assert clustering_coefficient(K3) == 1.0
    star = graph_from_pairs([(0, i) for i in range(1, 6)])
    assert clustering_coefficient(star) == 0.0
    paw = graph_from_pairs([(0, 1), (1, 2), (0, 2), (0, 3)])
    assert clustering_coefficient(paw) == pytest.approx(7 / 12)


def test_clustering_matches_brute_force():
    for G in clustering_cases():
        assert clustering_coefficient(G) == pytest.approx(oracle_clustering(G))
        assert metrics_mod._triangle_counts(G).tolist() == oracle_triangles(G)


def product_triangles(G):
    """Per-node triangle counts from the degree-oriented sparse product: row x
    of (adj @ L), masked by adj, with L holding each edge once."""
    from scipy.sparse import csr_matrix

    n, (u, v) = G.num_nodes, G.edge_array.T
    deg = G.degrees()
    lo, hi = np.where(deg[u] > deg[v], (v, u), (u, v))
    L = csr_matrix((np.ones(lo.size, dtype=np.int64), (lo, hi)), shape=(n, n))
    adj = adjacency_csr(G).astype(np.int64)
    return np.asarray((adj @ L).multiply(adj).sum(axis=1)).ravel().tolist()


def sampled_graphs():
    params = GenParams(
        n=300, sizes={2: 0.4, 3: 0.3, 4: 0.2, 6: 0.1}, new_edges={0: 0.2, 1: 0.5, 3: 0.3}
    )
    H = hyperpa(params, seed=3)
    return [decompose(H, DecomposeConfig.for_level(k)) for k in (1, 2)]


def test_triangle_counts_match_networkx():
    nx = pytest.importorskip("networkx")
    for G in [*clustering_cases(), *sampled_graphs()]:
        g = nx.Graph()
        g.add_nodes_from(range(G.num_nodes))
        g.add_edges_from(G.edge_array.tolist())
        expected = nx.triangles(g)
        counts = metrics_mod._triangle_counts(G).tolist()
        assert counts == [expected[v] for v in range(G.num_nodes)]
        assert counts == product_triangles(G)


# 32 bytes hold one pair: chunks of 3 and of 40 pairs split both the pairs
# of one out-list and the out-lists of one length.
@pytest.mark.parametrize("pairs", [3, 40])
def test_triangle_counts_across_chunk_boundaries(monkeypatch, pairs):
    monkeypatch.setattr(metrics_mod, "_PAIR_CHUNK_BYTES", pairs * 32)
    for G in [*clustering_cases(), *sampled_graphs()]:
        assert metrics_mod._triangle_counts(G).tolist() == product_triangles(G)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=25))
def test_triangle_counts_survive_relabelling(data, n):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    perm = data.draw(st.permutations(range(n)))

    def graph(label):
        edges = sorted({tuple(sorted((label[u], label[v]))) for u, v in pairs if u != v})
        edge_array = np.array(edges, dtype=np.int64).reshape(-1, 2)
        return DecomposedGraph(level=1, nodes=ids(n), edge_array=edge_array)

    G, R = graph(range(n)), graph(perm)
    counts = metrics_mod._triangle_counts(G)
    assert counts.tolist() == oracle_triangles(G)
    assert metrics_mod._triangle_counts(R)[list(perm)].tolist() == counts.tolist()


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(0, 2**62), unique=True, max_size=300),
    others=st.lists(st.integers(0, 2**62), max_size=100),
)
@example(keys=list(range(0, 64 * 1024, 64)), others=list(range(1, 200)))
def test_key_table_finds_exactly_its_keys(keys, others):
    table = metrics_mod._key_table(np.array(keys, dtype=np.int64))
    assert table.size >= 2 * len(keys)
    assert sorted(table[table >= 0].tolist()) == sorted(keys)
    probe = np.array(keys + others, dtype=np.int64)
    assert metrics_mod._in_table(table, probe).tolist() == np.isin(probe, keys).tolist()


def test_clustering_counts_low_degree_nodes_in_mean():
    # Triangle plus an isolated edge: (1+1+1+0+0)/5.
    G = graph_from_pairs([(0, 1), (1, 2), (0, 2), (3, 4)])
    assert clustering_coefficient(G) == pytest.approx(3 / 5)


def test_clustering_errors_and_degenerate():
    G = DecomposedGraph(level=1, nodes=ids(0), edge_array=np.empty((0, 2), dtype=np.int64))
    with pytest.raises(MetricError):
        clustering_coefficient(G)
    lonely = DecomposedGraph(
        level=1, nodes=ids(2), edge_array=np.empty((0, 2), dtype=np.int64)
    )
    assert clustering_coefficient(lonely) == 0.0


def test_singular_values_closed_forms():
    K2 = graph_from_pairs([(0, 1)])
    assert singular_values(K2, m=2).values == pytest.approx((1.0, 1.0))
    star = graph_from_pairs([(0, i) for i in range(1, 5)])
    assert singular_values(star, m=5).values == pytest.approx((2.0, 2.0, 0.0, 0.0, 0.0))
    C4 = graph_from_pairs([(0, 1), (1, 2), (2, 3), (0, 3)])
    assert singular_values(C4, m=4).values == pytest.approx((2.0, 2.0, 0.0, 0.0), abs=1e-9)


def test_singular_values_iterative_matches_dense_svd(lanczos_blocks):
    rng = np.random.default_rng(23)
    for _ in range(12):
        G = random_graph(rng, int(rng.integers(12, 60)), float(rng.uniform(0.1, 0.4)))
        m = max(1, min(G.num_nodes - 2, 25))
        lanczos_blocks.clear()
        got = np.array(singular_values(G, m=m).values)
        assert lanczos_blocks
        dense = np.linalg.svd(adjacency_csr(G).toarray().astype(float), compute_uv=False)
        want = dense[:m]
        scale = max(1.0, float(want[0]))
        assert np.all(np.abs(got - want) <= 1e-6 * scale)


@settings(max_examples=80, deadline=None)
@given(case=shattered_graphs())
@example(case=(twenty_k6_and_a_path(), 50))
def test_block_spectrum_matches_dense_eigenvalues(case):
    G, m = case
    got = np.array(singular_values(G, m=m).values)
    dense = np.linalg.eigvalsh(adjacency_csr(G).toarray().astype(float))
    want = np.sort(np.abs(dense))[::-1][:m]
    assert np.all(np.abs(got - want) <= 1e-6 * max(1.0, float(want[0])))


def oracle_twin_classes(G):
    """True-twin classes as sets of nodes, grouped by closed neighbourhood."""
    neigh = oracle_neighbours(G)
    classes = {}
    for v in range(G.num_nodes):
        classes.setdefault(frozenset(neigh[v] | {v}), set()).add(v)
    return sorted(map(frozenset, classes.values()), key=min)


def twin_classes(G):
    """The classes `singular_values` folds, as sets of nodes."""
    comps = G._components
    node_at = np.argsort(comps.position)
    first = node_at[metrics_mod._twin_classes(comps.csr)]
    classes = {}
    for v in range(G.num_nodes):
        classes.setdefault(int(first[comps.position[v]]), set()).add(v)
    return sorted(map(frozenset, classes.values()), key=min)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 60), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_connected_spectrum_is_the_whole_graph_solve(n, seed, data):
    G = graph_on(n, component_pairs(np.random.default_rng(seed), "random", n))
    # Without twins the quotient is the adjacency itself, and a block of at
    # most 60 rows is within the dense budget, so the solve is exactly the
    # dense one over the whole graph.
    assume(len(oracle_twin_classes(G)) == n)
    m = data.draw(st.integers(1, n))
    eigs = np.linalg.eigvalsh(adjacency_csr(G).toarray().astype(np.float64))
    assert singular_values(G, m=m).values == tuple(np.sort(np.abs(eigs))[::-1][:m].tolist())


def twenty_c6_and_a_path():
    c6 = [(6 * c + i, 6 * c + (i + 1) % 6) for c in range(20) for i in range(6)]
    return graph_on(320, c6 + [(i, i + 1) for i in range(120, 319)])


def test_dense_blocks_are_stacked_within_the_byte_limit(monkeypatch):
    # Cycles and paths have no twins, so each 6-cycle is a 6 x 6 dense block;
    # both budgets leave the 200-node path to Lanczos iteration.
    G = twenty_c6_and_a_path()
    monkeypatch.setattr(metrics_mod, "DENSE_BLOCK_BYTES", 20 * 6 * 6 * 8)
    whole = singular_values(G, m=50).values
    monkeypatch.setattr(metrics_mod, "DENSE_BLOCK_BYTES", 3 * 6 * 6 * 8)
    assert singular_values(G, m=50).values == whole
    monkeypatch.setattr(metrics_mod, "DENSE_FALLBACK_MAX_BYTES", 6 * 6 * 8 - 1)
    with pytest.raises(MetricError, match="6-node component of the twin quotient needs 288 bytes"):
        singular_values(G, m=50)


def test_clique_is_one_twin_class(monkeypatch):
    for s in range(2, 9):
        K = graph_on(s, component_pairs(None, "clique", s))
        assert singular_values(K, m=s).values == (s - 1.0,) + (1.0,) * (s - 1)
    # The K6 adjacency needs 288 bytes, its one-class quotient 8.
    K6 = graph_on(6, component_pairs(None, "clique", 6))
    monkeypatch.setattr(metrics_mod, "DENSE_FALLBACK_MAX_BYTES", 6 * 6 * 8 - 1)
    assert singular_values(K6, m=6).values == (5.0, 1.0, 1.0, 1.0, 1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(case=shattered_graphs())
def test_twin_classes_match_brute_force_on_shattered_graphs(case):
    G, _ = case
    assert twin_classes(G) == oracle_twin_classes(G)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), level=st.sampled_from([2, 3]))
def test_twin_classes_match_brute_force_on_decompositions(seed, level):
    H = random_hypergraph(np.random.default_rng(seed), max_nodes=30, max_edge_size=6)
    G = decompose(H, DecomposeConfig.for_level(level))
    assert twin_classes(G) == oracle_twin_classes(G)


@st.composite
def planted_twin_graphs(draw):
    """Random components whose nodes are blown up into cliques of true twins,
    under a random node numbering, and a spectrum request size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = draw(st.lists(
        st.tuples(st.sampled_from(["clique", "path", "random"]), st.integers(1, 40)),
        min_size=1, max_size=5,
    ))
    pairs, n = [], 0
    for kind, s in parts:
        start = n + np.append(0, np.cumsum(rng.choice([1, 1, 2, 3, 5], size=s)))
        members = [range(start[i], start[i + 1]) for i in range(s)]
        pairs += [(a, b) for team in members for a in team for b in team if a < b]
        pairs += [(a, b) for u, v in component_pairs(rng, kind, s)
                  for a in members[u] for b in members[v]]
        n = int(start[-1])
    label = rng.permutation(n)
    G = graph_on(n, [(label[u], label[v]) for u, v in pairs])
    return G, draw(st.integers(1, n))


def blown_up_path():
    """A 60-node path with every node a K2 of twins: its quotient has
    eigenvalues 1 + 4 cos(pi j / 61), ten of them inside (-1, 1)."""
    return graph_on(120, [(2 * i, 2 * i + 1) for i in range(60)] + [
        (2 * i + a, 2 * i + 2 + b) for i in range(59) for a in (0, 1) for b in (0, 1)
    ])


@settings(max_examples=80, deadline=None)
@given(case=planted_twin_graphs())
@example(case=(blown_up_path(), 58))
@example(case=(blown_up_path(), 120))
def test_spectrum_with_planted_twins_matches_dense_eigenvalues(case):
    G, m = case
    got = np.array(singular_values(G, m=m).values)
    dense = np.linalg.eigvalsh(adjacency_csr(G).toarray().astype(float))
    want = np.sort(np.abs(dense))[::-1][:m]
    assert np.all(np.abs(got - want) <= 1e-6 * max(1.0, float(want[0])))


def test_lanczos_on_the_quotient_reaches_the_folded_ones(lanczos_blocks):
    # 60 classes, so m = 58 runs Lanczos; the 50 quotient values above 1
    # leave 8 of the 60 folded copies of 1.0 in the top 58.
    G = blown_up_path()
    S, bounds = metrics_mod._twin_quotient(G._components)
    assert bounds.tolist() == [0, 60]
    got = singular_values(G, m=58).values
    assert lanczos_blocks == [60]
    assert got[-8:] == (1.0,) * 8 and got[-9] > 1.0 + 1e-3
    quotient = np.abs(1.0 + 4.0 * np.cos(np.pi * np.arange(1, 61) / 61))
    want = np.sort(np.concatenate([quotient, np.ones(60)]))[::-1][:58]
    assert np.allclose(got, want, rtol=0, atol=1e-9)


def test_singular_values_deterministic():
    rng = np.random.default_rng(2)
    G = random_graph(rng, 50, 0.2)
    a = singular_values(G, m=10).values
    b = singular_values(G, m=10).values
    assert a == b


def test_singular_values_validation_and_edge_cases():
    K2 = graph_from_pairs([(0, 1)])
    with pytest.raises(ValidationError):
        singular_values(K2, m=0)
    empty = DecomposedGraph(
        level=1, nodes=ids(3), edge_array=np.empty((0, 2), dtype=np.int64)
    )
    assert singular_values(empty, m=2).values == (0.0, 0.0)
    none = DecomposedGraph(level=1, nodes=ids(0), edge_array=np.empty((0, 2), dtype=np.int64))
    assert singular_values(none, m=3).values == ()
    # The default request is capped at the node count like a given one.
    assert singular_values(none) == singular_values(none, m=3)
    with pytest.raises(ValidationError):
        singular_values(none, m=0)


def test_singular_values_default_request_size():
    rng = np.random.default_rng(4)
    G = random_graph(rng, 30, 0.2)
    spectrum = singular_values(G)
    assert len(spectrum.values) == min(G.num_nodes, 500) == G.num_nodes
    assert list(spectrum.values) == sorted(spectrum.values, reverse=True)


def test_convergence_error_surfaces(monkeypatch):
    # A long path has a densely clustered spectrum; one restart cannot
    # resolve 50 values to near machine precision.
    G = graph_from_pairs([(i, i + 1) for i in range(1999)])
    monkeypatch.setattr(metrics_mod, "_LANCZOS_TOL", 1e-14)
    monkeypatch.setattr(metrics_mod, "_LANCZOS_ITERS_PER_ROW", 1 / G.num_nodes)
    with pytest.raises(ConvergenceError):
        singular_values(G, m=50)


def path_graph(n):
    u = np.arange(n - 1, dtype=np.int64)
    return DecomposedGraph(
        level=1,
        nodes=ids(n),
        edge_array=np.stack([u, u + 1], axis=1),
    )


def test_dense_fallback_refuses_matrices_over_two_gib(monkeypatch):
    n = 16_385
    G = path_graph(n)

    def no_dense_solve(*args, **kwargs):
        raise AssertionError("the guard must fire before any dense matrix is built")

    monkeypatch.setattr(metrics_mod, "_dense_magnitudes", no_dense_solve)
    with pytest.raises(MetricError) as info:
        singular_values(G, m=n)
    assert f"{n}-node component" in str(info.value)
    assert str(n * n * 8) in str(info.value)


def test_dense_fallback_serves_many_small_components_of_a_large_graph():
    # 2,731 disjoint 6-cycles: 16,386 nodes and, since cycles have no twins,
    # 16,386 quotient rows, though each dense block is 6 x 6.
    start = np.arange(0, 16_386, 6, dtype=np.int64)[:, None]
    u, v = start + np.arange(6), start + (np.arange(6) + 1) % 6
    edges = np.sort(np.stack([u.ravel(), v.ravel()], axis=1), axis=1)
    G = DecomposedGraph(level=1, nodes=ids(16_386), edge_array=edges[np.lexsort(edges.T[::-1])])
    S, bounds = metrics_mod._twin_quotient(G._components)
    assert S.indptr.size == bounds[-1] + 1 == 16_387
    spectrum = singular_values(G, m=G.num_nodes)
    assert len(spectrum.values) == 16_386
    # A 6-cycle's eigenvalues are 2 cos(pi j / 3): magnitudes 2, 2, 1, 1, 1, 1.
    want = np.repeat([2.0, 1.0], [2 * 2_731, 4 * 2_731])
    assert np.allclose(spectrum.values, want, rtol=0, atol=1e-12)


def test_dense_fallback_limit_is_inclusive(monkeypatch):
    G = path_graph(6)
    need = 6 * 6 * 8
    monkeypatch.setattr(metrics_mod, "DENSE_FALLBACK_MAX_BYTES", need)
    assert len(singular_values(G, m=6).values) == 6
    monkeypatch.setattr(metrics_mod, "DENSE_FALLBACK_MAX_BYTES", need - 1)
    with pytest.raises(MetricError, match=f"{need} bytes"):
        singular_values(G, m=6)
    # The iterative path allocates no dense matrix and is not limited.
    monkeypatch.setattr(metrics_mod, "DENSE_BLOCK_BYTES", need - 1)
    assert len(singular_values(G, m=4).values) == 4


def test_dense_fallback_refuses_components_over_two_gib():
    # m <= n - 2, so only the guard on the 16,385-node path component can fire.
    s = 16_385
    G = DecomposedGraph(level=1, nodes=ids(s + 3), edge_array=path_graph(s).edge_array)
    with pytest.raises(MetricError) as info:
        singular_values(G, m=16_384)
    assert f"{s}-node component" in str(info.value)
    assert str(s * s * 8) in str(info.value)


def k6s_on_a_hub_with_a_path():
    """Twenty K6 whose vertex 0 is joined to hub 120, and a 200-node path
    hung off the hub: 321 nodes in one component, 241 twin classes."""
    k6 = [(6 * c + i, 6 * c + j) for c in range(20) for i in range(6) for j in range(i + 1, 6)]
    spokes = [(6 * c, 120) for c in range(20)]
    return graph_on(321, k6 + spokes + [(i, i + 1) for i in range(120, 320)])


def four_cycle_with_leaves():
    """The 4-cycle 0-1-3-2 with leaves 4, 5 and 6 on node 0."""
    return graph_on(7, [(0, 1), (1, 3), (3, 2), (2, 0), (0, 4), (0, 5), (0, 6)])


def test_repeated_eigenvalue_inside_one_component_keeps_its_copies():
    G = k6s_on_a_hub_with_a_path()
    got = np.array(singular_values(G, m=50).values)
    want = np.sort(np.abs(np.linalg.eigvalsh(adjacency_csr(G).toarray().astype(float))))[::-1]
    assert np.sum(np.abs(got - 5.0) <= 1e-9) == np.sum(np.abs(want - 5.0) <= 1e-9) == 19
    assert np.all(np.abs(got - want[:50]) <= 1e-9 * want[0])


def test_spectrum_is_a_function_of_its_input():
    G = four_cycle_with_leaves()
    assert len({singular_values(G, m=5).values for _ in range(20)}) == 1


@pytest.mark.parametrize("leaves, dense", [(1_447, True), (1_448, False)])
def test_blocks_within_the_dense_budget_skip_lanczos(monkeypatch, leaves, dense):
    # A star has no twins, so its quotient block has leaves + 1 rows, and
    # 8 * 1,448**2 bytes is the largest block within DENSE_BLOCK_BYTES.
    assert 8 * 1_448**2 <= metrics_mod.DENSE_BLOCK_BYTES < 8 * 1_449**2
    solved = {"dense": [], "lanczos": []}
    dense_solve, lanczos_solve = metrics_mod._dense_magnitudes, metrics_mod._lanczos_magnitudes

    def dense_spy(S, bounds, blocks, m):
        solved["dense"] += np.diff(bounds)[blocks].tolist()
        return dense_solve(S, bounds, blocks, m)

    def lanczos_spy(block, m):
        solved["lanczos"].append(block.indptr.size - 1)
        return lanczos_solve(block, m)

    monkeypatch.setattr(metrics_mod, "_dense_magnitudes", dense_spy)
    monkeypatch.setattr(metrics_mod, "_lanczos_magnitudes", lanczos_spy)
    G = graph_on(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    values = singular_values(G, m=3).values
    assert values == pytest.approx((np.sqrt(leaves),) * 2 + (0.0,), abs=1e-9)
    q = leaves + 1
    assert solved == ({"dense": [q], "lanczos": []} if dense else {"dense": [], "lanczos": [q]})


def test_effective_diameter_refuses_a_negative_seed():
    G = graph_from_pairs([(i, i + 1) for i in range(30)])
    for threshold in (20_000, 10):  # exact, and from sources the seed draws
        with pytest.raises(ValidationError, match="seed"):
            effective_diameter(G, exact_threshold=threshold, num_sources=5, seed=-1)
    assert effective_diameter(G, exact_threshold=10, num_sources=5, seed=0) > 0
