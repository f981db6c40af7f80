"""Structural metrics against independent oracles."""

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings
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


def oracle_effective_diameter(G, q=0.9):
    """Dense shortest-path matrix plus the interpolation definition."""
    dist = csgraph.shortest_path(G.adjacency_csr(), method="D", unweighted=True)
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


def test_triangle_counts_match_networkx():
    nx = pytest.importorskip("networkx")
    params = GenParams(
        n=300, sizes={2: 0.4, 3: 0.3, 4: 0.2, 6: 0.1}, new_edges={0: 0.2, 1: 0.5, 3: 0.3}
    )
    H = hyperpa(params, seed=3)
    sampled = [decompose(H, DecomposeConfig.for_level(k)) for k in (1, 2)]
    for G in [*clustering_cases(), *sampled]:
        g = nx.Graph()
        g.add_nodes_from(range(G.num_nodes))
        g.add_edges_from(G.edge_array.tolist())
        expected = nx.triangles(g)
        counts = metrics_mod._triangle_counts(G).tolist()
        assert counts == [expected[v] for v in range(G.num_nodes)]


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


def test_singular_values_iterative_matches_dense_svd():
    rng = np.random.default_rng(23)
    for _ in range(12):
        G = random_graph(rng, int(rng.integers(12, 60)), float(rng.uniform(0.1, 0.4)))
        m = max(1, min(G.num_nodes - 2, 25))
        got = np.array(singular_values(G, m=m).values)
        dense = np.linalg.svd(G.adjacency_csr().toarray().astype(float), compute_uv=False)
        want = dense[:m]
        scale = max(1.0, float(want[0]))
        assert np.all(np.abs(got - want) <= 1e-6 * scale)


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


def test_singular_values_default_request_size():
    rng = np.random.default_rng(4)
    G = random_graph(rng, 30, 0.2)
    spectrum = singular_values(G)
    assert spectrum.requested == min(G.num_nodes, 500)
    assert len(spectrum.values) == G.num_nodes
    assert list(spectrum.values) == sorted(spectrum.values, reverse=True)


def test_convergence_error_surfaces():
    # A long path has a densely clustered spectrum; one restart cannot
    # resolve 50 values to near machine precision.
    G = graph_from_pairs([(i, i + 1) for i in range(1999)])
    with pytest.raises(ConvergenceError):
        singular_values(G, m=50, rel_tol=1e-14, max_iter=1)


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

    def no_adjacency(self):
        raise AssertionError("the guard must fire before any matrix is built")

    monkeypatch.setattr(DecomposedGraph, "adjacency_csr", no_adjacency)
    with pytest.raises(MetricError) as info:
        singular_values(G, m=n)
    assert f"n={n}" in str(info.value)
    assert str(n * n * 8) in str(info.value)


def test_dense_fallback_limit_is_inclusive(monkeypatch):
    G = path_graph(6)
    need = 6 * 6 * 8
    monkeypatch.setattr(metrics_mod, "DENSE_FALLBACK_MAX_BYTES", need)
    assert len(singular_values(G, m=6).values) == 6
    monkeypatch.setattr(metrics_mod, "DENSE_FALLBACK_MAX_BYTES", need - 1)
    with pytest.raises(MetricError, match=f"{need} bytes"):
        singular_values(G, m=6)
    # The iterative path allocates no dense matrix and is not limited.
    assert len(singular_values(G, m=4).values) == 4
