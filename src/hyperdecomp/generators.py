"""Hypergraph generators and pattern-based model scoring.

Includes the group-degree preferential-attachment generator, its
node-degree simplification, an incremental subset-sampling generator,
and a size-preserving null model, plus parameter learning from timestamped
data and a scorecard comparing generated output against a reference
hypergraph across decomposition levels.
"""

from __future__ import annotations

import bisect
import math
import random
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, combinations, islice
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import DecomposedGraph, Hyperedge, Hypergraph, ValidationError
from .decompose import DecomposeConfig, decompose
from .metrics import (
    ComponentReport,
    clustering_coefficient,
    connected_components,
    effective_diameter,
    singular_values,
)
from .tailfit import ks_dstat

__all__ = [
    "GenParams",
    "learn_params",
    "GroupDegreeIndex",
    "hyperpa",
    "hyperpa_detailed",
    "naivepa",
    "SamplingRule",
    "subset_sampling",
    "null_model",
    "ScoreCard",
    "evaluate",
]

DEFAULT_SUBSET_CAP = 6
KS_THRESHOLD = 0.2


class _DistSampler:
    """Inverse-CDF sampler over an integer-valued distribution."""

    def __init__(self, dist: Mapping[int, float], name: str, min_key: int):
        total = 0.0
        for k, w in dist.items():
            if not isinstance(k, int) or k < min_key:
                raise ValidationError(f"{name}: invalid support value {k!r}")
            if w < 0 or not math.isfinite(w):
                raise ValidationError(f"{name}: invalid weight {w!r}")
            total += w
        if abs(total - 1.0) > 1e-6:
            raise ValidationError(f"{name}: weights sum to {total}, expected 1")
        items = sorted((k, w) for k, w in dist.items() if w > 0)
        if not items:
            raise ValidationError(f"{name}: no positive-weight value")
        self.values = [k for k, _ in items]
        self.cum = list(accumulate(w / total for _, w in items))
        self.cum[-1] = 1.0

    def draw(self, rng: random.Random) -> int:
        return self.values[bisect.bisect_right(self.cum, rng.random())]


@dataclass(frozen=True)
class GenParams:
    """Input distributions for the generators.

    `sizes` gives the hyperedge-size law, `new_edges` the law of how many
    hyperedges arrive with each new node, and `n` the number of new nodes
    to generate.
    """

    n: int
    sizes: dict[int, float]
    new_edges: dict[int, float]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError("n must be >= 1")
        _DistSampler(self.sizes, "sizes", min_key=1)
        _DistSampler(self.new_edges, "new_edges", min_key=0)

    @property
    def max_size(self) -> int:
        return max(k for k, w in self.sizes.items() if w > 0)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "sizes": {str(k): v for k, v in sorted(self.sizes.items())},
            "new_edges": {str(k): v for k, v in sorted(self.new_edges.items())},
        }

    @classmethod
    def from_dict(cls, obj: Mapping) -> "GenParams":
        try:
            n = int(obj["n"])
            if isinstance(obj["n"], float) and n != obj["n"]:
                raise ValueError(f"n must be a whole number, got {obj['n']!r}")
            sizes = {int(k): float(v) for k, v in obj["sizes"].items()}
            new_edges = {int(k): float(v) for k, v in obj["new_edges"].items()}
        except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed generator parameters: {exc}") from exc
        return cls(n=n, sizes=sizes, new_edges=new_edges)


def learn_params(H: Hypergraph) -> GenParams:
    """Extract size and arrival distributions from timestamped data.

    Hyperedges are ordered by timestamp (stable on ties) and node ids are
    reassigned in order of first appearance; the arrival distribution
    counts how many hyperedges each node brings, i.e. how many have that
    node as their latest member. Nodes arriving with zero hyperedges of
    their own contribute mass at zero.
    """
    if not H.deduplicated:
        raise ValidationError("parameter learning expects deduplicated input")
    if any(e.timestamp is None for e in H.edges):
        raise ValidationError("parameter learning needs a timestamp on every hyperedge")
    if H.num_edges == 0:
        raise ValidationError("cannot learn parameters from an empty hypergraph")
    ordered = sorted(H.edges, key=lambda e: e.timestamp)
    new_id: dict[int, int] = {}
    arrivals = Counter()
    sizes = Counter()
    for e in ordered:
        for v in e.members:
            if v not in new_id:
                new_id[v] = len(new_id)
        arrivals[max(new_id[v] for v in e.members)] += 1
        sizes[len(e.members)] += 1
    m = H.num_edges
    per_node = Counter(arrivals.get(i, 0) for i in range(H.n))
    return GenParams(
        n=H.n,
        sizes={k: c / m for k, c in sorted(sizes.items())},
        new_edges={k: c / H.n for k, c in sorted(per_node.items())},
    )


# Largest node id a GroupDegreeIndex row (uint32) can hold.
_ROW_ID_MAX = 2**32 - 1


class GroupDegreeIndex:
    """Degree-proportional sampler over node groups of bounded size.

    For each group size j up to `cap` the index stores one row of j ids per
    (hyperedge, subset) incidence, flat in one uint32 array, so a group's
    degree is its row count and a uniform row draw is a degree-proportional
    group draw.
    """

    def __init__(self, cap: int):
        if cap < 1:
            raise ValidationError("group-size cap must be >= 1")
        self.cap = cap
        self._rows = {j: array("I") for j in range(1, cap + 1)}

    def add_hyperedge(self, members: Sequence[int]) -> None:
        if members and max(members) > _ROW_ID_MAX:
            raise ValidationError(
                f"node id {max(members)} does not fit the index's uint32 rows"
            )
        for j in range(1, min(len(members), self.cap) + 1):
            self._rows[j].extend(chain.from_iterable(combinations(members, j)))

    def count(self, size: int) -> int:
        """Total degree mass held by groups of the given size."""
        return len(self._rows[size]) // size if size in self._rows else 0

    def sample(self, size: int, rng: random.Random) -> tuple[int, ...]:
        used = self.count(size)
        if used == 0:
            raise ValidationError(f"no group of size {size} has positive degree")
        start = rng.randrange(used) * size
        return tuple(self._rows[size][start : start + size])

    def degrees(self, size: int) -> Counter:
        """Recount of group degrees, for verification against stored edges."""
        rows = self._rows.get(size, ())
        return Counter(tuple(rows[i : i + size]) for i in range(0, len(rows), size))


@dataclass(frozen=True)
class RunStats:
    """Bookkeeping from one generator run, for manifests and invariants."""

    fallback_draws: int = 0
    capped_draws: int = 0

    def to_dict(self) -> dict:
        return {"fallback_draws": self.fallback_draws, "capped_draws": self.capped_draws}


def _grow(
    params: GenParams,
    rng: random.Random,
    seed_size: int,
    seed_count: int,
    choose: Callable[[int, int], tuple[int, ...]],
    absorb: Callable[[tuple[int, ...]], object],
) -> Hypergraph:
    """The arrival process shared by the growth models.

    Seeds `seed_count` disjoint hyperedges of `seed_size` fresh nodes, then
    each arriving node draws a hyperedge count and a size s per hyperedge for
    `choose(node, s)` to fill. `absorb` takes the seeds, then each node's
    hyperedges once all of them are drawn.
    """
    if seed_count < 1:
        raise ValidationError("size distribution must reach 2 for attachment to work")
    size_sampler = _DistSampler(params.sizes, "sizes", 1)
    arrival_sampler = _DistSampler(params.new_edges, "new_edges", 0)
    edges = [tuple(range(t * seed_size, (t + 1) * seed_size)) for t in range(seed_count)]
    for e in edges:
        absorb(e)
    first = seed_size * seed_count
    for node in range(first, first + params.n):
        new = [choose(node, size_sampler.draw(rng)) for _ in range(arrival_sampler.draw(rng))]
        for e in new:
            absorb(e)
        edges.extend(new)
    return Hypergraph(n=first + params.n, edges=tuple(Hyperedge(members=e) for e in edges))


def hyperpa_detailed(
    params: GenParams,
    seed: int = 0,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> tuple[Hypergraph, RunStats]:
    """Group-degree preferential attachment, with run statistics.

    Each arriving node draws a hyperedge count and, per hyperedge, a size
    s; the other s-1 members come from an existing group chosen with
    probability proportional to its degree. When no group of the needed
    size exists yet the members are picked uniformly at random; when s-1
    exceeds the tracked group-size cap they are picked as independent
    degree-proportional nodes. The index only absorbs a node's hyperedges
    after all of them are drawn.
    """
    rng = random.Random(seed)
    index = GroupDegreeIndex(subset_cap)
    fallback = capped = 0

    def choose(node: int, s: int) -> tuple[int, ...]:
        nonlocal fallback, capped
        g_size = s - 1
        if g_size == 0:
            return (node,)
        if g_size > subset_cap:
            capped += 1
            chosen: set[int] = set()
            while len(chosen) < g_size:
                chosen.add(index.sample(1, rng)[0])
            group = tuple(chosen)
        elif index.count(g_size) == 0:
            fallback += 1
            group = tuple(rng.sample(range(node), g_size))
        else:
            group = index.sample(g_size, rng)
        return tuple(sorted(group + (node,)))

    H = _grow(params, rng, 2, params.max_size // 2, choose, index.add_hyperedge)
    return H, RunStats(fallback_draws=fallback, capped_draws=capped)


def hyperpa(
    params: GenParams, seed: int = 0, subset_cap: int = DEFAULT_SUBSET_CAP
) -> Hypergraph:
    return hyperpa_detailed(params, seed=seed, subset_cap=subset_cap)[0]


def naivepa(params: GenParams, seed: int = 0) -> Hypergraph:
    """Node-degree preferential attachment.

    Like the group-degree generator but the s-1 partners are independent
    degree-proportional node draws, deduplicated by redrawing. Degrees
    update only after each node's hyperedges are all drawn.
    """
    rng = random.Random(seed)
    bag: list[int] = []

    def choose(node: int, s: int) -> tuple[int, ...]:
        chosen: set[int] = set()
        while len(chosen) < s - 1:
            chosen.add(bag[rng.randrange(len(bag))])
        return tuple(sorted(chosen | {node}))

    return _grow(params, rng, 2, params.max_size // 2, choose, bag.extend)


@dataclass(frozen=True)
class SamplingRule:
    """How the subset-sampling generator picks the prior hyperedge.

    `kind` is one of "random", "recent", or "k-most-recent"; the last
    takes a window size `k` and an inner rule applied within the window.
    """

    kind: str = "random"
    k: int | None = None
    inner: str = "random"

    def __post_init__(self) -> None:
        if self.kind not in ("random", "recent", "k-most-recent"):
            raise ValidationError(f"unknown sampling rule {self.kind!r}")
        if self.kind == "k-most-recent":
            if self.k is None or self.k < 1:
                raise ValidationError("k-most-recent needs a window size k >= 1")
            if self.inner not in ("random", "recent"):
                raise ValidationError(f"unknown inner rule {self.inner!r}")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "k-most-recent":
            out["k"] = self.k
            out["inner"] = self.inner
        return out


def _pick_recent(count: int, rng: random.Random) -> int:
    """Position in 1..count with probability proportional to position."""
    target = rng.random() * count * (count + 1)
    i = int(math.ceil((-1.0 + math.sqrt(1.0 + 4.0 * target)) / 2.0))
    i = max(1, min(i, count))
    while i < count and i * (i + 1) < target:
        i += 1
    while i > 1 and (i - 1) * i >= target:
        i -= 1
    return i


def _pick_prior(
    edges: list[tuple[int, ...]], rule: SamplingRule, rng: random.Random
) -> tuple[int, ...]:
    """Uniform or recency-weighted draw, within the window for k-most-recent."""
    windowed = rule.kind == "k-most-recent"
    lo = max(0, len(edges) - rule.k) if windowed else 0
    if (rule.inner if windowed else rule.kind) == "random":
        return edges[lo + rng.randrange(len(edges) - lo)]
    return edges[lo + _pick_recent(len(edges) - lo, rng) - 1]


def subset_sampling(
    params: GenParams,
    p: float = 0.8,
    rule: SamplingRule | None = None,
    seed: int = 0,
) -> Hypergraph:
    """Grow hyperedges by Bernoulli-sampling members of prior hyperedges.

    A new hyperedge starts from its arriving node and repeatedly samples a
    prior hyperedge (per the rule), admitting each of its nodes with
    probability p; overshoot is truncated uniformly. Runs until the drawn
    size is reached, which happens with probability one for p > 0; a
    k-most-recent window with too few nodes raises ValidationError instead.
    """
    if not 0.0 < p <= 1.0:
        raise ValidationError("inclusion probability must lie in (0, 1]")
    rule = rule if rule is not None else SamplingRule()
    rng = random.Random(seed)
    prior: list[tuple[int, ...]] = []

    def choose(node: int, s: int) -> tuple[int, ...]:
        if rule.kind == "k-most-recent":
            reach: set[int] = set()
            for e in islice(reversed(prior), rule.k):
                reach.update(e)
                if len(reach) + 1 >= s:
                    break
            else:
                held = f"the k={rule.k} most recent hyperedges hold {len(reach)} nodes"
                raise ValidationError(f"{held}, too few for a hyperedge of size s={s}")
        members = {node}
        while len(members) < s:
            picked = _pick_prior(prior, rule, rng)
            pool = [v for v in picked if v not in members and rng.random() < p]
            room = s - len(members)
            if len(pool) > room:
                pool = rng.sample(sorted(pool), room)
            members.update(pool)
        return tuple(sorted(members))

    return _grow(params, rng, params.max_size, 2, choose, prior.append)


def null_model(H: Hypergraph, seed: int = 0) -> Hypergraph:
    """Replace every hyperedge by a uniform random subset of the same size."""
    rng = random.Random(seed)
    out = []
    for e in H.edges:
        members = tuple(sorted(rng.sample(range(H.n), len(e.members))))
        out.append(Hyperedge(members=members, timestamp=e.timestamp))
    return Hypergraph(n=H.n, edges=tuple(out))


# --- pattern scoring -------------------------------------------------------

AWARDED = "awarded"
DENIED = "denied"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class PatternOutcome:
    status: str
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"status": self.status, "detail": dict(self.detail)}


@dataclass(frozen=True)
class ScoreCard:
    """Per-level pattern outcomes plus the aggregate point count."""

    levels: dict[int, dict[str, PatternOutcome]]
    points: int
    applicable: int

    def to_dict(self) -> dict:
        return {
            "points": self.points,
            "applicable": self.applicable,
            "levels": {
                str(lv): {name: po.to_dict() for name, po in sorted(row.items())}
                for lv, row in sorted(self.levels.items())
            },
        }


@dataclass(frozen=True, eq=False)
class _LevelProfile:
    report: ComponentReport
    degrees: np.ndarray
    spectrum: np.ndarray
    diameter: float | None
    clustering: float | None


@lru_cache(maxsize=8)
def _level_profile(H: Hypergraph, level: int, sv_count: int, seed: int) -> _LevelProfile:
    G = decompose(H, DecomposeConfig.for_level(level))
    report = connected_components(G)
    degrees = G.degrees()
    spectrum = np.array(singular_values(G, m=min(sv_count, max(G.num_nodes, 1))).values)
    diameter = None
    clustering = None
    if report.is_giant:
        diameter = effective_diameter(G, seed=seed)
        clustering = clustering_coefficient(G)
    return _LevelProfile(
        report=report,
        degrees=degrees,
        spectrum=spectrum,
        diameter=diameter,
        clustering=clustering,
    )


def _score_level(
    real: _LevelProfile, gen: _LevelProfile
) -> dict[str, PatternOutcome]:
    row: dict[str, PatternOutcome] = {}
    p1 = gen.report.is_giant
    row["P1"] = PatternOutcome(
        AWARDED if p1 else DENIED,
        {
            "real_largest_frac": real.report.largest_frac,
            "gen_largest_frac": gen.report.largest_frac,
        },
    )

    if gen.degrees.size == 0:
        row["P2"] = PatternOutcome(DENIED, {"reason": "generated level graph is empty"})
        row["P5"] = PatternOutcome(DENIED, {"reason": "generated level graph is empty"})
    else:
        d_deg = ks_dstat(real.degrees, gen.degrees)
        row["P2"] = PatternOutcome(
            AWARDED if d_deg < KS_THRESHOLD else DENIED, {"ks": d_deg}
        )
        d_sv = ks_dstat(real.spectrum, gen.spectrum)
        row["P5"] = PatternOutcome(
            AWARDED if d_sv < KS_THRESHOLD else DENIED, {"ks": d_sv}
        )

    if not p1:
        reason = {"reason": "generated graph lacks a giant component"}
        row["P3"] = PatternOutcome(DENIED, dict(reason))
        row["P4"] = PatternOutcome(DENIED, dict(reason))
        return row

    assert real.diameter is not None and real.clustering is not None
    assert gen.diameter is not None and gen.clustering is not None
    d, d_gen = real.diameter, gen.diameter
    ok_d = 2.0 * d / 3.0 < d_gen < 4.0 * d / 3.0
    row["P3"] = PatternOutcome(
        AWARDED if ok_d else DENIED, {"real": d, "gen": d_gen}
    )
    c, c_gen = real.clustering, gen.clustering
    ok_c = 2.0 * c / 3.0 < c_gen < min(4.0 * c / 3.0, 1.0)
    row["P4"] = PatternOutcome(
        AWARDED if ok_c else DENIED, {"real": c, "gen": c_gen}
    )
    return row


def evaluate(
    real: Hypergraph,
    gen: Hypergraph,
    levels: Iterable[int] = (1, 2, 3, 4),
    sv_count: int = 100,
    seed: int = 0,
) -> ScoreCard:
    """Score a generated hypergraph against a reference, level by level.

    At each level where the reference's decomposed graph has a giant
    component, five points are at stake: giant component, degree-profile
    closeness, effective diameter within a third, clustering within a
    third (capped at one), and singular-spectrum closeness. Diameter and
    clustering are only comparable when the generated graph passes the
    giant-component check. Levels where the reference itself is shattered
    are not applicable.
    """
    out: dict[int, dict[str, PatternOutcome]] = {}
    points = 0
    applicable = 0
    for level in sorted(set(levels)):
        rp = _level_profile(real, level, sv_count, seed)
        if not rp.report.is_giant:
            out[level] = {
                name: PatternOutcome(
                    NOT_APPLICABLE, {"reason": "reference is shattered at this level"}
                )
                for name in ("P1", "P2", "P3", "P4", "P5")
            }
            continue
        gp = _level_profile(gen, level, sv_count, seed)
        row = _score_level(rp, gp)
        out[level] = row
        for po in row.values():
            applicable += 1
            if po.status == AWARDED:
                points += 1
    return ScoreCard(levels=out, points=points, applicable=applicable)
