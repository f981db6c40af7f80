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

from .core import DecomposedGraph, Hypergraph, ValidationError, first_appearance, pack_rows
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
        items = sorted((k, w) for k, w in dist.items() if w > 0)  # nonempty: the sum is near 1
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
    if H.num_edges == 0:
        raise ValidationError("cannot learn parameters from an empty hypergraph")
    if H.timestamps is None:
        raise ValidationError("parameter learning needs a timestamp on every hyperedge")
    sizes = np.diff(H.offsets)
    # Members in arrival order: hyperedges by timestamp (stable), each in id order.
    order = np.argsort(np.repeat(H.timestamps, sizes), kind="stable")
    new_ids = np.empty(len(H.members), dtype=np.int64)  # each member's new id, in place
    new_ids[order] = first_appearance(H.members[order])[1]
    arrivals = np.bincount(np.maximum.reduceat(new_ids, H.offsets[:-1]), minlength=H.n)
    m = H.num_edges
    size_counts, per_node = np.bincount(sizes), np.bincount(arrivals)
    return GenParams(
        n=H.n,
        sizes={int(k): int(size_counts[k]) / m for k in np.flatnonzero(size_counts)},
        new_edges={int(k): int(per_node[k]) / H.n for k in np.flatnonzero(per_node)},
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
        self._rows[1].extend(members)
        if self.cap > 1:  # at cap 1, setting up the range costs more than the extend
            for j in range(2, min(len(members), self.cap) + 1):
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
    offsets, members = pack_rows(edges)
    return Hypergraph(n=first + params.n, offsets=offsets, members=members)


def _attach(params: GenParams, seed: int, cap: int) -> tuple[Hypergraph, RunStats]:
    """The attachment process of `hyperpa_detailed`, with groups of up to
    `cap` nodes. A hyperedge that needs one partner, or more than `cap`,
    draws them from the index's size-1 rows, its node-degree bag."""
    rng = random.Random(seed)
    cap = min(cap, max(params.max_size - 1, 1))  # no larger group is ever drawn
    index = GroupDegreeIndex(cap)
    nodes = index._rows[1]  # one id per (hyperedge, member): the node-degree bag
    fallback = capped = 0

    def choose(node: int, s: int) -> tuple[int, ...]:
        nonlocal fallback, capped
        g_size = s - 1
        if g_size == 0:
            return (node,)
        if g_size == 1 or g_size > cap:  # the seeds leave the bag nonempty
            capped += g_size > cap
            chosen: set[int] = set()
            while len(chosen) < g_size:
                chosen.add(nodes[rng.randrange(len(nodes))])
            group = tuple(chosen)
        elif index.count(g_size) == 0:
            fallback += 1
            group = tuple(rng.sample(range(node), g_size))
        else:
            group = index.sample(g_size, rng)
        return tuple(sorted(group + (node,)))

    H = _grow(params, rng, 2, params.max_size // 2, choose, index.add_hyperedge)
    return H, RunStats(fallback_draws=fallback, capped_draws=capped)


def hyperpa_detailed(
    params: GenParams, seed: int = 0, subset_cap: int = DEFAULT_SUBSET_CAP
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
    return _attach(params, seed, subset_cap)


def hyperpa(
    params: GenParams, seed: int = 0, subset_cap: int = DEFAULT_SUBSET_CAP
) -> Hypergraph:
    return hyperpa_detailed(params, seed=seed, subset_cap=subset_cap)[0]


def naivepa(params: GenParams, seed: int = 0) -> Hypergraph:
    """Node-degree preferential attachment: group-degree attachment with
    one-node groups, so the s-1 partners are independent degree-proportional
    node draws, deduplicated by redrawing."""
    return _attach(params, seed, 1)[0]


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
    members = pack_rows([sorted(rng.sample(range(H.n), s)) for s in np.diff(H.offsets).tolist()])[1]
    return Hypergraph(n=H.n, offsets=H.offsets, members=members, timestamps=H.timestamps)


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
    report, degrees = connected_components(G), G.degrees()
    spectrum = np.array(singular_values(G, m=sv_count).values)
    if not report.is_giant:  # diameter and clustering are only compared on a giant
        return _LevelProfile(report, degrees, spectrum, None, None)
    diameter = effective_diameter(G, seed=seed)
    return _LevelProfile(report, degrees, spectrum, diameter, clustering_coefficient(G))


def _score_level(real: _LevelProfile, gen: _LevelProfile) -> dict[str, PatternOutcome]:
    def outcome(ok: bool, detail: dict) -> PatternOutcome:
        return PatternOutcome(AWARDED if ok else DENIED, detail)

    def ks_close(a: np.ndarray, b: np.ndarray) -> PatternOutcome:  # P2 and P5
        d = ks_dstat(a, b)
        return outcome(d < KS_THRESHOLD, {"ks": d})

    def within_a_third(r: float, g: float, cap: float = math.inf) -> PatternOutcome:  # P3, P4
        return outcome(2.0 * r / 3.0 < g < min(4.0 * r / 3.0, cap), {"real": r, "gen": g})

    largest = {"real_largest_frac": real.report.largest_frac,
               "gen_largest_frac": gen.report.largest_frac}
    row = {"P1": outcome(gen.report.is_giant, largest)}
    if gen.degrees.size == 0:
        for name in ("P2", "P5"):
            row[name] = outcome(False, {"reason": "generated level graph is empty"})
    else:
        row["P2"] = ks_close(real.degrees, gen.degrees)
        row["P5"] = ks_close(real.spectrum, gen.spectrum)
    if not gen.report.is_giant:
        for name in ("P3", "P4"):
            row[name] = outcome(False, {"reason": "generated graph lacks a giant component"})
        return row

    assert real.diameter is not None and real.clustering is not None
    assert gen.diameter is not None and gen.clustering is not None
    row["P3"] = within_a_third(real.diameter, gen.diameter)
    row["P4"] = within_a_third(real.clustering, gen.clustering, cap=1.0)
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
