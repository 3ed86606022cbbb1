"""Total multi-cores for commodity graphs: the interval family of the demand
pairs, the constructive hitting-set route, and brute-force oracles for the
hitting, packing, and multi-core numbers at desk scale.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graphs import Ball, DistanceMatrix, Graph, check_pairs, intercepted_pairs, interval
from .halfint import HalfInt
from .quasiconvex import QSetFamily, greedy_hit_pack, neighborhood


@dataclass(frozen=True)
class MultiCoreResult:
    centers: tuple[int, ...]
    radius: int
    covered: bool


def interval_family(dm: DistanceMatrix, pairs: Sequence[tuple[int, int]]) -> QSetFamily:
    """One measured quasiconvex set per demand pair: its interval.  Duplicate
    demand pairs keep duplicate sets (multiset semantics)."""
    pairs = check_pairs(dm.n, pairs)
    if not pairs:
        raise ValueError("commodity graph has no demand pairs")
    return QSetFamily.measure(
        dm,
        [interval(dm, x, y) for x, y in pairs],
        names=[f"I({x},{y})" for x, y in pairs],
    )


def multicore_construct(
    g: Graph, dm: DistanceMatrix, pairs: Sequence[tuple[int, int]], r: int, delta: HalfInt
) -> MultiCoreResult:
    """Centers of radius-r balls jointly intercepting every demand pair.

    pairs lists the demand pairs (x, y) of vertex ids, repeats kept; an
    empty list, or a pair that ``check_pairs`` rejects, raises ValueError
    before the radius is checked.

    Runs the greedy hitting/packing pass on the demand intervals with gap
    r - 5*delta (clamped at 0); hitting the (r - delta)-inflation of an
    interval is enough to intercept every geodesic of its pair at radius r.
    The returned flag records the exhaustive per-pair interception check,
    one ``intercepted_pairs`` call per center over the pairs not yet
    intercepted.
    Requires r >= 8*delta, the hypothesis under which the covering radius
    collapses below r - delta.
    """
    fam = interval_family(dm, pairs)
    floor8 = (delta * 8).floor()
    if r < floor8:
        raise ValueError(
            f"radius r={r} below 8*delta={delta * 8}: the multi-core construction "
            f"requires r >= 8*delta"
        )
    gap = max((HalfInt(r) - delta * 5).floor(), 0)
    hp = greedy_hit_pack(g, dm, fam, gap, delta)
    centers = hp.hitting_set
    pending = np.array(pairs, dtype=np.intp)
    for c in centers:
        if not len(pending):
            break
        hit = intercepted_pairs(g, dm, Ball(c, r), pending)
        pending = pending[~hit]
    return MultiCoreResult(centers=centers, radius=r, covered=not len(pending))


def _interception_masks(
    g: Graph, dm: DistanceMatrix, pairs: Sequence[tuple[int, int]], r: int
) -> list[int]:
    """Per-vertex bitmask of demand pairs intercepted by a radius-r ball."""
    masks = []
    for v in range(g.n):
        hit = intercepted_pairs(g, dm, Ball(v, r), pairs)
        masks.append(sum(1 << i for i in np.flatnonzero(hit).tolist()))
    return masks


def _smallest_cover(masks: list[int], bits: int, k_max: int) -> int | None:
    """Smallest k <= k_max such that the OR of some k masks has all ``bits``
    low bits set, or None.  Exhaustive over the nonzero masks."""
    full = (1 << bits) - 1
    candidates = [m for m in masks if m]
    for k in range(1, k_max + 1):
        for combo in combinations(candidates, k):
            acc = 0
            for m in combo:
                acc |= m
            if acc == full:
                return k
    return None


def brute_sigma(
    g: Graph, dm: DistanceMatrix, pairs: Sequence[tuple[int, int]], r: int, k_max: int
) -> int | None:
    """Exact smallest number of radius-r balls intercepting all demand pairs,
    or None when every size up to k_max fails.  Exhaustive; oracle scale only."""
    if not pairs:
        raise ValueError("commodity graph has no demand pairs")
    return _smallest_cover(_interception_masks(g, dm, pairs, r), len(pairs), k_max)


def brute_tau(n: int, vertex_sets: Sequence[Sequence[int]], k_max: int | None = None) -> int | None:
    """Exact hitting number of a family of vertex sets by exhaustive search."""
    sets = [frozenset(s) for s in vertex_sets]
    if any(not s for s in sets):
        raise ValueError("cannot hit an empty set")
    hit_mask = [0] * n
    for i, s in enumerate(sets):
        for v in s:
            hit_mask[v] |= 1 << i
    return _smallest_cover(hit_mask, len(sets), len(sets) if k_max is None else k_max)


def brute_pi(vertex_sets: Sequence[Sequence[int]]) -> int:
    """Exact packing number: largest subfamily of pairwise disjoint sets."""
    sets = [frozenset(s) for s in vertex_sets]
    m = len(sets)
    best = 0
    for mask in range(1, 1 << m):
        chosen = [sets[i] for i in range(m) if mask >> i & 1]
        if len(chosen) > best and all(a.isdisjoint(b) for a, b in combinations(chosen, 2)):
            best = len(chosen)
    return best


def inflate_family(dm: DistanceMatrix, pairs: Sequence[tuple[int, int]], r: int) -> list[list[int]]:
    """r-inflations of the demand intervals, as plain vertex lists."""
    return [neighborhood(dm, interval(dm, x, y), r) for x, y in pairs]
