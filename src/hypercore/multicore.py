"""Total multi-cores for commodity graphs: the interval family of the demand
pairs and the constructive hitting-set route.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .graphs import Ball, DistanceMatrix, Graph, check_pairs, intercepted_pairs, interval
from .halfint import HalfInt
from .quasiconvex import QSetFamily, greedy_hit_pack


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

