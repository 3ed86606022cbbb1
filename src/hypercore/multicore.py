"""Total multi-cores for commodity graphs: the interval family of the demand
pairs and the constructive hitting-set route.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .check import balls_intercept
from .graphs import DistanceMatrix, Graph, check_pairs, check_rational, row_chunks
from .quasiconvex import greedy_hit_pack


@dataclass(frozen=True)
class MultiCoreResult:
    centers: tuple[int, ...]
    radius: int
    covered: bool


def interval_family(dm: DistanceMatrix, pairs: Sequence[tuple[int, int]]) -> list[list[int]]:
    """One sorted vertex list per demand pair, its interval, unmeasured.
    Duplicate demand pairs keep duplicate sets (multiset semantics).

    The intervals come from one (pairs x n) comparison d(x, .) + d(y, .) ==
    d(x, y), in the distance type, which holds a sum of two distances.  It
    runs in row blocks of about 2**16 elements (``graphs.row_chunks``), so
    262 pairs of a 250-vertex graph are one block, and each block's hits
    are split by row into the intervals' sorted vertex lists.
    """
    pairs = check_pairs(dm.n, pairs)
    if not pairs:
        raise ValueError("commodity graph has no demand pairs")
    d = dm.d
    xs, ys = np.array(pairs, dtype=np.intp).T
    sets: list[list[int]] = []
    for rows in row_chunks(len(pairs), dm.n):
        x, y = xs[rows], ys[rows]
        between = d.take(x, axis=0)
        between += d.take(y, axis=0)
        mask = between == d.ravel().take(x * dm.n + y)[:, None]
        ends = np.cumsum(np.count_nonzero(mask, axis=1)).tolist()
        members = (np.flatnonzero(mask) % dm.n).tolist()  # row by row, each row sorted
        sets += [members[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]
    return sets


def multicore_construct(
    g: Graph, dm: DistanceMatrix, pairs: Sequence[tuple[int, int]], r: int, delta: Fraction
) -> MultiCoreResult:
    """Centers of radius-r balls jointly intercepting every demand pair.

    pairs lists the demand pairs (x, y) of vertex ids, repeats kept; an
    empty list, or a pair that ``check_pairs`` rejects, raises ValueError
    before the radius is checked.

    Runs the greedy hitting/packing pass on the demand intervals with gap
    r - 5*delta (clamped at 0); hitting the (r - delta)-inflation of an
    interval is enough to intercept every geodesic of its pair at radius r.
    The returned flag records the exhaustive per-pair interception check,
    ``check.balls_intercept``.
    Requires r >= 8*delta, the hypothesis under which the covering radius
    collapses below r - delta.
    """
    sets = interval_family(dm, pairs)
    check_rational(delta, "delta")
    floor8 = math.floor(delta * 8)
    if r < floor8:
        raise ValueError(
            f"radius r={r} below 8*delta={delta * 8}: the multi-core construction "
            f"requires r >= 8*delta"
        )
    gap = max(math.floor(r - delta * 5), 0)
    hp = greedy_hit_pack(g, dm, sets, gap)
    covered = balls_intercept(g, dm, hp.hitting_set, r, pairs)
    return MultiCoreResult(centers=hp.hitting_set, radius=r, covered=covered)

