"""Exact checks of the claims that reports rest on (README, Checks).  Each
reads the distance matrix, the graph and the claimed witness, never the
pass that built it, and this module imports only ``graphs``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain

import numpy as np

from .graphs import (
    DistanceMatrix,
    Graph,
    _min_rows,
    _set_block,
    check_vertices,
    intercepted_pairs,
)


def four_point_defect(dm: DistanceMatrix, quad: tuple[int, int, int, int]) -> Fraction:
    """Half the gap between the two largest distance sums of one quadruple."""
    check_vertices(dm.n, quad, "quadruple")
    u, v, x, y = quad
    d = dm.d
    sums = sorted((int(d[u, v] + d[x, y]), int(d[u, x] + d[v, y]), int(d[u, y] + d[v, x])))
    return Fraction(sums[2] - sums[1], 2)


def set_gaps(
    dm: DistanceMatrix, centers: Sequence[int], radius: int, members: Sequence[Sequence[int]]
) -> list[int | float]:
    """max(d(centers, S) - radius, 0) for each set S of ``members``: the
    distance from the balls B(c, radius), c in centers, to S, since a
    geodesic from c to a nearest s in S passes a ball vertex d(c, s) -
    radius from s.  With no center every gap is ``math.inf``."""
    centers = check_vertices(dm.n, centers, "center set")
    d = dm.d
    to_centers = d.take(centers, axis=0).min(axis=0, initial=np.iinfo(d.dtype).max)
    near = _min_rows(to_centers, members).tolist()
    if not centers:
        return [math.inf] * len(near)
    return [max(x - radius, 0) for x in near]


def check_hit_pack(
    dm: DistanceMatrix,
    members: Sequence[Sequence[int]],
    hitting: Sequence[int],
    hit_radius: int,
    packing: Sequence[int],
    pack_gap: int,
) -> tuple[bool, bool]:
    """Exhaustive (hitting, packing) certificates for a family of vertex
    sets: every member lies within ``hit_radius`` of ``hitting`` (each
    ``set_gaps`` entry is 0), and the members indexed by ``packing`` are
    pairwise more than 2*pack_gap apart."""
    check_vertices(dm.n, hitting, "hitting set")
    check_vertices(dm.n, chain.from_iterable(members), "members")
    for a in packing:
        if not (0 <= a < len(members)):
            raise ValueError(f"packing index {a} out of range for {len(members)} members")
    hit_ok = not any(set_gaps(dm, hitting, hit_radius, members))
    _, gaps = _set_block(dm, [members[a] for a in packing])
    pack_ok = not np.triu(gaps <= 2 * pack_gap, 1).any()
    return hit_ok, pack_ok


def balls_intercept(
    g: Graph, dm: DistanceMatrix, centers: Sequence[int], radius: int, pairs: Sequence[Sequence[int]]
) -> bool:
    """Whether each pair (x, y) has one ball B(c, radius), c in centers,
    that every (x,y)-geodesic meets: one ``graphs.intercepted_pairs`` call
    per center over the pairs still open, until none is."""
    pending = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    for c in centers:
        if not len(pending):
            break
        pending = pending[~intercepted_pairs(g, dm, c, radius, pending)]
    return not len(pending)
