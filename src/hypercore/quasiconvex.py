"""Quasiconvexity measurement and the Helly-type machinery built on it:
projections toward a base vertex, the common-ball center for 2r-close
families, the greedy primal-dual hitting/packing construction, and the
inflated-ball Helly check.

Every quasiconvexity defect is measured from the distance matrix, never
trusted from input.  Radius formulas take the thin-triangle constant as a
caller-supplied HalfInt (usually 4x the measured four-point constant) and
floor to an integer only when a concrete ball is built.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .graphs import (
    Ball,
    DistanceMatrix,
    Graph,
    _descent,
    check_vertices,
    interval,
    set_distance,
)
from .halfint import HalfInt, half_max


@dataclass(frozen=True)
class QSet:
    """A nonempty vertex set together with its measured quasiconvexity defect."""

    members: tuple[int, ...]
    epsilon: int

    @classmethod
    def measure(cls, dm: DistanceMatrix, members: Sequence[int]) -> "QSet":
        ms = tuple(sorted(set(members)))
        return cls(members=ms, epsilon=measure_epsilon(dm, ms))


@dataclass(frozen=True)
class QSetFamily:
    sets: tuple[QSet, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.sets:
            raise ValueError("family must contain at least one set")
        if self.names is not None and len(self.names) != len(self.sets):
            raise ValueError("names and sets lengths differ")

    @classmethod
    def measure(
        cls,
        dm: DistanceMatrix,
        vertex_sets: Sequence[Sequence[int]],
        names: Sequence[str] | None = None,
    ) -> "QSetFamily":
        sets = tuple(QSet.measure(dm, vs) for vs in vertex_sets)
        return cls(sets=sets, names=tuple(names) if names is not None else None)

    @property
    def family_epsilon(self) -> int:
        return max(s.epsilon for s in self.sets)

    def name_of(self, i: int) -> str:
        return self.names[i] if self.names is not None else f"set[{i}]"

    def __len__(self):
        return len(self.sets)


@dataclass(frozen=True)
class HitPackResult:
    """A hitting set and a packing of equal size, with their radii.

    Every family member lies within ``hit_radius`` of some vertex of
    ``hitting_set``; the members indexed by ``packing`` are pairwise more
    than 2*pack_gap apart.
    """

    hitting_set: tuple[int, ...]
    packing: tuple[int, ...]
    hit_radius: int
    pack_gap: int


def measure_epsilon(dm: DistanceMatrix, C: Sequence[int]) -> int:
    """Least eps such that every geodesic between members of C stays within
    distance eps of C.  Equals the max of d(z, C) over interval vertices z."""
    members = check_vertices(dm.n, C, "set")
    if not members:
        raise ValueError("cannot measure quasiconvexity of an empty set")
    d = dm.d
    to_c = d[:, members].min(axis=1)
    eps = 0
    for i, x in enumerate(members):
        dx = d[x]
        for y in members[i + 1 :]:
            on_interval = dx + d[y] == d[x, y]
            val = int(to_c[on_interval].max())
            if val > eps:
                eps = val
    return eps


def neighborhood(dm: DistanceMatrix, S: Sequence[int], r: int) -> list[int]:
    """N_r(S): all vertices within distance r of S."""
    members = check_vertices(dm.n, S, "set")
    if not members:
        raise ValueError("neighborhood of an empty set")
    if r < 0:
        raise ValueError(f"negative neighborhood radius {r}")
    return np.flatnonzero(dm.d[:, members].min(axis=1) <= r).tolist()


def project_toward(g: Graph, dm: DistanceMatrix, z: int, Q: Sequence[int], r: int) -> int:
    """Walk r steps from the closest vertex of Q toward z along one geodesic.

    x is the member of Q closest to z (smallest id on ties); the geodesic is
    the smallest-id descent of ``descend_geodesic`` from x to z.  When r
    exceeds d(z, Q) the walk stops at z itself.
    """
    if not Q:
        raise ValueError("cannot project toward an empty set")
    check_vertices(dm.n, [z], "base vertex")
    check_vertices(dm.n, Q, "Q")
    d = dm.d
    x = min(Q, key=lambda q: (int(d[z, q]), q))
    steps = min(r, int(d[x, z]))
    return next(islice(_descent(g, dm, x, z), steps, None))


def covering_radius(r: int, epsilon: int, delta: HalfInt | int) -> HalfInt:
    """max(2*eps + 5*delta, r + eps + 3*delta), exactly."""
    dlt = delta if isinstance(delta, HalfInt) else HalfInt(delta)
    return half_max(2 * epsilon + dlt * 5, r + epsilon + dlt * 3)


def _require_pairwise_close(dm: DistanceMatrix, family: QSetFamily, r: int) -> None:
    sets = family.sets
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            gap = set_distance(dm, sets[i].members, sets[j].members)
            if gap > 2 * r:
                raise ValueError(
                    f"{family.name_of(i)} and {family.name_of(j)} are {gap} apart, "
                    f"more than 2r = {2 * r}: family is not pairwise 2r-close"
                )


def helly_center(
    g: Graph,
    dm: DistanceMatrix,
    family: QSetFamily,
    r: int,
    delta: HalfInt,
    *,
    z: int = 0,
) -> Ball:
    """A single ball meeting every member of a pairwise 2r-close family.

    Projects the base vertex z onto the farthest member and returns the ball
    of radius floor(max(2*eps + 5*delta, r + eps + 3*delta)) around the
    projection point.  Pairwise 2r-closeness is checked up front.
    """
    if r < 0:
        raise ValueError(f"negative closeness radius {r}")
    _require_pairwise_close(dm, family, r)
    d = dm.d
    dists = [int(d[z, list(s.members)].min()) for s in family.sets]
    farthest = max(range(len(family)), key=lambda i: (dists[i], -i))
    c = project_toward(g, dm, z, family.sets[farthest].members, r)
    radius = covering_radius(r, family.family_epsilon, delta).floor()
    return Ball(c, max(radius, 0))


def greedy_hit_pack(
    g: Graph,
    dm: DistanceMatrix,
    family: QSetFamily,
    r: int,
    delta: HalfInt,
    *,
    z: int = 0,
) -> HitPackResult:
    """Primal-dual greedy: one hitting vertex and one packed set per round.

    Rounds pick the remaining set farthest from z, project z onto it at
    offset r, then discard every remaining set within 2r of the pick.
    Discarded sets are guaranteed to lie within the covering radius of the
    projection point, so the hitting set and the packing come out the same
    size.
    """
    if r < 0:
        raise ValueError(f"negative packing gap {r}")
    d = dm.d
    sets = family.sets
    members = [list(s.members) for s in sets]
    dists = [int(d[z, ms].min()) for ms in members]
    remaining = list(range(len(sets)))
    hitting: list[int] = []
    packing: list[int] = []
    while remaining:
        pick = max(remaining, key=lambda i: (dists[i], -i))
        c = project_toward(g, dm, z, sets[pick].members, r)
        hitting.append(c)
        packing.append(pick)
        near = d[members[pick]].min(axis=0)  # distance of every vertex to the pick
        remaining = [j for j in remaining if j != pick and int(near[members[j]].min()) > 2 * r]
    hit_radius = covering_radius(r, family.family_epsilon, delta).floor()
    return HitPackResult(
        hitting_set=tuple(hitting),
        packing=tuple(packing),
        hit_radius=max(hit_radius, 0),
        pack_gap=r,
    )


def check_hit_pack(
    dm: DistanceMatrix,
    members: Sequence[Sequence[int]],
    hitting: Sequence[int],
    hit_radius: int,
    packing: Sequence[int],
    pack_gap: int,
) -> tuple[bool, bool]:
    """Exhaustive (hitting, packing) certificates for a family of vertex sets.

    Hitting holds when every member lies within ``hit_radius`` of some vertex
    of ``hitting``; packing holds when the members indexed by ``packing`` are
    pairwise more than 2*pack_gap apart.
    """
    check_vertices(dm.n, hitting, "hitting set")
    check_vertices(dm.n, chain.from_iterable(members), "members")
    for a in packing:
        if not (0 <= a < len(members)):
            raise ValueError(f"packing index {a} out of range for {len(members)} members")
    d = dm.d
    rows = d[list(hitting)]
    hit_ok = all(int(rows[:, list(ms)].min()) <= hit_radius for ms in members)
    pack_ok = True
    for i, a in enumerate(packing[:-1]):
        near = d[list(members[a])].min(axis=0)  # distance of every vertex to member a
        if any(int(near[list(members[b])].min()) <= 2 * pack_gap for b in packing[i + 1 :]):
            pack_ok = False
            break
    return hit_ok, pack_ok


def helly_balls_check(
    dm: DistanceMatrix, balls: Sequence[Ball], delta: HalfInt
) -> int | None:
    """Common vertex of the delta-inflated balls of a pairwise intersecting
    collection, or None if no such vertex exists.

    Pairwise intersection of the input balls is a precondition and is
    verified; the inflation applied is ceil(delta).
    """
    if not balls:
        raise ValueError("empty ball collection")
    check_vertices(dm.n, [b.center for b in balls], "ball centers")
    d = dm.d
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            bi, bj = balls[i], balls[j]
            if int(d[bi.center, bj.center]) > bi.radius + bj.radius:
                raise ValueError(
                    f"balls {i} and {j} do not intersect "
                    f"(d={int(d[bi.center, bj.center])} > {bi.radius}+{bj.radius})"
                )
    inflate = delta.ceil() if isinstance(delta, HalfInt) else int(delta)
    ok = np.ones(dm.n, dtype=bool)
    for b in balls:
        ok &= d[b.center] <= b.radius + inflate
    hits = np.flatnonzero(ok)
    return int(hits[0]) if len(hits) else None


def is_interval_like(dm: DistanceMatrix, members: Sequence[int]) -> bool:
    """True when the set equals the interval of its own diametral pair.

    Such sets behave like geodesics in the covering bounds; callers report
    the tighter geodesic constants for them without asserting those.
    """
    ms = sorted(set(members))
    if len(ms) == 1:
        return True
    d = dm.d
    sub = d[np.ix_(ms, ms)]
    flat = int(sub.argmax())
    u, v = ms[flat // len(ms)], ms[flat % len(ms)]
    return set(ms) == set(interval(dm, u, v))


def geodesic_covering_radius(r: int, delta: HalfInt) -> HalfInt:
    """Tighter covering radius applicable when all members are geodesic-like:
    2*delta for intersecting families, max(r + 3*delta, 4*delta) otherwise."""
    if r == 0:
        return delta * 2
    return half_max(r + delta * 3, delta * 4)
