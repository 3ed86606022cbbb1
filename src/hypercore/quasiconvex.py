"""Quasiconvexity measurement and the Helly-type machinery built on it:
projections toward a base vertex, the common-ball center for 2r-close
families, and the greedy primal-dual hitting/packing construction.

Every quasiconvexity defect is measured from the distance matrix, never
trusted from input.  Radius formulas take the thin-triangle constant as a
caller-supplied int or Fraction (usually 4x the measured four-point
constant) and floor to an integer only when a concrete ball is built.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice

import numpy as np

from .graphs import (
    Ball,
    DistanceMatrix,
    Graph,
    _descent,
    _fold_rows,
    _layout,
    _longer,
    _min_rows,
    _set_block,
    check_rational,
    check_vertices,
    interval,
    row_chunks,
)


@dataclass(frozen=True)
class QSet:
    """A nonempty vertex set together with its measured quasiconvexity defect."""

    members: tuple[int, ...]
    epsilon: int

    @classmethod
    def measure(cls, dm: DistanceMatrix, members: Sequence[int]) -> "QSet":
        return _measure_sets(dm, [members])[0]


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
        sets = tuple(_measure_sets(dm, vertex_sets))
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
    distance eps of C.

    Every geodesic between x and y lies in the interval I(x, y), and every
    interval vertex lies on one, so eps is the largest d(z, C) over z in the
    union of the intervals I(x, y), x < y in C, and 0 for a singleton.  It
    is computed by ``_set_epsilons`` (interval blocks of at most 2**16
    elements).
    """
    return _measure_sets(dm, [C])[0].epsilon


def _measure_sets(dm: DistanceMatrix, vertex_sets: Sequence[Sequence[int]]) -> list[QSet]:
    """One measured ``QSet`` per vertex collection, from one ``_set_epsilons``
    pass.  Each collection is checked in input order, its range before its
    emptiness, so the first bad one raises as ``measure_epsilon`` would."""
    sets = []
    for C in vertex_sets:
        members = check_vertices(dm.n, C, "set")
        if not members:
            raise ValueError("cannot measure quasiconvexity of an empty set")
        sets.append(members)
    return [QSet(tuple(ms), eps) for ms, eps in zip(sets, _set_epsilons(dm, sets))]


def _set_epsilons(dm: DistanceMatrix, sets: Sequence[Sequence[int]]) -> list[int]:
    """eps of every set of a family of nonempty, in-range vertex lists.

    eps(S) = max{d(z, S) : z in I(x, y), x < y in S}, and 0 for a singleton,
    where z lies in I(x, y) iff d(x, z) + d(z, y) = d(x, y): the union of
    the pairwise intervals, over the pairs of the pair loop
    (``tests/oracles.py``), so the values are the same.

    The sets are laid out largest first and unpadded (``graphs._layout``).
    For each member position b, the m sets with more than b members come
    first: their member b is flat[first[:m] + b] and their earlier members
    are flat[first[:m, None] + arange(b)].  They test the pairs (a, b),
    a < b, at once: a (sets x a x n) block of d(x, .) + d(y, .) compared
    with d(x, y) and OR-ed over a into the set's union mask.  A block holds
    at most 2**16 elements (``graphs.row_chunks``): whole sets while b*n
    fits, otherwise one set and a run of its earlier members.
    The matrix's distance type holds a sum of two distances, so the sums
    are formed in place (int16 below 16,384 vertices: a block takes 128 KB).
    """
    d, n = dm.d, dm.n
    order, flat, first, sizes = _layout(sets, n)
    near = _fold_rows(np.minimum, d, flat, first, sizes)  # d(v, S), layout order
    between = np.zeros(near.shape, dtype=bool)  # union of the set's intervals
    for b, m in enumerate(_longer(sizes)[1:], 1):
        # the sets with more than b members: earlier members x, member b as y
        xs, ys, mask = flat[first[:m, None] + np.arange(b)], flat[first[:m] + b], between[:m]
        y_rows = d.take(ys, axis=0)[:, None, :]
        for s in row_chunks(m, b * n):
            for a in row_chunks(b, n * (s.stop - s.start)):
                x = xs[s, a]
                block = d.take(x, axis=0)
                block += y_rows[s]
                mask[s] |= (block == d[x, ys[s, None]][:, :, None]).any(axis=1)
    eps = np.empty(len(sets), dtype=np.int64)
    eps[order] = np.where(between, near, 0).max(axis=1)
    return eps.tolist()


def neighborhood(dm: DistanceMatrix, S: Sequence[int], r: int) -> list[int]:
    """N_r(S): all vertices within distance r of S."""
    members = check_vertices(dm.n, S, "set")
    if not members:
        raise ValueError("neighborhood of an empty set")
    if r < 0:
        raise ValueError(f"negative neighborhood radius {r}")
    return np.flatnonzero(dm.d[members].min(axis=0) <= r).tolist()  # d is symmetric


def project_toward(g: Graph, dm: DistanceMatrix, z: int, Q: Sequence[int], r: int) -> int:
    """Walk r steps from the closest vertex of Q toward z along one geodesic.

    x is the member of Q closest to z (smallest id on ties); the geodesic is
    the smallest-id descent of ``descend_geodesic`` from x to z.  When r
    exceeds d(z, Q) the walk stops at z itself.
    """
    if not Q:
        raise ValueError("cannot project toward an empty set")
    if r < 0:
        raise ValueError(f"negative projection offset {r}")
    check_vertices(dm.n, [z], "base vertex")
    check_vertices(dm.n, Q, "Q")
    d = dm.d
    x = min(Q, key=lambda q: (int(d[z, q]), q))
    steps = min(r, int(d[x, z]))
    return next(islice(_descent(g, dm, x, z), steps, None))


def covering_radius(r: int, epsilon: int, delta: Fraction) -> Fraction:
    """max(2*eps + 5*delta, r + eps + 3*delta), exactly."""
    check_rational(delta, "delta")
    return max(2 * epsilon + delta * 5, r + epsilon + delta * 3)


def _require_pairwise_close(family: QSetFamily, gaps: np.ndarray, r: int) -> None:
    """Raise for the first pair i < j, in row order, of sets more than 2r
    apart; ``gaps`` is the family's set-to-set block."""
    far = np.flatnonzero(np.triu(gaps > 2 * r, 1))
    if len(far):
        i, j = divmod(int(far[0]), len(gaps))
        raise ValueError(
            f"{family.name_of(i)} and {family.name_of(j)} are {int(gaps[i, j])} apart, "
            f"more than 2r = {2 * r}: family is not pairwise 2r-close"
        )


def helly_center(
    g: Graph,
    dm: DistanceMatrix,
    family: QSetFamily,
    r: int,
    delta: Fraction,
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
    check_vertices(dm.n, [z], "base vertex")
    near, gaps = _set_block(dm, [s.members for s in family.sets])
    _require_pairwise_close(family, gaps, r)
    dists = near[:, z].tolist()
    farthest = max(range(len(family)), key=lambda i: (dists[i], -i))
    c = project_toward(g, dm, z, family.sets[farthest].members, r)
    radius = math.floor(covering_radius(r, family.family_epsilon, delta))
    return Ball(c, max(radius, 0))


def greedy_hit_pack(
    g: Graph,
    dm: DistanceMatrix,
    family: QSetFamily,
    r: int,
    delta: Fraction,
    *,
    z: int = 0,
) -> HitPackResult:
    """Primal-dual greedy: one hitting vertex and one packed set per round.

    Rounds pick the remaining set farthest from z, project z onto it at
    offset r, then discard every remaining set within 2r of the pick.
    Discarded sets are guaranteed to lie within the covering radius of the
    projection point, so the hitting set and the packing come out the same
    size.  d(z, S) and each pick's row d(pick, S) are one ``reduceat``
    each over one ``graphs._layout``: linear in the total set size.
    """
    if r < 0:
        raise ValueError(f"negative packing gap {r}")
    check_vertices(dm.n, [z], "base vertex")
    d, sets = dm.d, family.sets
    _, flat, first, _ = _layout([s.members for s in sets], dm.n)
    starts = np.sort(first)  # flat holds the nonempty sets in input order
    dists = np.minimum.reduceat(d[z, flat], starts).tolist()  # d(z, S) per set
    remaining = list(range(len(sets)))
    hitting: list[int] = []
    packing: list[int] = []
    while remaining:
        pick = max(remaining, key=lambda i: (dists[i], -i))
        hitting.append(project_toward(g, dm, z, sets[pick].members, r))
        packing.append(pick)
        near = d.take(sets[pick].members, axis=0).min(axis=0)  # d(v, pick) for every v
        apart = (np.minimum.reduceat(near[flat], starts) > 2 * r).tolist()  # the pick is at 0
        remaining = [j for j in remaining if apart[j]]
    hit_radius = math.floor(covering_radius(r, family.family_epsilon, delta))
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
    pairwise more than 2*pack_gap apart.  Both are read off row blocks built
    here from ``dm`` and the member lists, never from the pass that made the
    certificate, so the check stays independent of it.
    """
    check_vertices(dm.n, hitting, "hitting set")
    check_vertices(dm.n, chain.from_iterable(members), "members")
    for a in packing:
        if not (0 <= a < len(members)):
            raise ValueError(f"packing index {a} out of range for {len(members)} members")
    d = dm.d
    # d(v, hitting set); an empty hitting set is infinitely far
    to_hitting = d[list(hitting)].min(axis=0, initial=np.iinfo(d.dtype).max)
    hit_ok = bool((_min_rows(to_hitting, members) <= hit_radius).all())
    _, gaps = _set_block(dm, [members[a] for a in packing])
    pack_ok = not np.triu(gaps <= 2 * pack_gap, 1).any()
    return hit_ok, pack_ok


def is_interval_like(dm: DistanceMatrix, members: Sequence[int]) -> bool:
    """True when the set equals the interval of its own diametral pair.

    Such sets behave like geodesics in the covering bounds; callers report
    the tighter geodesic constants for them without asserting those.
    """
    ms = check_vertices(dm.n, members, "set")
    if not ms:
        raise ValueError("an empty set is not interval-like")
    sub = dm.d.take(ms, axis=0).take(ms, axis=1)
    flat = int(sub.argmax())
    u, v = ms[flat // len(ms)], ms[flat % len(ms)]
    return ms == interval(dm, u, v)


def geodesic_covering_radius(r: int, delta: Fraction) -> Fraction:
    """Tighter covering radius applicable when all members are geodesic-like:
    2*delta for intersecting families, max(r + 3*delta, 4*delta) otherwise."""
    check_rational(delta, "delta")
    if r == 0:
        return delta * 2
    return max(r + delta * 3, delta * 4)
