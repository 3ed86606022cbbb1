"""Covering and packing for families whose members are unions of at most
kappa quasiconvex sets: the Gamma incidence structure, the fractional
packing/hitting linear programs, their roundings, and the end-to-end
procedure, whose hitting set is at most 2*kappa^2 times its packing.

A member is a list of its parts, each a list of vertex ids in any order and
with repeats; kappa is the most parts of a member.  ``kappa_hit_pack``
measures every part's quasiconvexity defect itself (``set_epsilons``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import floor, lcm

import numpy as np

from .graphs import DistanceMatrix, Graph, _min_rows, check_rational, check_vertices
from .quasiconvex import covering_radius, greedy_hit_pack, set_epsilons
from .simplex import LPInstance, solve_lp


@dataclass(frozen=True)
class KappaHitPackResult:
    hitting_set: tuple[int, ...]
    packing: tuple[int, ...]
    kappa: int
    epsilon: int
    r_star: int
    r_prime: int
    packing_optimum: Fraction
    hitting_optimum: Fraction


def _gamma_index(member_dist: np.ndarray, r: int) -> tuple[frozenset[int], ...]:
    """The Gamma incidence at radius r of the members whose distances are
    ``member_dist``, row i d(., member i's union) (``graphs._min_rows``):
    entry i holds every member sharing with member i a vertex within r of
    both (a symmetric relation containing i itself)."""
    if r < 0:
        raise ValueError(f"negative gamma radius {r}")
    near = member_dist <= r  # m x n
    share = near @ near.T  # boolean product: some vertex within r of both
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in share)


def _witness_vertices(near: np.ndarray) -> list[int]:
    """Vertices whose member set near[:, v] is nonempty and inclusion-maximal.

    Among vertices with equal sets only the smallest id is kept, so each
    maximal set appears once.  Every nonempty set is contained in some
    witness's set, which is what makes the LPs below exact over witnesses.

    Each vertex's set is packed into a byte key (``np.packbits`` over the
    members), and the keys are deduplicated by one 1-D ``np.unique`` over a
    void view, whose first index of each key is its smallest id.  The
    subset test counts |S_a & S_b| as one float64 product, which BLAS runs:
    every term is 0 or 1 and every partial sum an integer at most m, the
    member count, far below 2**53, so each count is exact in any summation
    order and the test compares integers.
    """
    keys = np.ascontiguousarray(np.packbits(near.T, axis=1))
    _, first = np.unique(keys.view(f"V{keys.shape[1]}").ravel(), return_index=True)
    first = first[keys[first].any(axis=1)]
    sets = near[:, first].T.astype(np.float64)
    inter = sets @ sets.T  # |S_a & S_b|
    # S_a lies inside S_b iff |S_a & S_b| = |S_a|; a row matches its own
    # column, and the sets are distinct, so another match is a strict superset
    dominated = (inter == np.diag(inter)[:, None]).sum(axis=1) > 1
    return sorted(first[~dominated].tolist())


def _weighted_rows(mask: np.ndarray, weights: Sequence[int]) -> list[int]:
    """Row sums of a boolean matrix with column j weighted by the integer
    weights[j], as one product over Python ints, exact at any size."""
    return (mask.astype(object) @ np.array(weights, dtype=object)).tolist()


def _unit_lp(a: np.ndarray) -> LPInstance:
    """max 1.x subject to a x <= 1, x >= 0, for a 0/1 matrix a."""
    rows, cols = np.divmod(np.flatnonzero(a), a.shape[1])
    triplets = tuple((i, j, 1) for i, j in zip(rows.tolist(), cols.tolist()))
    return LPInstance(a.shape[1], a.shape[0], triplets)


def _scaled(values) -> tuple[list[int], int]:
    """Ints or ``Fraction``s times the lcm of their denominators, as ints,
    and that lcm: the values over one common denominator."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _witness_incidence(member_dist: np.ndarray, r: int) -> tuple[list[int], np.ndarray]:
    """The witness vertices at radius r, in increasing id, and the members x
    witnesses incidence: entry (i, k) is whether member i lies within r of
    the k-th witness.  ``member_dist`` is as in ``_gamma_index``.

    The packing LP over the witnesses, max sum x_i subject to, per witness
    v, sum of x_i over the members within r of v <= 1, has the optimum of
    the LP with one such row per vertex: a vertex near no member gives the
    row 0 <= 1, and one whose member set lies inside a witness's set gives
    a row implied by the witness's row, because x >= 0.
    """
    near = member_dist <= r
    witnesses = _witness_vertices(near)
    return witnesses, near[:, witnesses]


def round_packing(
    x: Sequence[Fraction], gamma: Sequence[frozenset[int]], kappa: int
) -> list[int]:
    """Integral packing from a fractional solution of the wider-radius LP.

    Repeatedly selects a member whose remaining Gamma-neighborhood carries
    fractional mass at most 2*kappa (one always exists for a feasible input)
    and discards that neighborhood.  The result is a packing at the radius
    of ``gamma`` (``_gamma_index``) of size at least sum(x) / (2*kappa).
    """
    # sum(x) over a neighborhood <= 2*kappa, in integer numerators over scale
    xs, scale = _scaled(x)
    cap = 2 * kappa * scale
    remaining = set(range(len(x)))
    packing: list[int] = []
    while remaining:
        pick = -1
        for i in sorted(remaining):
            if sum(xs[j] for j in gamma[i] if j in remaining) <= cap:
                pick = i
                break
        if pick < 0:
            raise RuntimeError(
                "no member with Gamma mass <= 2*kappa: input was not a feasible "
                "fractional packing (or the family's epsilon/delta were mismeasured)"
            )
        packing.append(pick)
        remaining -= gamma[pick]
    return packing


def _round_support(
    support: Sequence[int],
    weights: Sequence[int],
    members: Sequence[Sequence[Sequence[int]]],
    dm: DistanceMatrix,
    g: Graph,
    r: int,
    z: int,
) -> list[int]:
    """Integral hitting set from a fractional cover at radius r with weight
    weights[k] on vertex support[k] and 0 elsewhere.

    Each member is represented by the part whose r-neighborhood carries the
    most fractional mass (first part on ties); the greedy hitting/packing
    pass over the representatives yields the vertices.  The weights are
    integers, the cover's entries times one positive denominator, which
    scales every part mass alike and so changes no comparison; the masses
    of all parts are one integer product of the parts x support incidence
    with the weights."""
    # row k: which support vertices lie within r of the k-th part (d is symmetric)
    near = _min_rows(dm.d.take(support, axis=0).T, list(chain.from_iterable(members))) <= r
    masses = iter(_weighted_rows(near, weights))
    reps = []
    for parts in members:
        mass = [next(masses) for _ in parts]
        reps.append(parts[mass.index(max(mass))])  # first part on ties
    return list(greedy_hit_pack(g, dm, reps, r, z=z).hitting_set)


def kappa_hit_pack(
    g: Graph,
    dm: DistanceMatrix,
    members: Sequence[Sequence[Sequence[int]]],
    r: int,
    delta: Fraction,
    *,
    z: int = 0,
) -> KappaHitPackResult:
    """End-to-end covering/packing: an r-packing and an r_prime-hitting set.

    With eps the family's quasiconvexity defect, the largest over every
    part, measured in one ``set_epsilons`` call and returned, r_star = r +
    eps + 3*delta and r_prime = r_star + eps + 3*delta (both floored),
    solves the fractional packing LP at r_star and rounds it to an r-packing
    P, takes the fractional hitting vector at r_star from the packing LP's
    duals and rounds it to an r_prime-hitting set T.  The claims that P is
    pairwise 2r-apart, that T reaches every member within r_prime, and that
    |T| <= 2*kappa^2*|P| are checked by the caller
    (``check.check_hit_pack``), not here.  Requires r >= eps + 2*delta,
    under which the two classical forms of the intermediate radius coincide.

    Both LPs are taken over the witness vertices only, from one
    member-distance matrix that also gives the Gamma incidence at r.
    ``_witness_incidence`` states why the packing optimum equals that of
    the LP over every vertex; by LP duality, so does the hitting optimum.  Over
    the witnesses the two LPs are exact duals: max 1.x subject to A^T x <= 1
    and min 1.y subject to A y >= 1, with A the members x witnesses
    incidence.  So only the packing LP is solved, and its duals y are
    checked exactly to be a feasible hitting vector of the same value as
    the packing optimum: over their common denominator L, as integer
    numerators h = L*y, h >= 0, A h >= L row by row and sum(h) = L times
    the packing optimum.  Weak duality then proves both optima, and a
    failed check raises ``RuntimeError``.  The hitting vector is rounded as
    it stands, nonzero on the witnesses only.
    """
    if not members:
        raise ValueError("empty family")
    if not all(members):
        raise ValueError("a member needs at least one part")
    check_vertices(dm.n, [z], "base vertex")
    kappa = max(map(len, members))
    epsilon = max(set_epsilons(dm, list(chain.from_iterable(members))))
    check_rational(delta, "delta")
    if r < epsilon + delta * 2:
        raise ValueError(
            f"r={r} violates the hypothesis r >= epsilon + 2*delta "
            f"= {epsilon + delta * 2}"
        )
    r_star = floor(covering_radius(r, epsilon, delta))
    r_prime = floor(r_star + epsilon + delta * 3)

    member_dist = _min_rows(dm.d, [list(chain.from_iterable(parts)) for parts in members])
    gamma_r = _gamma_index(member_dist, r)
    witnesses, incidence = _witness_incidence(member_dist, r_star)

    pack_sol = solve_lp(_unit_lp(incidence.T))
    if pack_sol.status != "optimal":
        raise RuntimeError(f"packing LP solve failed: {pack_sol.status}")
    hit, scale = _scaled(pack_sol.duals)  # the duals are hit / scale
    total = sum(hit)
    cover = _weighted_rows(incidence, hit)
    if min(hit) < 0 or min(cover) < scale or total != scale * pack_sol.objective:
        raise RuntimeError(
            "the packing LP's duals are not a hitting vector of equal value: "
            f"duals {pack_sol.duals}, packing optimum {pack_sol.objective}"
        )

    packing = round_packing(pack_sol.values, gamma_r, kappa)
    hitting = _round_support(witnesses, hit, members, dm, g, r_star, z)
    return KappaHitPackResult(
        hitting_set=tuple(hitting),
        packing=tuple(packing),
        kappa=kappa,
        epsilon=epsilon,
        r_star=r_star,
        r_prime=r_prime,
        packing_optimum=pack_sol.objective,
        hitting_optimum=Fraction(total, scale),
    )
