"""Covering and packing for families whose members are unions of at most
kappa quasiconvex sets: the Gamma incidence structure, the fractional
packing/hitting linear programs, their roundings, and the end-to-end
procedure whose certificates bound the hitting set by 2*kappa^2 times the
packing.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import DistanceMatrix, Graph, _min_rows, check_vertices
from .halfint import HalfInt
from .quasiconvex import QSet, QSetFamily, check_hit_pack, covering_radius, greedy_hit_pack
from .simplex import LPInstance, solve_lp

ONE = Fraction(1)


@dataclass(frozen=True)
class KappaQSet:
    """A family member: the union of at most kappa measured quasiconvex parts."""

    parts: tuple[QSet, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a member needs at least one part")

    @property
    def union(self) -> tuple[int, ...]:
        return tuple(sorted({v for p in self.parts for v in p.members}))

    @property
    def epsilon(self) -> int:
        return max(p.epsilon for p in self.parts)


@dataclass(frozen=True)
class KappaHitPackResult:
    hitting_set: tuple[int, ...]
    packing: tuple[int, ...]
    kappa: int
    r: int
    r_star: int
    r_prime: int
    packing_optimum: Fraction
    hitting_optimum: Fraction
    hitting_ok: bool
    packing_ok: bool
    bound_ok: bool


def _member_distances(dm: DistanceMatrix, family: Sequence[KappaQSet]) -> np.ndarray:
    """m x n matrix of d(v, member union), as one row block."""
    return _min_rows(dm.d, [kq.union for kq in family])


def gamma_sets(
    dm: DistanceMatrix, family: Sequence[KappaQSet], r: int
) -> tuple[frozenset[int], ...]:
    """Incidence between members at radius r: entry i holds every member
    sharing with member i a vertex within r of both (a symmetric relation
    containing i itself)."""
    return _gamma_index(_member_distances(dm, family), r)


def _gamma_index(member_dist: np.ndarray, r: int) -> tuple[frozenset[int], ...]:
    """The Gamma incidence of ``_member_distances`` thresholded at r."""
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
    """
    cols = near.T
    _, first = np.unique(cols, axis=0, return_index=True)
    first = first[cols[first].any(axis=1)]
    sets = cols[first].astype(np.int64)
    inter = sets @ sets.T  # |S_a & S_b|
    size = np.diag(inter)
    # distinct sets, so S_a inside a larger S_b means strictly contained
    dominated = ((inter == size[:, None]) & (size[None, :] > size[:, None])).any(axis=1)
    return sorted(first[~dominated].tolist())


def _unit_lp(a: np.ndarray) -> LPInstance:
    """max 1.x subject to a x <= 1, x >= 0."""
    num_rows, num_vars = a.shape
    triplets = tuple((int(i), int(j), ONE) for i, j in zip(*np.nonzero(a)))
    return LPInstance(
        direction="max",
        num_vars=num_vars,
        num_rows=num_rows,
        objective=(ONE,) * num_vars,
        triplets=triplets,
        senses=("<=",) * num_rows,
        rhs=(ONE,) * num_rows,
    )


def _witness_incidence(member_dist: np.ndarray, r: int) -> tuple[list[int], np.ndarray]:
    """The witness vertices at radius r, in increasing id, and the members x
    witnesses incidence: entry (i, k) is whether member i lies within r of
    the k-th witness.  ``member_dist`` is ``_member_distances``."""
    near = member_dist <= r
    witnesses = _witness_vertices(near)
    return witnesses, near[:, witnesses]


def build_packing_lp(family: Sequence[KappaQSet], dm: DistanceMatrix, r: int) -> LPInstance:
    """max sum x_i subject to, per witness vertex v, sum of x_i over the
    members within r of v <= 1.

    Row k is the k-th witness vertex in increasing id.  The LP over every
    vertex has the same optimum: a vertex near no member gives the row
    0 <= 1, and one whose member set lies inside a witness's set gives a
    row implied by the witness's row, because x >= 0.
    """
    if r < 0:
        raise ValueError(f"negative packing radius {r}")
    return _unit_lp(_witness_incidence(_member_distances(dm, family), r)[1].T)


def round_packing(
    x: Sequence[Fraction], gamma: Sequence[frozenset[int]], family: Sequence[KappaQSet]
) -> list[int]:
    """Integral packing from a fractional solution of the wider-radius LP.

    Repeatedly selects a member whose remaining Gamma-neighborhood carries
    fractional mass at most 2*kappa (one always exists for a feasible input)
    and discards that neighborhood.  The result is a packing at the radius
    of ``gamma`` (``gamma_sets``) of size at least sum(x) / (2*kappa).
    """
    kappa = max(len(kq.parts) for kq in family)
    remaining = set(range(len(family)))
    packing: list[int] = []
    while remaining:
        pick = -1
        for i in sorted(remaining):
            mass = sum((x[j] for j in gamma[i] if j in remaining), Fraction(0))
            if mass <= 2 * kappa:
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


def round_hitting(
    y: Sequence[Fraction],
    family: Sequence[KappaQSet],
    dm: DistanceMatrix,
    g: Graph,
    r: int,
    delta: HalfInt,
    *,
    z: int = 0,
) -> list[int]:
    """Integral hitting set from a fractional cover at radius r.

    Each member is represented by the part whose r-neighborhood carries the
    most fractional mass (first part on ties); the greedy hitting/packing
    pass over the representatives yields the vertices.  Masses are summed
    over the support of y only.
    """
    support = [v for v, yv in enumerate(y) if yv]
    # row k: which support vertices lie within r of the k-th part
    parts = [part for kq in family for part in kq.parts]
    near = (_min_rows(dm.d[:, support], [p.members for p in parts]) <= r).tolist()
    masses = (sum((y[v] for v, hit in zip(support, row) if hit), Fraction(0)) for row in near)
    reps: list[QSet] = []
    for kq in family:
        mass = [next(masses) for _ in kq.parts]
        reps.append(kq.parts[mass.index(max(mass))])  # first part on ties
    rep_family = QSetFamily(sets=tuple(reps))
    hp = greedy_hit_pack(g, dm, rep_family, r, delta, z=z)
    return list(hp.hitting_set)


def kappa_hit_pack(
    g: Graph,
    dm: DistanceMatrix,
    family: Sequence[KappaQSet],
    r: int,
    epsilon: int,
    delta: HalfInt,
    *,
    z: int = 0,
) -> KappaHitPackResult:
    """End-to-end covering/packing with verified certificates.

    With r_star = r + eps + 3*delta and r_prime = r_star + eps + 3*delta
    (both floored), solves the fractional packing LP at r_star and rounds it
    to an r-packing P, takes the fractional hitting vector at r_star from
    the packing LP's duals and rounds it to an r_prime-hitting set T, then
    checks exhaustively that P is pairwise 2r-apart, that T reaches every
    member within r_prime, and that |T| <= 2*kappa^2*|P|.  Requires
    r >= eps + 2*delta, under which the two classical forms of the
    intermediate radius coincide.

    Both LPs are taken over the witness vertices only, from one
    member-distance matrix that also gives the Gamma incidence at r.
    ``build_packing_lp`` states why the packing optimum equals that of the
    LP over every vertex; by LP duality, so does the hitting optimum.  Over
    the witnesses the two LPs are exact duals: max 1.x subject to A^T x <= 1
    and min 1.y subject to A y >= 1, with A the members x witnesses
    incidence.  So only the packing LP is solved, and its duals y are checked
    exactly to be a feasible hitting vector (y >= 0, A y >= 1 row by row) of
    the same value as the packing optimum; weak duality then proves both
    optima, and a failed check raises ``RuntimeError``.  The hitting vector
    is expanded back to every vertex, zero off the witnesses, before
    rounding.
    """
    if not family:
        raise ValueError("empty family")
    check_vertices(dm.n, [z], "base vertex")
    kappa = max(len(kq.parts) for kq in family)
    measured = max(kq.epsilon for kq in family)
    if measured > epsilon:
        raise ValueError(
            f"family has measured quasiconvexity defect {measured}, larger than "
            f"the stated epsilon {epsilon}"
        )
    if HalfInt(r) < epsilon + delta * 2:
        raise ValueError(
            f"r={r} violates the hypothesis r >= epsilon + 2*delta "
            f"= {epsilon + delta * 2}"
        )
    r_star = covering_radius(r, epsilon, delta).floor()
    r_prime = (r_star + epsilon + delta * 3).floor()

    member_dist = _member_distances(dm, family)
    gamma_r = _gamma_index(member_dist, r)
    witnesses, incidence = _witness_incidence(member_dist, r_star)

    pack_sol = solve_lp(_unit_lp(incidence.T))
    if pack_sol.status != "optimal":
        raise RuntimeError(f"packing LP solve failed: {pack_sol.status}")
    hit = pack_sol.duals
    hitting_optimum = sum(hit, Fraction(0))
    cover = [sum((v for v, on in zip(hit, row) if on), Fraction(0)) for row in incidence.tolist()]
    if min(hit) < 0 or min(cover) < 1 or hitting_optimum != pack_sol.objective:
        raise RuntimeError(
            "the packing LP's duals are not a hitting vector of equal value: "
            f"duals {hit}, packing optimum {pack_sol.objective}"
        )

    y = [Fraction(0)] * dm.n
    for w, value in zip(witnesses, hit):
        y[w] = value
    packing = round_packing(pack_sol.values, gamma_r, family)
    hitting = round_hitting(y, family, dm, g, r_star, delta, z=z)

    hitting_ok, packing_ok = check_hit_pack(
        dm, [kq.union for kq in family], hitting, r_prime, packing, r
    )
    bound_ok = len(hitting) <= 2 * kappa * kappa * len(packing)

    return KappaHitPackResult(
        hitting_set=tuple(hitting),
        packing=tuple(packing),
        kappa=kappa,
        r=r,
        r_star=r_star,
        r_prime=r_prime,
        packing_optimum=pack_sol.objective,
        hitting_optimum=hitting_optimum,
        hitting_ok=hitting_ok,
        packing_ok=packing_ok,
        bound_ok=bound_ok,
    )
