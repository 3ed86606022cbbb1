"""Beam enumeration and the single-ball total beam core, plus the structural
inequalities tying diameter, radius, center, and the beam-core midpoint
together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    Ball,
    DistanceMatrix,
    Graph,
    _check_vertex,
    descend_geodesic,
    intercepted_pairs,
)
from .halfint import HalfInt
from .hyperbolicity import eccentricity_profile, mutually_distant_pair


@dataclass(frozen=True)
class BeamCoreResult:
    pair: tuple[int, int]
    midpoint: int
    radius: int
    all_beams_intercepted: bool


@dataclass(frozen=True)
class StructuralReport:
    diameter: int
    radius: int
    center: tuple[int, ...]
    midpoint: int
    delta: HalfInt
    diam_rad_holds: bool
    max_center_distance: int
    close_to_center_holds: bool


def beam_pairs(dm: DistanceMatrix) -> np.ndarray:
    """All ordered pairs (x, y) with y a furthest vertex from x, as the rows
    of a (k, 2) array in row-major order."""
    d = dm.d
    return np.argwhere(d == d.max(axis=1)[:, None])


def _midpoint(g: Graph, dm: DistanceMatrix, u: int, v: int) -> int:
    # middle vertex of the deterministic (u,v)-geodesic, nearer u on ties
    path = descend_geodesic(g, dm, u, v)
    return path[(len(path) - 1) // 2]


def total_beam_core(g: Graph, dm: DistanceMatrix, delta: HalfInt) -> BeamCoreResult:
    """Ball of radius floor(2*delta) around the middle of a geodesic between
    mutually distant vertices, verified against every beam pair.

    The verification is one ``intercepted_pairs`` call: the ball is deleted
    once and a single multi-source BFS runs from the beam sources outside
    it, which is equivalent to the per-pair interception test.
    """
    u, v = mutually_distant_pair(dm, delta)
    mid = _midpoint(g, dm, u, v)
    radius = max((delta * 2).floor(), 0)
    ok = bool(intercepted_pairs(g, dm, Ball(mid, radius), beam_pairs(dm)).all())
    return BeamCoreResult(pair=(u, v), midpoint=mid, radius=radius, all_beams_intercepted=ok)


def structural_checks(dm: DistanceMatrix, delta: HalfInt, midpoint: int) -> StructuralReport:
    """Evaluate diam >= 2*rad - 2*delta - 1 and C(G) inside B(m, 4*delta + 1)
    with the supplied thin-triangle constant, m being the beam-core midpoint
    (``total_beam_core(g, dm, delta).midpoint``)."""
    _check_vertex(dm.n, midpoint, "midpoint")
    prof = eccentricity_profile(dm)
    diam_rad_holds = prof.diameter >= 2 * prof.radius - delta * 2 - 1
    max_center_distance = max(int(dm.d[midpoint, c]) for c in prof.center)
    close_holds = max_center_distance <= delta * 4 + 1
    return StructuralReport(
        diameter=prof.diameter,
        radius=prof.radius,
        center=prof.center,
        midpoint=midpoint,
        delta=delta,
        diam_rad_holds=bool(diam_rad_holds),
        max_center_distance=max_center_distance,
        close_to_center_holds=bool(close_holds),
    )
