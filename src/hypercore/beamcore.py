"""Beam enumeration and the single-ball total beam core, plus the structural
inequalities tying diameter, radius, center, and the beam-core midpoint
together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .check import balls_intercept
from .graphs import DistanceMatrix, Graph, _check_vertex, _descent, check_rational
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
    delta: Fraction
    diam_rad_holds: bool
    max_center_distance: int
    close_to_center_holds: bool


def beam_pairs(dm: DistanceMatrix) -> np.ndarray:
    """All ordered pairs (x, y) with y a furthest vertex from x, as the rows
    of a (k, 2) array in row-major order."""
    d = dm.d
    return np.stack(np.divmod(np.flatnonzero(d == d.max(axis=1)[:, None]), len(d)), axis=1)


def _midpoint(g: Graph, dm: DistanceMatrix, u: int, v: int) -> int:
    # middle vertex of the deterministic (u,v)-geodesic (``graphs._descent``),
    # nearer u on ties; the walk stops there
    return next(islice(_descent(g, dm, u, v), int(dm.d[u, v]) // 2, None))


def total_beam_core(g: Graph, dm: DistanceMatrix, delta: Fraction) -> BeamCoreResult:
    """Ball of radius floor(2*delta) around the middle of a geodesic between
    mutually distant vertices, verified against every beam pair by
    ``check.balls_intercept``: one ball, so one ball-deleted BFS."""
    u, v = mutually_distant_pair(dm, delta)
    mid = _midpoint(g, dm, u, v)
    radius = max(math.floor(delta * 2), 0)
    ok = balls_intercept(g, dm, [mid], radius, beam_pairs(dm))
    return BeamCoreResult(pair=(u, v), midpoint=mid, radius=radius, all_beams_intercepted=ok)


def structural_checks(dm: DistanceMatrix, delta: Fraction, midpoint: int) -> StructuralReport:
    """Evaluate diam >= 2*rad - 2*delta - 1 and C(G) inside B(m, 4*delta + 1)
    with the supplied thin-triangle constant, m being the beam-core midpoint
    (``total_beam_core(g, dm, delta).midpoint``)."""
    check_rational(delta, "delta")
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
