"""Beam enumeration and the single-ball total beam core.  The structural
inequalities tying diameter, radius, center and the beam-core midpoint
together are judged by the ``beamcore`` command, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .graphs import DistanceMatrix, Graph, _descent
from .hyperbolicity import mutually_distant_pair


@dataclass(frozen=True)
class BeamCoreResult:
    pair: tuple[int, int]
    midpoint: int
    radius: int


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
    mutually distant vertices.  That it intercepts every beam pair
    (``beam_pairs``) is checked by the caller (``check.balls_intercept``),
    not here."""
    u, v = mutually_distant_pair(dm, delta)
    mid = _midpoint(g, dm, u, v)
    return BeamCoreResult(pair=(u, v), midpoint=mid, radius=max(math.floor(delta * 2), 0))

