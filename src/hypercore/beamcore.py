"""Beam enumeration and the single-ball total beam core, centered on the
middle of a geodesic walked by ``graphs._descend``, the package's one
geodesic walk, and returned as a plain ((u, v), midpoint, radius).  The
structural inequalities tying diameter, radius, center and the beam-core
midpoint together are judged by the ``beamcore`` command, not here.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .graphs import DistanceMatrix, Graph, _descend
from .hyperbolicity import mutually_distant_pair


def beam_pairs(dm: DistanceMatrix) -> np.ndarray:
    """All ordered pairs (x, y) with y a furthest vertex from x, as the rows
    of a (k, 2) array in row-major order."""
    d = dm.d
    return np.stack(np.divmod(np.flatnonzero(d == d.max(axis=1)[:, None]), len(d)), axis=1)


def total_beam_core(
    g: Graph, dm: DistanceMatrix, delta: Fraction
) -> tuple[tuple[int, int], int, int]:
    """((u, v), midpoint, radius): the ball of radius floor(2*delta),
    clamped at 0, around the middle of a geodesic between mutually distant
    vertices u, v (``mutually_distant_pair``), d(u, v) // 2 hops from u
    along the smallest-id descent, nearer u on ties.  That it intercepts
    every beam pair (``beam_pairs``) is checked by the caller
    (``check.balls_intercept``), not here."""
    u, v = mutually_distant_pair(dm, delta)
    mid = _descend(g, dm, u, v, int(dm.d[u, v]) // 2)
    return (u, v), mid, max(math.floor(delta * 2), 0)

