"""Dense two-phase simplex over exact integers, with the dual read off the
final reduced costs.

The covering/packing programs solved here are tiny.  The kappa LPs have one
row or column per family member and per witness vertex (a vertex with an
inclusion-maximal set of nearby members), so their size follows the family,
not the graph: on 150-250 vertex trees with 12-member families they are at
most 12 x 12.  Exact arithmetic with Bland's pivoting rule is therefore both
fast enough and free of tolerance disputes: reported optima are exact and
the primal/dual pair must agree to the digit.

The tableau is fraction-free (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968).  Each row, and
each phase's objective, is scaled by the lcm of its denominators; the
slack, surplus and artificial columns keep their unit entries, which only
measures those variables in units of 1/scale.  The real tableau is the
integer one over a single common denominator ``det`` (kept positive), and a
pivot on p = T[r][c] replaces every other row i by the exact quotient
(T[i][j]*p - T[i][c]*T[r][j]) // det, after which p is the new ``det``.
Bland's ratio test compares rhs/entry by cross-multiplication.  Positive
row and column scalings change neither the sign of a reduced cost nor the
order of the ratios, so the pivots, values and optimum are those of the
plain rational tableau; only ``Fraction`` objects are built at the end.

Each solve also returns the duals: the dual of row r is minus the final
reduced cost of the row's identity column (its slack for ``<=``, its
artificial for ``>=`` and ``=``), scaled back to the row as given.  They
satisfy ``objective == sum(rhs[r] * duals[r])``; see ``LPSolution``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

ZERO = Fraction(0)


@dataclass(frozen=True)
class LPInstance:
    """max/min of objective . x subject to rows of (coeffs, sense, rhs), x >= 0.

    The constraint matrix is given in sparse triplet form (row, col, value);
    repeated triplets accumulate.
    """

    direction: str
    num_vars: int
    num_rows: int
    objective: tuple[Fraction, ...]
    triplets: tuple[tuple[int, int, Fraction], ...]
    senses: tuple[str, ...]
    rhs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.direction not in ("max", "min"):
            raise ValueError(f"direction must be 'max' or 'min', got {self.direction!r}")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match num_vars")
        if len(self.senses) != self.num_rows or len(self.rhs) != self.num_rows:
            raise ValueError("senses/rhs length does not match num_rows")
        for s in self.senses:
            if s not in ("<=", ">=", "="):
                raise ValueError(f"unknown constraint sense {s!r}")

    def dense_rows(self) -> list[list[Fraction]]:
        rows = [[ZERO] * self.num_vars for _ in range(self.num_rows)]
        for r, c, val in self.triplets:
            rows[r][c] += val
        return rows


@dataclass(frozen=True)
class LPSolution:
    """Status, and for an optimal solve the primal values, the optimum and
    one dual per row of the instance (all empty otherwise).

    The duals certify the optimum: ``objective == sum(rhs[r] * duals[r])``,
    and for a max (min) problem each dual is >= 0 (<= 0) on a ``<=`` row,
    <= 0 (>= 0) on a ``>=`` row and free on a ``=`` row, with
    sum(duals[r] * a[r][j]) >= objective[j] (<= for min) in every column.
    A row dropped as redundant gets dual 0.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    values: tuple[Fraction, ...]
    objective: Fraction | None
    duals: tuple[Fraction, ...]


def _scaled(values) -> tuple[list[int], int]:
    """The values times the lcm of their denominators, as ints, and that lcm."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _pivot(rows, basis, row, col, det):
    """Fraction-free pivot on rows[row][col]; returns the new denominator."""
    prow = rows[row]
    p = prow[col]
    for i, cur in enumerate(rows):
        if i != row:
            f = cur[col]
            if f:
                rows[i] = [(a * p - f * b) // det for a, b in zip(cur, prow)]
            else:
                rows[i] = [a * p // det for a in cur]
    if p < 0:
        rows[:] = [[-a for a in cur] for cur in rows]
        p = -p
    basis[row] = col
    return p


def _priced(rows, basis, det, costs):
    """Cost row det * (costs - c_B . tableau / det), over every column and the
    rhs: positive entries are improving columns, and the last entry is
    -det * objective (both in the units of the integer costs)."""
    cost = [det * c for c in costs] + [0]
    for r, bv in enumerate(basis):
        cb = costs[bv]
        if cb:
            cost = [a - cb * b for a, b in zip(cost, rows[r])]
    return cost


def _run(rows, basis, det, allowed):
    """Maximize with Bland's rule; rows[-1] is the priced-out cost row.

    Returns (status, det)."""
    while True:
        cost = rows[-1]
        enter = next((j for j in allowed if cost[j] > 0), -1)
        if enter < 0:
            return "optimal", det
        leave = -1
        for r in range(len(rows) - 1):
            a = rows[r][enter]
            if a > 0:
                if leave < 0:
                    leave = r
                    continue
                # ratio rhs/a of row r against that of row leave, cross-multiplied
                here = rows[r][-1] * rows[leave][enter]
                best = rows[leave][-1] * a
                if here < best or (here == best and basis[r] < basis[leave]):
                    leave = r
        if leave < 0:
            return "unbounded", det
        det = _pivot(rows, basis, leave, enter, det)


def solve_lp(inst: LPInstance) -> LPSolution:
    """Solve exactly by two-phase integer pivoting; the reported optimum and
    duals are the true ones, with no tolerance involved."""
    n = inst.num_vars
    m = inst.num_rows
    dense = inst.dense_rows()
    rhs = list(inst.rhs)
    senses = list(inst.senses)
    flip = [1] * m
    for r in range(m):
        if rhs[r] < 0:
            dense[r] = [-a for a in dense[r]]
            rhs[r] = -rhs[r]
            senses[r] = {"<=": ">=", ">=": "<=", "=": "="}[senses[r]]
            flip[r] = -1

    # column layout: structural | slack/surplus | artificial | rhs
    slack_of = {}
    art_of = {}
    col = n
    for r, s in enumerate(senses):
        if s in ("<=", ">="):
            slack_of[r] = col
            col += 1
    for r, s in enumerate(senses):
        if s == ">=" or s == "=":
            art_of[r] = col
            col += 1
    width = col
    # the identity column of each row, basic at the start
    unit = [slack_of[r] if senses[r] == "<=" else art_of[r] for r in range(m)]

    rows = []
    row_scale = []
    for r in range(m):
        ints, scale = _scaled(dense[r] + [rhs[r]])
        row = ints[:n] + [0] * (width - n) + ints[n:]
        if senses[r] == ">=":
            row[slack_of[r]] = -1
        row[unit[r]] = 1
        rows.append(row)
        row_scale.append(scale)
    basis = unit[:]
    det = 1

    if art_of:
        # max -sum of artificials; artificial r is measured in units of 1/scale_r
        art_scale = lcm(*(row_scale[r] for r in art_of))
        phase1 = [0] * width
        for r, c in art_of.items():
            phase1[c] = -(art_scale // row_scale[r])
        rows.append(_priced(rows, basis, det, phase1))
        status, det = _run(rows, basis, det, range(width))
        if status != "optimal" or rows[-1][-1] != 0:
            return LPSolution("infeasible", (), None, ())
        artificial_cols = set(art_of.values())
        # drive leftover artificials out of the basis; drop redundant rows
        r = 0
        while r < len(rows) - 1:
            if basis[r] in artificial_cols:
                pivot_col = next(
                    (j for j in range(width) if j not in artificial_cols and rows[r][j] != 0),
                    None,
                )
                if pivot_col is None:
                    del rows[r]
                    del basis[r]
                    continue
                det = _pivot(rows, basis, r, pivot_col, det)
            r += 1
        rows.pop()
        allowed = [j for j in range(width) if j not in artificial_cols]
    else:
        allowed = list(range(width))

    sign = 1 if inst.direction == "max" else -1
    structural, obj_scale = _scaled(inst.objective)
    rows.append(_priced(rows, basis, det, [sign * c for c in structural] + [0] * (width - n)))
    status, det = _run(rows, basis, det, allowed)
    if status != "optimal":
        return LPSolution(status, (), None, ())
    cost = rows.pop()
    values = [ZERO] * n
    for r, bv in enumerate(basis):
        if bv < n:
            values[bv] = Fraction(rows[r][-1], det)
    denom = det * obj_scale
    duals = tuple(
        Fraction(-sign * flip[r] * row_scale[r] * cost[unit[r]], denom) for r in range(m)
    )
    return LPSolution("optimal", tuple(values), Fraction(-sign * cost[-1], denom), duals)
