"""Dense one-phase simplex over exact integers, with the dual read off the
final reduced costs.

Every LP the package poses is a packing LP, max 1.x subject to A x <= 1,
x >= 0, so ``solve_lp`` solves exactly the LPs whose origin is feasible
(every row ``<=`` with rhs >= 0): the slack basis starts the simplex, no
phase 1 is needed, and any other LP is refused.  The kappa LPs have one row
per witness vertex (a vertex with an inclusion-maximal set of nearby
members) and one column per member, so on 150-250 vertex trees with
12-member families they are at most 12 x 12.  Exact arithmetic with
Bland's pivoting rule is therefore both fast enough and free of tolerance
disputes: reported optima are exact and the primal/dual pair must agree to
the digit.

The tableau is fraction-free (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968).  Each row, and
the objective, is scaled by the lcm of its denominators; the slack columns
keep their unit entries, which only measures the slacks in units of
1/scale.  The real tableau is the integer one over a single common
denominator ``det``, and a pivot on p = T[r][c] > 0 replaces every other
row i by the exact quotient (T[i][j]*p - T[i][c]*T[r][j]) // det, after
which p is the new ``det``.  Bland's ratio test compares rhs/entry by
cross-multiplication.  Positive row and column scalings change neither the
sign of a reduced cost nor the order of the ratios, so the pivots, values
and optimum are those of the plain rational tableau; only ``Fraction``
objects are built at the end.

Each solve also returns the duals: the dual of row r is minus the final
reduced cost of the row's slack column, scaled back to the row as given.
They satisfy ``objective == sum(rhs[r] * duals[r])``; see ``LPSolution``.
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
    repeated triplets accumulate.  ``solve_lp`` takes only ``<=`` rows with
    rhs >= 0.
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
        for r, c, val in self.triplets:
            if not (0 <= r < self.num_rows and 0 <= c < self.num_vars):
                raise ValueError(
                    f"triplet ({r}, {c}, {val}) out of range for "
                    f"{self.num_rows} rows and {self.num_vars} variables"
                )

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
    and for a max (min) problem every dual is >= 0 (<= 0), with
    sum(duals[r] * a[r][j]) >= objective[j] (<= for min) in every column.
    """

    status: str  # "optimal" | "unbounded"; the origin is feasible
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
    basis[row] = col
    return p


def _run(rows, basis):
    """Maximize with Bland's rule from ``det`` 1; rows[-1] is the priced-out
    cost row, whose last entry (the objective) never enters.

    Returns (status, det)."""
    det = 1
    while True:
        cost = rows[-1]
        enter = next((j for j in range(len(cost) - 1) if cost[j] > 0), -1)
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
    """Solve exactly by integer pivoting from the slack basis; the reported
    optimum and duals are the true ones, with no tolerance involved.

    The origin must be feasible: a row that is not ``<=``, or whose rhs is
    negative, raises ValueError.
    """
    n = inst.num_vars
    m = inst.num_rows
    for r, (sense, b) in enumerate(zip(inst.senses, inst.rhs)):
        if sense != "<=" or b < 0:
            raise ValueError(
                f"row {r} is '{sense} {b}': solve_lp needs a feasible origin, "
                "every row '<=' with rhs >= 0"
            )

    # column layout: structural | slack (row r's is column n + r) | rhs
    rows, row_scale = [], []
    for r, coeffs in enumerate(inst.dense_rows()):
        ints, scale = _scaled(coeffs + [inst.rhs[r]])
        rows.append(ints[:n] + [0] * r + [1] + [0] * (m - 1 - r) + ints[n:])
        row_scale.append(scale)
    basis = list(range(n, n + m))

    sign = 1 if inst.direction == "max" else -1
    structural, obj_scale = _scaled(inst.objective)
    # the basic slacks cost nothing, so the cost row starts priced out
    rows.append([sign * c for c in structural] + [0] * (m + 1))
    status, det = _run(rows, basis)
    if status != "optimal":
        return LPSolution(status, (), None, ())
    cost = rows.pop()
    values = [ZERO] * n
    for r, bv in enumerate(basis):
        if bv < n:
            values[bv] = Fraction(rows[r][-1], det)
    denom = det * obj_scale
    duals = tuple(Fraction(-sign * row_scale[r] * cost[n + r], denom) for r in range(m))
    return LPSolution("optimal", tuple(values), Fraction(-sign * cost[-1], denom), duals)
