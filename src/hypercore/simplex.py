"""Dense one-phase simplex over exact integers, with the dual read off the
final reduced costs.

Every LP the package poses is a packing LP, max 1.x subject to A x <= 1,
x >= 0, with A an int matrix, and ``LPInstance`` describes exactly that
form.  Its origin is feasible, so the slack basis starts the simplex and
no phase 1 is needed.  The kappa LPs have one row per witness vertex (a
vertex with an inclusion-maximal set of nearby members) and one column per
member, so on 150-250 vertex trees with 12-member families they are at
most 12 x 12.  Exact arithmetic with Bland's pivoting rule is therefore
both fast enough and free of tolerance disputes: reported optima are exact
and the primal/dual pair must agree to the digit.

The tableau is fraction-free (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968).  Every entry
of A, the objective and the rhs is an int, so the starting tableau is the
plain one.  The real tableau is the integer one over a single common
denominator ``det``, and a pivot on p = T[r][c] > 0 replaces every other
row i by the exact quotient (T[i][j]*p - T[i][c]*T[r][j]) // det, after
which p is the new ``det``.  Bland's ratio test compares rhs/entry by
cross-multiplication, so the pivots, values and optimum are those of the
plain rational tableau.  The values, the optimum and the duals are
returned as ``Fraction``s, the only ones a solve builds.

A solve returns the plain triple (values, objective, duals) and raises
``ValueError`` on an unbounded LP.  No kappa LP is one: each member lies
near some witness, so each column has a positive entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index

ZERO = Fraction(0)


@dataclass(frozen=True)
class LPInstance:
    """The packing LP max 1.x subject to A x <= 1, x >= 0.

    A is given in sparse triplet form (row, col, value) with int values;
    repeated triplets accumulate.
    """

    num_vars: int
    num_rows: int
    triplets: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        for r, c, val in self.triplets:
            if not (0 <= r < self.num_rows and 0 <= c < self.num_vars):
                raise ValueError(
                    f"triplet ({r}, {c}, {val}) out of range for "
                    f"{self.num_rows} rows and {self.num_vars} variables"
                )
            try:
                index(val)
            except TypeError:
                # the integer tableau would floor-divide it without a word
                raise ValueError(
                    f"triplet ({r}, {c}, {val!r}) has a coefficient that is not an int"
                ) from None

    def dense_rows(self) -> list[list[int]]:
        """The rows of A as lists of Python ints, 0 where no triplet falls."""
        rows = [[0] * self.num_vars for _ in range(self.num_rows)]
        for r, c, val in self.triplets:
            rows[r][c] += index(val)
        return rows


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

    Returns the final ``det``; raises ``ValueError`` when the LP is unbounded."""
    det = 1
    while True:
        cost = rows[-1]
        enter = next((j for j in range(len(cost) - 1) if cost[j] > 0), -1)
        if enter < 0:
            return det
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
            raise ValueError("the LP is unbounded")
        det = _pivot(rows, basis, leave, enter, det)


def solve_lp(inst: LPInstance) -> tuple[tuple[Fraction, ...], Fraction, tuple[Fraction, ...]]:
    """Solve exactly by integer pivoting from the slack basis; the reported
    optimum and duals are the true ones, with no tolerance involved.

    Returns (values, objective, duals): the primal values, the optimum and
    one dual per row of the instance.  The duals certify the optimum:
    ``objective == sum(duals)``, every dual is >= 0, and sum(duals[r] *
    a[r][j]) >= 1 in every column j.  The dual of row r is minus the final
    reduced cost of the row's slack column.  An unbounded LP raises
    ``ValueError``; the origin is feasible, so no LP is infeasible."""
    n = inst.num_vars
    m = inst.num_rows
    # column layout: structural | slack (row r's is column n + r) | rhs
    rows = [a + [0] * r + [1] + [0] * (m - 1 - r) + [1] for r, a in enumerate(inst.dense_rows())]
    basis = list(range(n, n + m))
    # the basic slacks cost nothing, so the cost row starts priced out
    rows.append([1] * n + [0] * (m + 1))
    det = _run(rows, basis)
    cost = rows.pop()
    values = [ZERO] * n
    for r, bv in enumerate(basis):
        if bv < n:
            values[bv] = Fraction(rows[r][-1], det)
    duals = tuple(Fraction(-cost[n + r], det) for r in range(m))
    return tuple(values), Fraction(-cost[-1], det), duals
