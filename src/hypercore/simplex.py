"""Dense two-phase simplex over exact rationals.

The covering/packing programs solved here are tiny.  The kappa LPs have one
row or column per family member and per witness vertex (a vertex with an
inclusion-maximal set of nearby members), so their size follows the family,
not the graph: on 150-250 vertex trees with 12-member families they are at
most 12 x 12.  A Fraction tableau with Bland's pivoting rule is therefore
both fast enough and free of tolerance disputes: reported optima are exact
and the primal/dual pair must agree to the digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


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
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: tuple[Fraction, ...]
    objective: Fraction | None


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [a / piv for a in tableau[row]]
    prow = tableau[row]
    for r in range(len(tableau)):
        if r != row and tableau[r][col] != 0:
            f = tableau[r][col]
            tableau[r] = [a - f * b for a, b in zip(tableau[r], prow)]
    basis[row] = col


def _price_out(tableau, basis, costs):
    """Reduced-cost row and current objective for the given basis."""
    width = len(tableau[0])
    cbar = list(costs) + [ZERO]
    z = ZERO
    for r, bv in enumerate(basis):
        cb = costs[bv]
        if cb != 0:
            row = tableau[r]
            for j in range(width - 1):
                cbar[j] -= cb * row[j]
            z += cb * row[-1]
    return cbar[: width - 1], z


def _run(tableau, basis, costs, allowed):
    """Maximize costs . x with Bland's rule; returns (status, objective)."""
    cbar, z = _price_out(tableau, basis, costs)
    while True:
        enter = -1
        for j in allowed:
            if cbar[j] > 0:
                enter = j
                break
        if enter < 0:
            return "optimal", z
        leave = -1
        best_ratio = None
        for r, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = r
        if leave < 0:
            return "unbounded", None
        factor = cbar[enter]
        _pivot(tableau, basis, leave, enter)
        prow = tableau[leave]
        for j in range(len(cbar)):
            cbar[j] -= factor * prow[j]
        z += factor * prow[-1]


def solve_lp(inst: LPInstance) -> LPSolution:
    """Solve exactly by two-phase rational pivoting; the reported optimum is
    the true one, with no tolerance involved."""
    n = inst.num_vars
    m = inst.num_rows
    rows = inst.dense_rows()
    rhs = list(inst.rhs)
    senses = list(inst.senses)
    for r in range(m):
        if rhs[r] < 0:
            rows[r] = [-a for a in rows[r]]
            rhs[r] = -rhs[r]
            senses[r] = {"<=": ">=", ">=": "<=", "=": "="}[senses[r]]

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

    tableau = []
    basis = []
    for r in range(m):
        row = rows[r] + [ZERO] * (width - n) + [rhs[r]]
        if senses[r] == "<=":
            row[slack_of[r]] = ONE
            basis.append(slack_of[r])
        elif senses[r] == ">=":
            row[slack_of[r]] = -ONE
            row[art_of[r]] = ONE
            basis.append(art_of[r])
        else:
            row[art_of[r]] = ONE
            basis.append(art_of[r])
        tableau.append(row)

    sign = ONE if inst.direction == "max" else -ONE
    structural = [sign * c for c in inst.objective]

    if art_of:
        phase1 = [ZERO] * width
        for c in art_of.values():
            phase1[c] = -ONE
        status, z1 = _run(tableau, basis, phase1, range(width))
        if status != "optimal" or z1 != 0:
            return LPSolution("infeasible", (), None)
        artificial_cols = set(art_of.values())
        # drive leftover artificials out of the basis; drop redundant rows
        r = 0
        while r < len(tableau):
            if basis[r] in artificial_cols:
                pivot_col = next(
                    (j for j in range(width) if j not in artificial_cols and tableau[r][j] != 0),
                    None,
                )
                if pivot_col is None:
                    del tableau[r]
                    del basis[r]
                    continue
                _pivot(tableau, basis, r, pivot_col)
            r += 1
        allowed = [j for j in range(width) if j not in artificial_cols]
    else:
        allowed = list(range(width))

    phase2 = structural + [ZERO] * (width - n)
    status, z = _run(tableau, basis, phase2, allowed)
    if status != "optimal":
        return LPSolution(status, (), None)
    values = [ZERO] * n
    for r, bv in enumerate(basis):
        if bv < n:
            values[bv] = tableau[r][-1]
    return LPSolution("optimal", tuple(values), sign * z)
