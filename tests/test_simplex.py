import random
from fractions import Fraction as F

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercore import simplex
from hypercore.simplex import LPInstance, solve_lp
from oracles import GeneralLP, fraction_tableau_solve_lp, lp_optimum_by_vertex_enumeration


def lp(nvars, rows, triplets):
    """max 1.x subject to A x <= 1, x >= 0, A given by its triplets."""
    return LPInstance(num_vars=nvars, num_rows=rows, triplets=tuple(triplets))


def test_one_variable_box():
    sol = solve_lp(lp(1, 1, [(0, 0, 1)]))
    assert sol.status == "optimal"
    assert sol.objective == 1
    assert sol.values == (F(1),)
    assert sol.duals == (F(1),)


def test_unbounded():
    # column 0 has no positive entry, so x_0 grows without bound
    assert solve_lp(lp(1, 1, [(0, 0, -1)])).status == "unbounded"
    assert solve_lp(lp(2, 1, [(0, 1, 1)])).status == "unbounded"
    # a positive entry in another row bounds it
    assert solve_lp(lp(1, 2, [(0, 0, -1), (1, 0, 2)])).objective == F(1, 2)


@pytest.mark.parametrize(
    "triplet",
    [(-1, 0, 1), (0, -1, 1), (2, 0, 1), (0, 2, 1)],
    ids=["negative_row", "negative_col", "row_past_end", "col_past_end"],
)
def test_triplet_out_of_range_is_refused(triplet):
    # a negative index used to wrap to the last row or column
    r, c, _ = triplet
    with pytest.raises(ValueError, match=rf"triplet \({r}, {c}, 1\) out of range for 2 rows"):
        lp(2, 2, [(0, 0, 1), triplet])


@pytest.mark.parametrize(
    "value, shown",
    [(F(1, 2), r"Fraction\(1, 2\)"), (F(2), r"Fraction\(2, 1\)"), (0.5, r"0\.5"), (1.0, r"1\.0")],
    ids=["fraction", "whole_fraction", "float", "whole_float"],
)
def test_non_integer_coefficient_is_refused(value, shown):
    # the integer tableau would floor-divide such a coefficient silently
    message = rf"^triplet \(1, 0, {shown}\) has a coefficient that is not an int$"
    with pytest.raises(ValueError, match=message):
        lp(2, 2, [(0, 0, 1), (1, 0, value)])


def test_degenerate_instance_terminates():
    # x <= 1, x + y <= 1 and x - y <= 1 all pass through the vertex (1, 0)
    inst = lp(2, 4, [(0, 0, 1), (1, 0, 1), (1, 1, 1), (2, 0, 1), (2, 1, -1), (3, 1, 1)])
    sol = solve_lp(inst)
    assert sol.status == "optimal" and sol.objective == 1


def test_duplicate_triplets_accumulate():
    assert solve_lp(lp(1, 1, [(0, 0, 1), (0, 0, 1)])).objective == F(1, 2)


def test_matches_vertex_enumeration_on_random_instances():
    rng = random.Random(6)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        rows = rng.randint(1, 3)
        triplets = [(r, c, rng.randint(0, 3)) for r in range(rows) for c in range(nvars)]
        inst = lp(nvars, rows, triplets)
        sol = solve_lp(inst)
        if any(all(t[2] == 0 for t in triplets if t[1] == c) for c in range(nvars)):
            assert sol.status == "unbounded"
            continue
        assert sol.status == "optimal"
        assert sol.objective == lp_optimum_by_vertex_enumeration(GeneralLP.packing(inst))


def test_matches_scipy_on_random_covering_instances():
    # the duals of max 1.x, A^T x <= 1 are a covering vector of A y >= 1
    scipy = pytest.importorskip("scipy.optimize")
    rng = random.Random(13)
    for _ in range(15):
        nvars = rng.randint(2, 5)
        rows = rng.randint(2, 5)
        dense = [[rng.choice([0, 0, 1, 1, 2]) for _ in range(nvars)] for _ in range(rows)]
        dense = [row if any(row) else [1] * nvars for row in dense]
        packing = lp(rows, nvars, [(c, r, dense[r][c]) for r in range(rows) for c in range(nvars)])
        sol = solve_lp(packing)
        assert sol.status == "optimal"
        y = sol.duals
        assert len(y) == nvars and min(y) >= 0
        assert all(sum(a * yc for a, yc in zip(row, y)) >= 1 for row in dense)
        assert sum(y) == sol.objective
        res = scipy.linprog(
            c=[1.0] * nvars,
            A_ub=[[-v for v in row] for row in dense],
            b_ub=[-1.0] * rows,
            bounds=[(0, None)] * nvars,
            method="highs",
        )
        assert res.success
        assert abs(float(sum(y)) - res.fun) < 1e-9


@st.composite
def lp_instances(draw):
    """Tiny packing LPs with int coefficients of either sign, so unbounded
    LPs occur as well as optimal ones."""
    nvars = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    dense = [[draw(st.integers(-3, 3)) for _ in range(nvars)] for _ in range(m)]
    return lp(nvars, m, [(r, c, a) for r, row in enumerate(dense) for c, a in enumerate(row) if a])


def _has_ray(inst):
    """Whether some direction d >= 0, sum(d) = 1, has A d <= 0 (by vertex
    enumeration): along it 1.x grows without bound from the origin."""
    one = F(1)
    cone = GeneralLP(
        direction="max",
        num_vars=inst.num_vars,
        num_rows=inst.num_rows + 1,
        objective=(one,) * inst.num_vars,
        triplets=inst.triplets + tuple((inst.num_rows, c, 1) for c in range(inst.num_vars)),
        senses=("<=",) * inst.num_rows + ("=",),
        rhs=(F(0),) * inst.num_rows + (one,),
    )
    return lp_optimum_by_vertex_enumeration(cone) is not None


@settings(max_examples=300, deadline=None)
@given(lp_instances())
def test_status_optimum_and_dual_certificate(inst):
    sol = solve_lp(inst)
    best = lp_optimum_by_vertex_enumeration(GeneralLP.packing(inst))
    assert best is not None  # the origin is feasible
    if _has_ray(inst):
        assert sol.status == "unbounded"
        return
    assert sol.status == "optimal"
    assert sol.objective == best
    rows = inst.dense_rows()
    assert all(v >= 0 for v in sol.values)
    assert all(sum(a * v for a, v in zip(row, sol.values)) <= 1 for row in rows)
    assert sum(sol.values) == best
    # the duals prove the optimum: nonnegative, every column's dual sum at
    # least its objective coefficient 1, and sum(duals) == objective
    y = sol.duals
    assert len(y) == inst.num_rows
    assert all(yr >= 0 for yr in y)
    for j in range(inst.num_vars):
        assert sum(yr * row[j] for yr, row in zip(y, rows)) >= 1
    assert sum(y) == sol.objective


@settings(max_examples=300, deadline=None)
@given(lp_instances())
def test_integer_tableau_takes_the_fraction_tableau_pivots(inst):
    integer_pivots, fraction_pivots = [], []
    int_pivot, frac_pivot = simplex._pivot, oracles._fraction_pivot

    def record_int(rows, basis, row, col, det):
        integer_pivots.append((row, col))
        return int_pivot(rows, basis, row, col, det)

    def record_frac(tableau, basis, row, col):
        fraction_pivots.append((row, col))
        frac_pivot(tableau, basis, row, col)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_pivot", record_int)
        mp.setattr(oracles, "_fraction_pivot", record_frac)
        sol = solve_lp(inst)
        want = fraction_tableau_solve_lp(GeneralLP.packing(inst))
    assert (sol.status, sol.values, sol.objective) == want
    assert integer_pivots == fraction_pivots
