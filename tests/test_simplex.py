import random
from fractions import Fraction as F

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercore import simplex
from hypercore.simplex import LPInstance, solve_lp
from oracles import fraction_tableau_solve_lp, lp_optimum_by_vertex_enumeration


def lp(direction, nvars, rows, obj, triplets, senses, rhs):
    return LPInstance(
        direction=direction,
        num_vars=nvars,
        num_rows=rows,
        objective=tuple(F(c) for c in obj),
        triplets=tuple((r, c, F(v)) for r, c, v in triplets),
        senses=tuple(senses),
        rhs=tuple(F(b) for b in rhs),
    )


def test_one_variable_box():
    sol = solve_lp(lp("max", 1, 1, [1], [(0, 0, 1)], ["<="], [1]))
    assert sol.status == "optimal"
    assert sol.objective == 1
    assert sol.values == (F(1),)


@pytest.mark.parametrize(
    "sense, rhs, row",
    [(">=", 2, "'>= 2'"), ("=", 3, "'= 3'"), ("<=", -2, "'<= -2'")],
    ids=["surplus", "equality", "negative_rhs"],
)
def test_lp_without_a_feasible_origin_is_refused(sense, rhs, row):
    # row 0 is fine; row 1 puts the origin outside the feasible region
    inst = lp("min", 2, 2, [2, 1], [(0, 0, 1), (1, 0, 1), (1, 1, 1)], ["<=", sense], [1, rhs])
    with pytest.raises(ValueError, match=f"row 1 is {row}: solve_lp needs a feasible origin"):
        solve_lp(inst)


def test_unbounded_and_infeasible():
    assert solve_lp(lp("max", 1, 1, [1], [(0, 0, -1)], ["<="], [1])).status == "unbounded"
    # an infeasible LP has no feasible origin, so it is refused, not solved
    inst = lp("max", 1, 2, [1], [(0, 0, 1), (1, 0, 1)], ["<=", ">="], [1, 2])
    with pytest.raises(ValueError, match="row 1 is '>= 2'"):
        solve_lp(inst)


@pytest.mark.parametrize(
    "triplet",
    [(-1, 0, 1), (0, -1, 1), (2, 0, 1), (0, 2, 1)],
    ids=["negative_row", "negative_col", "row_past_end", "col_past_end"],
)
def test_triplet_out_of_range_is_refused(triplet):
    # a negative index used to wrap to the last row or column
    r, c, _ = triplet
    with pytest.raises(ValueError, match=rf"triplet \({r}, {c}, 1\) out of range for 2 rows"):
        lp("max", 2, 2, [1, 1], [(0, 0, 1), triplet], ["<=", "<="], [1, 1])


def test_degenerate_instance_terminates():
    # several redundant constraints through the same vertex
    inst = lp(
        "max",
        2,
        4,
        [1, 1],
        [(0, 0, 1), (1, 1, 1), (2, 0, 1), (2, 1, 1), (3, 0, 2), (3, 1, 2)],
        ["<=", "<=", "<=", "<="],
        [1, 1, 2, 4],
    )
    sol = solve_lp(inst)
    assert sol.status == "optimal" and sol.objective == 2


def test_duplicate_triplets_accumulate():
    inst = lp("max", 1, 1, [1], [(0, 0, 1), (0, 0, 1)], ["<="], [2])
    assert solve_lp(inst).objective == 1


def test_matches_vertex_enumeration_on_random_instances():
    rng = random.Random(6)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        rows = rng.randint(1, 3)
        direction = rng.choice(["max", "min"])
        obj = [rng.randint(0, 4) for _ in range(nvars)]
        triplets = [
            (r, c, rng.randint(0, 3)) for r in range(rows) for c in range(nvars)
        ]
        senses = ["<="] * rows
        rhs = [rng.randint(1, 6) for _ in range(rows)]
        if direction == "min":
            # keep min problems bounded below by construction (they are, at 0)
            pass
        inst = lp(direction, nvars, rows, obj, triplets, senses, rhs)
        sol = solve_lp(inst)
        expect = lp_optimum_by_vertex_enumeration(inst)
        if direction == "max" and any(
            obj[c] > 0 and all(t[2] == 0 for t in triplets if t[1] == c) for c in range(nvars)
        ):
            assert sol.status == "unbounded"
            continue
        assert sol.status == "optimal"
        assert sol.objective == expect


def test_matches_scipy_on_random_covering_instances():
    # the duals of max 1.x, A^T x <= 1 are a covering vector of A y >= 1
    scipy = pytest.importorskip("scipy.optimize")
    rng = random.Random(13)
    for _ in range(15):
        nvars = rng.randint(2, 5)
        rows = rng.randint(2, 5)
        dense = [[rng.choice([0, 0, 1, 1, 2]) for _ in range(nvars)] for _ in range(rows)]
        dense = [row if any(row) else [1] * nvars for row in dense]
        packing = lp(
            "max",
            rows,
            nvars,
            [1] * rows,
            [(c, r, dense[r][c]) for r in range(rows) for c in range(nvars)],
            ["<="] * nvars,
            [1] * nvars,
        )
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


small_fractions = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def lp_instances(draw):
    """Tiny LPs with a feasible origin: ``<=`` rows with Fraction data of
    either sign and rhs >= 0, so unbounded LPs occur as well as optimal
    ones."""
    nvars = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    dense = [[draw(small_fractions) for _ in range(nvars)] for _ in range(m)]
    rhs = [abs(draw(small_fractions)) for _ in range(m)]
    obj = [draw(small_fractions) for _ in range(nvars)]
    triplets = [(r, c, a) for r, row in enumerate(dense) for c, a in enumerate(row) if a]
    return lp(draw(st.sampled_from(["max", "min"])), nvars, m, obj, triplets, ["<="] * m, rhs)


def _improving_ray(inst):
    """Whether some direction d >= 0, sum(d) = 1, keeps every row's sense
    at rhs 0 and strictly improves the objective (by vertex enumeration)."""
    cone = LPInstance(
        direction=inst.direction,
        num_vars=inst.num_vars,
        num_rows=inst.num_rows + 1,
        objective=inst.objective,
        triplets=inst.triplets + tuple((inst.num_rows, c, F(1)) for c in range(inst.num_vars)),
        senses=inst.senses + ("=",),
        rhs=(F(0),) * inst.num_rows + (F(1),),
    )
    best = lp_optimum_by_vertex_enumeration(cone)
    return best is not None and (best > 0 if inst.direction == "max" else best < 0)


@settings(max_examples=300, deadline=None)
@given(lp_instances())
def test_status_optimum_and_dual_certificate(inst):
    sol = solve_lp(inst)
    best = lp_optimum_by_vertex_enumeration(inst)
    assert best is not None  # the origin is feasible
    if _improving_ray(inst):
        assert sol.status == "unbounded"
        return
    assert sol.status == "optimal"
    assert sol.objective == best
    rows = inst.dense_rows()
    assert all(v >= 0 for v in sol.values)
    assert sum(c * v for c, v in zip(inst.objective, sol.values)) == best
    # the duals prove the optimum: signs, dual feasibility in every column,
    # and rhs . duals == objective
    y = sol.duals
    assert len(y) == inst.num_rows
    flip = 1 if inst.direction == "max" else -1
    assert all(flip * yr >= 0 for yr in y)
    for j, c in enumerate(inst.objective):
        assert flip * (sum(yr * row[j] for yr, row in zip(y, rows)) - c) >= 0
    assert sum(b * yr for b, yr in zip(inst.rhs, y)) == sol.objective


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
        want = fraction_tableau_solve_lp(inst)
    assert (sol.status, sol.values, sol.objective) == want
    assert integer_pivots == fraction_pivots
