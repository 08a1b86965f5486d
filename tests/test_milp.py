"""Simplex + branch-and-bound against exact-arithmetic and exhaustive oracles."""
import random
from fractions import Fraction

import numpy as np
import pytest

from slicebed.milp import (
    BINARY,
    CONTINUOUS,
    IlpModel,
    MilpError,
    branch_and_bound,
)

from oracles import (
    enumerate_oracle,
    exact_lp_oracle,
    knapsack_dp,
    random_ilp_model,
    solve_lp_relaxation,
    write_lp_format,
)


# ---------------------------------------------------------------------------
# hand-checkable fixed instances
# ---------------------------------------------------------------------------

def test_unconstrained_binary_takes_negative_costs():
    m = IlpModel()
    m.add_variable("a", BINARY, obj=-2.0)
    m.add_variable("b", BINARY, obj=3.0)
    m.add_variable("c", BINARY, obj=0.0)
    sol = branch_and_bound(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-2.0)
    assert sol.assignment[0] == pytest.approx(1.0)
    assert sol.assignment[1] == pytest.approx(0.0)


def test_simple_covering_model():
    # min a + 2 b  s.t.  a + b >= 1
    m = IlpModel()
    a = m.add_variable("a", BINARY, obj=1.0)
    b = m.add_variable("b", BINARY, obj=2.0)
    m.add_constraint({a: 1, b: 1}, ">=", 1)
    sol = branch_and_bound(m)
    assert sol.status == "optimal" and sol.objective == pytest.approx(1.0)


def test_infeasible_model_reports_infeasible():
    m = IlpModel()
    a = m.add_variable("a", BINARY, obj=1.0)
    m.add_constraint({a: 1}, ">=", 2)
    sol = branch_and_bound(m)
    assert sol.status == "infeasible"
    assert sol.assignment is None and sol.objective is None


def test_unbounded_continuous_detected():
    # a column that could run to infinity is refused when it is added, so
    # no program reaches the solver unbounded
    m = IlpModel()
    with pytest.raises(MilpError, match="finite"):
        m.add_variable("x", CONTINUOUS, lb=0.0, ub=float("inf"), obj=-1.0)
    assert m.variables == []
    m.add_variable("x", CONTINUOUS, lb=0.0, ub=5.0, obj=-1.0)
    sol = solve_lp_relaxation(m)
    assert sol.status == "optimal" and sol.objective == pytest.approx(-5.0)


def test_equality_forces_fractional_lp_integral_ilp():
    # min x+y s.t. 2x + 2y = 3 over binaries is infeasible, LP gives 1.5
    m = IlpModel()
    x = m.add_variable("x", BINARY, obj=1.0)
    y = m.add_variable("y", BINARY, obj=1.0)
    m.add_constraint({x: 2, y: 2}, "=", 3)
    lp = solve_lp_relaxation(m)
    assert lp.status == "optimal" and lp.objective == pytest.approx(1.5)
    ilp = branch_and_bound(m)
    assert ilp.status == "infeasible"


def test_knapsack_against_dp():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(3, 12)
        values = [rng.randint(1, 20) for _ in range(n)]
        weights = [rng.randint(1, 10) for _ in range(n)]
        cap = rng.randint(5, 30)
        m = IlpModel()
        for j in range(n):
            m.add_variable(f"x{j}", BINARY, obj=-values[j])  # maximize value
        m.add_constraint({j: weights[j] for j in range(n)}, "<=", cap)
        sol = branch_and_bound(m)
        assert sol.status == "optimal"
        assert -sol.objective == pytest.approx(knapsack_dp(values, weights, cap))


# ---------------------------------------------------------------------------
# LP relaxation vs exact rational vertex enumeration
# ---------------------------------------------------------------------------

def _random_lp(rng):
    n = rng.randint(1, 4)
    mrows = rng.randint(0, 3)
    m = IlpModel()
    for j in range(n):
        m.add_variable(f"x{j}", CONTINUOUS, lb=0.0,
                       ub=float(rng.randint(1, 4)), obj=rng.randint(-5, 5))
    for i in range(mrows):
        coeffs = {j: rng.randint(-3, 3) for j in range(n) if rng.random() < 0.8}
        if not coeffs:
            continue
        m.add_constraint(coeffs, rng.choice(["<=", ">=", "="]),
                         rng.randint(-4, 6), name=f"r{i}")
    return m


def test_lp_relaxation_matches_exact_vertex_oracle():
    rng = random.Random(12345)
    agree = 0
    for _ in range(60):
        model = _random_lp(rng)
        c, A, rel, b, lb, ub = model.arrays()
        status, exact = exact_lp_oracle(c, A, rel, b, lb, ub)
        got = solve_lp_relaxation(model)
        assert got.status == status, write_lp_format(model)
        if status == "optimal":
            assert got.objective == pytest.approx(float(exact), abs=1e-6), \
                write_lp_format(model)
            agree += 1
    assert agree >= 25  # mix should contain plenty of feasible LPs


def test_lp_relaxation_lower_bounds_ilp():
    rng = random.Random(777)
    for _ in range(40):
        model = random_ilp_model(rng, max_binaries=6)
        lp = solve_lp_relaxation(model)
        ilp = branch_and_bound(model)
        if ilp.status == "optimal":
            assert lp.status == "optimal"
            assert lp.objective <= ilp.objective + 1e-6


# ---------------------------------------------------------------------------
# branch and bound vs exhaustive enumeration
# ---------------------------------------------------------------------------

def test_branch_and_bound_matches_enumeration():
    rng = random.Random(2024)
    feasible = infeasible = 0
    for _ in range(300):
        model = random_ilp_model(rng, max_binaries=8)
        ref = enumerate_oracle(model)
        got = branch_and_bound(model)
        assert got.status == ref.status
        if ref.status == "optimal":
            assert got.objective == pytest.approx(ref.objective, abs=1e-6)
            # the reported assignment must be feasible and attain the objective
            x = got.assignment
            assert np.all((np.abs(x) < 1e-6) | (np.abs(x - 1) < 1e-6))
            assert model.objective_value(x) == pytest.approx(got.objective, abs=1e-6)
            for row in model.constraints:
                lhs = sum(coef * x[j] for j, coef in row.coeffs)
                if row.relation == "<=":
                    assert lhs <= row.rhs + 1e-6
                elif row.relation == ">=":
                    assert lhs >= row.rhs - 1e-6
                else:
                    assert lhs == pytest.approx(row.rhs, abs=1e-6)
            feasible += 1
        else:
            infeasible += 1
    assert feasible > 50 and infeasible > 20


def test_solver_is_deterministic():
    rng = random.Random(55)
    for _ in range(25):
        model = random_ilp_model(rng)
        a = branch_and_bound(model)
        b = branch_and_bound(model)
        assert a.status == b.status
        if a.assignment is not None:
            assert np.array_equal(a.assignment, b.assignment)


def test_time_limit_statuses():
    rng = random.Random(9)
    # a model the solver cannot finish in ~0 time
    m = IlpModel()
    n = 24
    for j in range(n):
        m.add_variable(f"x{j}", BINARY, obj=rng.uniform(-1, 1))
    for i in range(14):
        coeffs = {j: rng.randint(-3, 3) for j in rng.sample(range(n), 12)}
        m.add_constraint(coeffs, "<=", rng.randint(0, 4), name=f"r{i}")
    sol = branch_and_bound(m, time_limit_ms=0.0)
    assert sol.status in ("time_limit_best_incumbent", "infeasible", "optimal")
    if sol.status == "time_limit_best_incumbent" and sol.assignment is None:
        assert sol.objective is None


def test_enumerate_oracle_guards():
    m = IlpModel()
    m.add_variable("x", CONTINUOUS, ub=2.0, obj=1.0)
    with pytest.raises(MilpError, match="binary"):
        enumerate_oracle(m)
    m2 = IlpModel()
    for j in range(23):
        m2.add_variable(f"b{j}", BINARY)
    with pytest.raises(MilpError, match="22"):
        enumerate_oracle(m2)


def test_model_validation():
    m = IlpModel()
    with pytest.raises(MilpError):
        m.add_variable("x", "ternary")
    for lb, ub in ((-float("inf"), 1.0), (0.0, float("nan"))):
        with pytest.raises(MilpError, match="finite"):
            m.add_variable("x", CONTINUOUS, lb=lb, ub=ub, obj=-1.0)
    assert m.variables == []
    j = m.add_variable("x", BINARY, obj=1.0)
    with pytest.raises(MilpError):
        m.add_constraint({j: 1.0}, "<>", 1.0)
    with pytest.raises(MilpError):
        m.add_constraint({j + 5: 1.0}, "<=", 1.0)
    with pytest.raises(MilpError):
        m.add_constraint({j: float("nan")}, "<=", 1.0)


def test_write_lp_format_round_readable():
    m = IlpModel("demo")
    a = m.add_variable("alpha", BINARY, obj=2.0)
    b = m.add_variable("beta", CONTINUOUS, ub=3.0, obj=-1.0)
    m.add_constraint({a: 1, b: 2}, "<=", 4, name="cap")
    text = write_lp_format(m)
    assert "Minimize" in text and "Subject To" in text
    assert "alpha" in text and "beta" in text and "cap" in text
    assert "Binar" in text  # Binaries/Binary section


def test_duplicate_coefficient_indices_accumulate():
    m = IlpModel()
    j = m.add_variable("x", BINARY, obj=-1.0)
    # list form with a repeated index sums the coefficients
    m.add_constraint([(j, 1.0), (j, 1.0)], "<=", 1.0)
    sol = branch_and_bound(m)
    assert sol.status == "optimal"
    assert sol.assignment[0] == pytest.approx(0.0)  # 2x <= 1 forbids x=1
