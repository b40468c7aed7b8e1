"""Simplex solver tests, including the brute-force vertex-enumeration oracle.

The oracle never calls the solver: it enumerates every candidate basis
(n active constraints out of all hyperplanes), solves the square system,
filters by feasibility, and takes the best objective.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from riskgate.errors import UnboundedLP
from riskgate.simplex import solve_lp


def enumerate_optimum(c, a_eq, b_eq, a_ub, b_ub, lower, upper, tol=1e-7):
    """Brute-force LP optimum by vertex enumeration; None if infeasible."""
    c = np.asarray(c, dtype=float)
    n = c.size
    rows, rhs, is_eq = [], [], []
    if a_eq is not None:
        for row, b in zip(np.atleast_2d(a_eq), np.atleast_1d(b_eq)):
            rows.append(np.asarray(row, float))
            rhs.append(float(b))
            is_eq.append(True)
    if a_ub is not None:
        for row, b in zip(np.atleast_2d(a_ub), np.atleast_1d(b_ub)):
            rows.append(np.asarray(row, float))
            rhs.append(float(b))
            is_eq.append(False)
    for j in range(n):
        e = np.zeros(n)
        e[j] = -1.0
        rows.append(e.copy())
        rhs.append(-float(lower[j]))
        is_eq.append(False)
        if np.isfinite(upper[j]):
            rows.append(-e)
            rhs.append(float(upper[j]))
            is_eq.append(False)
    rows = np.array(rows)
    rhs = np.array(rhs)
    eq_idx = [i for i, e in enumerate(is_eq) if e]
    ub_idx = [i for i, e in enumerate(is_eq) if not e]

    best = None
    for extra in itertools.combinations(ub_idx, n - len(eq_idx)):
        idx = list(eq_idx) + list(extra)
        a = rows[idx]
        if abs(np.linalg.det(a)) < 1e-10:
            continue
        x = np.linalg.solve(a, rhs[idx])
        if np.any(rows[ub_idx] @ x > rhs[ub_idx] + tol):
            continue
        if eq_idx and np.any(np.abs(rows[eq_idx] @ x - rhs[eq_idx]) > tol):
            continue
        obj = float(c @ x)
        if best is None or obj < best:
            best = obj
    return best


def test_two_variable_dispatch():
    # load 100, caps 60/60, costs 1/2 -> (60, 40), cost 140
    res = solve_lp(
        [1.0, 2.0],
        a_eq=[[1.0, 1.0]],
        b_eq=[100.0],
        lower=[0.0, 0.0],
        upper=[60.0, 60.0],
    )
    assert res.optimal
    assert res.x == pytest.approx([60.0, 40.0], abs=1e-9)
    assert res.objective == pytest.approx(140.0, abs=1e-9)


def test_zero_load_zero_cost_dispatch():
    res = solve_lp([12.0, 10.0, 8.0], a_eq=[[1, 1, 1]], b_eq=[0.0], lower=np.zeros(3), upper=np.full(3, 100.0))
    assert res.optimal
    assert res.x == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)
    assert res.objective == pytest.approx(0.0, abs=1e-12)


def test_infeasible_bounds_vs_demand():
    res = solve_lp([1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[50.0], lower=[0, 0], upper=[10.0, 10.0])
    assert res.status == "infeasible"
    assert res.x is None


def test_unbounded_raises():
    with pytest.raises(UnboundedLP):
        solve_lp([-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0], lower=[0.0, 0.0])


def test_negative_lower_bounds():
    res = solve_lp([1.0], lower=[-5.0], upper=[5.0])
    assert res.optimal
    assert res.x == pytest.approx([-5.0])
    assert res.objective == pytest.approx(-5.0)


def test_degenerate_cycling_guard():
    # Beale's classic cycling example; Bland's rule must terminate.
    c = [-0.75, 150.0, -0.02, 6.0]
    a_ub = [
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b_ub = [0.0, 0.0, 1.0]
    res = solve_lp(c, a_ub=a_ub, b_ub=b_ub, lower=np.zeros(4))
    assert res.optimal
    assert res.objective == pytest.approx(-0.05, abs=1e-9)


def test_equality_constrained_against_oracle():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = 3
        lower = np.zeros(n)
        upper = rng.uniform(0.5, 3.0, n)
        c = rng.normal(size=n)
        a_eq = rng.normal(size=(1, n))
        b_eq = a_eq @ rng.uniform(0, 1, n)  # keep a decent feasibility rate
        a_ub = rng.normal(size=(2, n))
        b_ub = rng.normal(0.5, 1.0, 2)
        res = solve_lp(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, lower=lower, upper=upper)
        expect = enumerate_optimum(c, a_eq, b_eq, a_ub, b_ub, lower, upper)
        if expect is None:
            assert res.status == "infeasible"
        else:
            assert res.optimal, "oracle found a feasible vertex but solver says infeasible"
            assert res.objective == pytest.approx(expect, abs=1e-6)


def test_random_boxes_against_oracle():
    rng = np.random.default_rng(11)
    for _ in range(120):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        lower = np.zeros(n)
        upper = rng.uniform(0.5, 3.0, n)
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(m, n))
        b_ub = rng.normal(0.5, 1.0, m)
        res = solve_lp(c, a_ub=a_ub, b_ub=b_ub, lower=lower, upper=upper)
        expect = enumerate_optimum(c, None, None, a_ub, b_ub, lower, upper)
        if expect is None:
            assert res.status == "infeasible"
        else:
            assert res.optimal
            assert res.objective == pytest.approx(expect, abs=1e-6)


@st.composite
def bounded_lps(draw):
    """A random LP with finite bounds on every variable, so it is infeasible or has an optimum.

    Every number is a multiple of 1/64, and whole problems are drawn
    integer-valued too: their many equal ratios exercise Bland's tie
    scan, and the grid keeps infeasibility margins far above both
    solvers' tolerances.
    """
    denominator = draw(st.sampled_from([1, 64]))
    span = 4 * denominator

    def matrix(rows, cols):
        flat = draw(st.lists(st.integers(-span, span), min_size=rows * cols, max_size=rows * cols))
        return np.array(flat, dtype=float).reshape(rows, cols) / denominator

    n = draw(st.integers(1, 4))
    n_eq, n_ub = draw(st.integers(0, 2)), draw(st.integers(0, 4))
    lower = matrix(1, n)[0]
    upper = lower + np.abs(matrix(1, n)[0])
    return matrix(1, n)[0], matrix(n_eq, n), matrix(1, n_eq)[0], matrix(n_ub, n), matrix(1, n_ub)[0], lower, upper


@settings(max_examples=400, deadline=None)
@given(bounded_lps())
def test_matches_highs_on_bounded_lps(lp):
    c, a_eq, b_eq, a_ub, b_ub, lower, upper = lp
    rows = lambda a, b: (a, b) if len(b) else (None, None)  # noqa: E731
    res = solve_lp(c, *rows(a_eq, b_eq), *rows(a_ub, b_ub), lower=lower, upper=upper)
    ref = linprog(c, *rows(a_ub, b_ub), *rows(a_eq, b_eq), bounds=list(zip(lower, upper)), method="highs")
    assert ref.status in (0, 2)  # optimal or infeasible: every variable is bounded
    assert res.status == ("optimal" if ref.status == 0 else "infeasible")
    if res.optimal:
        assert res.objective == pytest.approx(ref.fun, abs=1e-6)
        assert np.all((res.x >= lower - 1e-7) & (res.x <= upper + 1e-7))
