"""Simplex solver tests, including the brute-force vertex-enumeration oracle.

The oracle never calls the solver: it enumerates every candidate basis
(n active constraints out of all hyperplanes), solves the square system,
filters by feasibility, and takes the best objective.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from riskgate import grid, simplex
from riskgate.errors import UnboundedLP
from riskgate.grid import CORRECTIVE_RANGE_MW, six_bus, solve_dcopf
from riskgate.scenario_gen import LOAD_BUSES, LOAD_RANGE, bus_loads
from riskgate.simplex import _MAX_ITER, FEAS_TOL, PIVOT_TOL, LPResult, solve_lp


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


LP = dict(cost=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], a_ub=[[1.0, -1.0]], b_ub=[0.5], lower=[0.0, 0.0],
          upper=[1.0, 1.0])


@pytest.mark.parametrize("argument, value", [
    (argument, value) for argument in ("cost", "a_eq", "b_eq", "a_ub", "b_ub", "lower")
    for value in (np.nan, np.inf, -np.inf)
] + [("upper", np.nan), ("upper", -np.inf)])
def test_non_finite_inputs_raise(argument, value):
    lp = {name: np.array(v) for name, v in LP.items()}
    lp[argument].flat[-1] = value
    with pytest.raises(ValueError, match="must"):
        solve_lp(**lp)


def test_nan_cost_raises_even_when_the_box_is_empty():
    with pytest.raises(ValueError, match="cost and constraints must be finite"):
        solve_lp([np.nan], lower=[1.0], upper=[0.0])


def test_a_tableau_that_overflows_raises():
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflowed"):
        solve_lp([1.0, 1.0], a_eq=[[1e-5, 1e305]], b_eq=[1.0])


def test_six_bus_dcopf_pivots_take_the_slack_shortcut(monkeypatch):
    """Some pivots enter a slack column that is still a unit vector and update only the two cost rows."""
    rows_updated = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def multiply(self, x, y, out):
            rows_updated.append(len(out))
            return np.multiply(x, y, out=out)

    monkeypatch.setattr(simplex, "np", CountingNumpy())
    assert solve_dcopf(SIX, bus_loads(SIX, [100.0, 100.0, 100.0])).optimal
    assert rows_updated.count(2) > 0  # shortcut pivots
    assert any(n > 2 for n in rows_updated)  # pivots that eliminate every row


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


# The solver as it stood before its tableau lost the artificial columns,
# kept verbatim: the current solver must reproduce it bit for bit.
def reference_solve_lp(
    cost,
    a_eq=None,
    b_eq=None,
    a_ub=None,
    b_ub=None,
    lower=None,
    upper=None,
) -> LPResult:
    """Minimize ``cost . x`` subject to the given constraints.

    Parameters
    ----------
    cost : array (n,)
        Linear objective coefficients.
    a_eq, b_eq : arrays (m_eq, n), (m_eq,)
        Equality constraints ``a_eq x == b_eq``.
    a_ub, b_ub : arrays (m_ub, n), (m_ub,)
        Inequality constraints ``a_ub x <= b_ub``.
    lower, upper : arrays (n,)
        Variable bounds. ``lower`` defaults to 0 and must be finite;
        ``upper`` defaults to +inf.

    Returns
    -------
    LPResult
        ``status == "infeasible"`` leaves ``x`` and ``objective`` None.

    Raises
    ------
    UnboundedLP
        If the objective is unbounded below on the feasible set.
    """
    c = np.asarray(cost, dtype=float)
    n = c.size
    lo = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    hi = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    if not np.all(np.isfinite(lo)):
        raise ValueError("lower bounds must be finite")
    if np.any(hi < lo):
        return LPResult("infeasible", None, None)

    # Shift x = lo + x' so that x' >= 0; finite upper bounds become rows.
    rows = []
    rhs = []
    n_eq = 0
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        for i in range(a_eq.shape[0]):
            rows.append(a_eq[i])
            rhs.append(b_eq[i] - a_eq[i] @ lo)
        n_eq = a_eq.shape[0]
    if a_ub is not None:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        for i in range(a_ub.shape[0]):
            rows.append(a_ub[i])
            rhs.append(b_ub[i] - a_ub[i] @ lo)
    for j in range(n):
        if np.isfinite(hi[j]):
            row = np.zeros(n)
            row[j] = 1.0
            rows.append(row)
            rhs.append(hi[j] - lo[j])

    m = len(rows)
    if m == 0:
        if np.any(c < -PIVOT_TOL):
            raise UnboundedLP("no constraints and a negative cost coefficient")
        return LPResult("optimal", lo.copy(), float(c @ lo))

    a = np.vstack(rows)
    b = np.asarray(rhs, dtype=float)
    n_slack = m - n_eq
    k = n + n_slack

    # Standard form: equality rows first, then one slack per inequality row.
    full = np.zeros((m, k))
    full[:, :n] = a
    for i in range(n_slack):
        full[n_eq + i, n + i] = 1.0

    neg = b < 0
    full[neg] *= -1.0
    b = np.where(neg, -b, b)

    tableau = np.hstack([full, np.eye(m), b[:, None]])
    basis = np.arange(k, k + m)  # artificials

    # Phase-2 cost row carried through phase-1 pivots so it stays canonical.
    cost_row = np.zeros(k + m + 1)
    cost_row[:n] = c
    phase1_row = np.zeros(k + m + 1)
    phase1_row[:k] = -tableau[:, :k].sum(axis=0)
    phase1_row[-1] = -b.sum()

    def pivot(r: int, col: int) -> None:
        tableau[r] /= tableau[r, col]
        factors = tableau[:, col].copy()
        factors[r] = 0.0
        tableau[:] -= factors[:, None] * tableau[r]
        for crow in (cost_row, phase1_row):
            if abs(crow[col]) > 0.0:
                crow -= crow[col] * tableau[r]
        basis[r] = col

    def run(active_row: np.ndarray, limit: int) -> None:
        for _ in range(_MAX_ITER):
            improving = (active_row[:limit] < -PIVOT_TOL).nonzero()[0]
            if improving.size == 0:
                return
            entering = improving[0]
            col = tableau[:, entering]
            ratios = np.where(col > PIVOT_TOL, tableau[:, -1] / np.where(col > PIVOT_TOL, col, 1.0), np.inf)
            best = ratios.min()
            if not np.isfinite(best):
                raise UnboundedLP("unbounded direction in simplex")
            # Bland: among tied rows, leave the smallest basis index.
            tied = (ratios <= best + PIVOT_TOL).nonzero()[0]
            pivot(tied[basis[tied].argmin()], entering)
        raise RuntimeError("simplex iteration limit exceeded")

    run(phase1_row, k)
    if -phase1_row[-1] > FEAS_TOL:
        return LPResult("infeasible", None, None)

    # Drive leftover basic artificials out; rows that cannot pivot are
    # redundant and harmless (the artificial stays basic at value 0).
    for r in range(m):
        if basis[r] >= k:
            for j in range(k):
                if abs(tableau[r, j]) > PIVOT_TOL:
                    pivot(r, j)
                    break

    # Forbid artificials from re-entering in phase 2.
    tableau[:, k:k + m] = 0.0
    run(cost_row, k)

    xfull = np.zeros(k + m)
    xfull[basis] = tableau[:, -1]
    x = lo + xfull[:n]
    return LPResult("optimal", x, float(c @ xfull[:n] + c @ lo))


@st.composite
def random_lps(draw):
    """A random LP, often infeasible or unbounded.

    It has equality rows, right-hand sides of both signs (drawn around a
    point, so a fair share is feasible) and infinite upper bounds.  Half
    the problems are small integers, whose equal ratios and degenerate
    vertices exercise Bland's ties; the rest are general floats.
    """
    if draw(st.booleans()):
        values = st.integers(-3, 3).map(float)
    else:
        values = st.floats(-50, 50, allow_nan=False, allow_subnormal=False)

    def array(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=float).reshape(shape)

    n = draw(st.integers(1, 4))
    n_eq, n_ub = draw(st.integers(0, 2)), draw(st.integers(0, 5))
    lower = array(n)
    upper = lower + np.abs(array(n))
    upper[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = np.inf
    point = lower + np.abs(array(n))
    a_eq, a_ub = array(n_eq, n), array(n_ub, n)
    return array(n), a_eq, a_eq @ point, a_ub, a_ub @ point + array(n_ub), lower, upper


def assert_matches_the_reference(*args, **kwargs):
    outcomes = []
    for solve in (solve_lp, reference_solve_lp):
        try:
            outcomes.append(solve(*args, **kwargs))
        except UnboundedLP:
            outcomes.append(None)  # both must find the problem unbounded
    res, ref = outcomes
    assert (res is None) == (ref is None)
    if ref is not None:
        assert res.status == ref.status
        assert (res.x is None) == (ref.x is None)
        if ref.optimal:
            assert res.x.tobytes() == ref.x.tobytes()
            assert res.objective == ref.objective


def lp_example(cost, a_ub, b_ub, lower, upper, a_eq=(), b_eq=()):
    """One ``random_lps`` draw, written out."""
    n = len(cost)
    return tuple(np.array(v, dtype=float).reshape(shape) for v, shape in [
        (cost, n), (a_eq, (-1, n)), (b_eq, -1), (a_ub, (-1, n)), (b_ub, -1), (lower, n), (upper, n)])


# The two bit-for-bit properties run tier-1's budget, or more under
# ``--hypothesis-profile simplex-reference`` (tests/conftest.py).
@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
@given(random_lps())
# Zero and -0.0 right-hand sides, with a -0.0 lower bound on the variable basic at zero.
@example(lp_example([0.0], [[2.0], [-1.0], [1.0]], [-0.0, -0.0, 5.0], [-0.0], [np.inf]))
@example(lp_example([1.0, -1.0], [[1.0, 1.0], [-1.0, 2.0]], [0.0, -0.0], [-0.0, -0.0], [np.inf, 0.0]))
# Negated rows: negative right-hand sides on inequality and equality rows.
@example(lp_example([1.0, 1.0], [[-1.0, -1.0], [1.0, 0.0]], [-2.0, 3.0], [0.0, 0.0], [np.inf, 4.0],
                    a_eq=[[1.0, -1.0]], b_eq=[-1.0]))
# Zero costs: phase 2 has nothing to improve.
@example(lp_example([0.0, 0.0, 0.0], [[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]], [2.0, -0.0], [-0.0, 0.0, -1.0],
                    [1.0, np.inf, 1.0], a_eq=[[1.0, 0.0, 1.0]], b_eq=[0.5]))
def test_matches_the_reference_simplex_bit_for_bit(lp):
    c, a_eq, b_eq, a_ub, b_ub, lower, upper = lp
    rows = lambda a, b: (a, b) if len(b) else (None, None)  # noqa: E731
    assert_matches_the_reference(c, *rows(a_eq, b_eq), *rows(a_ub, b_ub), lower=lower, upper=upper)


SIX = six_bus()
OUTAGES = [ln.id for ln in SIX.lines if not SIX.topology(ln.id).islanded]


@st.composite
def six_bus_lps(draw):
    """An LP that labelling a pool solves on the packaged network, as ``grid`` poses it.

    Either the DC-OPF of a load triple drawn from the sampling range (some
    have no feasible dispatch), or the corrective-redispatch LP of one
    outage: a box of random reach around that triple's DC-OPF dispatch
    (around a random point where there is none).  Both have 26 rows.
    """
    loads = bus_loads(SIX, [draw(st.floats(*LOAD_RANGE)) for _ in LOAD_BUSES])
    if draw(st.booleans()):
        outage, cost, lo, hi = None, SIX.cost, SIX.p_min, SIX.p_max
    else:
        outage = draw(st.sampled_from(OUTAGES))
        pre_fault = solve_dcopf(SIX, loads)
        centre = pre_fault.x if pre_fault.optimal else np.array(
            [draw(st.floats(g.p_min, g.p_max)) for g in SIX.generators])
        reach = draw(st.floats(0.0, 2 * CORRECTIVE_RANGE_MW))
        cost = np.zeros(len(SIX.generators))
        lo, hi = np.maximum(SIX.p_min, centre - reach), np.minimum(SIX.p_max, centre + reach)
    posed = []
    with mock.patch.object(grid, "solve_lp", lambda *args, **kwargs: posed.append((args, kwargs))):
        grid._dispatch_lp(SIX, SIX.topology(outage), loads, cost, lo, hi)
    return posed[0]


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(six_bus_lps())
def test_matches_the_reference_simplex_bit_for_bit_on_six_bus_lps(lp):
    args, kwargs = lp
    assert_matches_the_reference(*args, **kwargs)
