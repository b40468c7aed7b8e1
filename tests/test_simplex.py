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
from test_grid import fresh_six_bus


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


def test_an_lp_infeasible_before_its_path_overflows_stays_infeasible():
    """Phase 1's verdict stands where the steps recorded after it, up to the next ratio test, overflow."""
    lp = dict(cost=[2e307] * 3, a_eq=[[1e160, -1e160, 2e160]], a_ub=[[2.0, -1.0, -1.0]])
    paths = {}
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="overflowed"):
            solve_lp(**lp, b_eq=[-4.0000000000000007e160], b_ub=[3.0], lower=[2.0, 2.0, -2.0], upper=[3.0, 5.0, 0.0],
                     paths=paths)
        res = solve_lp(**lp, b_eq=[1e161], b_ub=[-1.0], lower=[0.0, 0.0, 2.0], upper=[3.0, 3.0, 4.0], paths=paths)
    assert res.status == "infeasible"  # as the solver before the memo found


def test_an_lp_whose_only_overflow_is_its_objective_entry_raises():
    """The replay carries the phase-2 cost row's right-hand-side entry for the exit's finite check.

    Pivoting ``x`` in overflows that entry, the negated objective, and
    nothing else: the full tableau's exit check raised on it, and so must
    a solve that records the path and one that replays it.  The reference
    below has no exit check and returns the infinite objective.
    """
    lp = dict(cost=[1e300], a_eq=[[1.0]], b_eq=[1e10])
    with np.errstate(over="ignore"):
        ref = reference_solve_lp(**lp)
    assert ref.optimal and ref.x.tolist() == [1e10] and ref.objective == np.inf
    paths = {}
    for _ in range(2):
        with pytest.raises(ValueError, match="overflowed"):
            solve_lp(**lp, paths=paths)


def test_the_iteration_limit_raises_unless_the_right_hand_side_overflowed(monkeypatch):
    """At ``_MAX_ITER`` a solve raises ``RuntimeError``, as the reference does.

    The first LP's one pivot overflows its shared columns but not its
    right-hand side; the second's overflows the negated objective, so its
    exit check raises the overflow error instead.
    """
    monkeypatch.setattr(simplex, "_MAX_ITER", 1)
    monkeypatch.setitem(globals(), "_MAX_ITER", 1)  # the copy `reference_solve_lp` reads
    with np.errstate(over="ignore", invalid="ignore"):
        lp = dict(cost=[1.0, 1.0], a_eq=[[1e-5, 1e305]], b_eq=[1.0])
        for solve in (reference_solve_lp, solve_lp):
            with pytest.raises(RuntimeError, match="iteration limit"):
                solve(**lp)
        with pytest.raises(ValueError, match="overflowed"):
            solve_lp([1e300], a_eq=[[1.0]], b_eq=[1e10])


def test_equal_stacked_matrices_split_apart_get_their_own_records():
    """``[a_eq; a_ub]`` alike, with one row an equality in one LP and an inequality in the other."""
    rows = [[1.0, 1.0], [1.0, -1.0]]
    as_split = dict(a_eq=rows[:1], b_eq=[1.0], a_ub=rows[1:], b_ub=[0.5])
    as_equalities = dict(a_eq=rows, b_eq=[1.0, 0.5])
    paths = {}
    for _ in range(2):
        for lp in (as_split, as_equalities):
            assert_matches_the_reference([2.0, 1.0], **lp, paths=paths)
    assert len(paths) == 2
    assert [(r.n_eq, r.a.tolist()) for r in paths.values()] == [(1, rows), (2, rows)]
    assert solve_lp([2.0, 1.0], **as_split, paths=paths).x.tolist() == [0.0, 1.0]
    assert solve_lp([2.0, 1.0], **as_equalities, paths=paths).x.tolist() == [0.75, 0.25]


@pytest.mark.parametrize("argument", ["cost", "a_eq", "a_ub"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_constant_data_raises_on_every_call_through_one_memo(argument, value):
    lp = {name: np.array(v) for name, v in LP.items()}
    lp[argument].flat[0] = value
    paths = {}
    for b_ub in ([0.5], [0.5], [-2.0]):  # prepared, found again, and on another right-hand side
        with pytest.raises(ValueError, match="^cost and constraints must be finite$"):
            solve_lp(**{**lp, "b_ub": b_ub}, paths=paths)
    [prepared] = paths.values()
    assert not prepared.finite and not prepared.families


def grid_lp(net, outage, loads, cost, lower, upper):
    """The ``solve_lp`` arguments and keywords of one condition's LP on ``outage``, as ``grid`` poses it."""
    top = net.topology(outage)
    (b_eq,), (b_ub,) = grid._dispatch_rhs(net, top, np.asarray(loads)[None])
    return (cost, net._balance, b_eq, top.a_ub, b_ub, lower, upper), {"paths": top.paths}


def test_a_security_lp_and_a_dcopf_share_a_topology_memo_apart():
    """Both LPs on the intact six-bus network, interleaved through its memo, as each solves alone."""
    net = fresh_six_bus()
    top = net.topology(None)
    loads = [bus_loads(net, triple) for triple in ([100.0, 100.0, 100.0], [120.0, 80.0, 70.0], [55.0, 130.0, 90.0])]
    dispatches = [d.x for d in solve_dcopf(six_bus(), loads)]
    posed = []
    for row, dispatch in zip(loads, dispatches):
        posed.append(grid_lp(net, None, row, net.cost, net.p_min, net.p_max))  # solve_dcopf's LP
        posed.append(grid_lp(net, None, row, np.zeros(3), dispatch - 5.0, dispatch + 5.0))  # a security LP's
    for args, kwargs in posed + posed:
        assert_matches_the_reference(*args, **kwargs)
        assert kwargs["paths"] is top.paths
    opf, security = top.paths.values()
    assert opf.a.tobytes() == security.a.tobytes() and opf.n_eq == security.n_eq == 1
    assert opf.families and security.families
    assert not {id(f) for f in opf.families.values()} & {id(f) for f in security.families.values()}


def test_six_bus_dcopf_path_records_shortcut_steps_and_full_pivots():
    """A DC-OPF's recorded path has shortcut steps, which change only the cost rows, and full pivots."""
    net = fresh_six_bus()
    assert solve_dcopf(net, bus_loads(net, [[100.0, 100.0, 100.0]]))[0].optimal
    [prepared] = net.topology(None).paths.values()
    [(start, node)] = prepared.families.values()
    tableau, m = start.copy(), len(start.t) - 2
    changed_rows = {simplex._SHORTCUT: set(), simplex._PIVOT: set()}
    while node is not None:
        for kind, r, col, _, _ in node.steps:
            before = tableau.t.copy()
            tableau.step(kind, r, col)
            if kind in changed_rows:
                changed_rows[kind] |= set(np.flatnonzero((tableau.t != before).any(axis=1)).tolist())
        [node] = node.children.values() if node.children else [None]
    assert changed_rows[simplex._SHORTCUT] and changed_rows[simplex._SHORTCUT] <= {m, m + 1}  # shortcut steps
    assert min(changed_rows[simplex._PIVOT]) < m  # pivots that eliminate every row


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
    """``solve_lp``, given ``kwargs`` as they are, gives the reference's result; the reference gets no ``paths``."""
    outcomes = []
    reference_kwargs = {name: value for name, value in kwargs.items() if name != "paths"}
    for solve, solve_kwargs in ((solve_lp, kwargs), (reference_solve_lp, reference_kwargs)):
        try:
            outcomes.append(solve(*args, **solve_kwargs))
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


# These three bit-for-bit properties, and the batch ones below, run tier-1's
# budget, or more under ``--hypothesis-profile simplex-reference`` (tests/conftest.py).
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


@st.composite
def lp_families(draw):
    """One cost and constraint matrix, with 1-40 members: right-hand sides and bound vectors.

    As in ``random_lps``, half the families are small integers (ties and
    degenerate vertices) and the rest general floats; the integers include
    -0.0.  Which variables have an upper bound is the family's, so two
    members share a memo family unless the signs of their shifted
    right-hand sides differ: some negate a row that others do not.  Some
    members are infeasible and, with infinite upper bounds, some unbounded.
    """
    if draw(st.booleans()):
        values = st.integers(-3, 3).map(float) | st.just(-0.0)
    else:
        values = st.floats(-50, 50, allow_nan=False, allow_subnormal=False)

    def array(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=float).reshape(shape)

    n = draw(st.integers(1, 4))
    n_eq, n_ub = draw(st.integers(0, 2)), draw(st.integers(0, 5))
    unbounded = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    a_eq, a_ub = array(n_eq, n), array(n_ub, n)
    members = []
    for _ in range(draw(st.integers(1, 40))):
        lower = array(n)
        upper = lower + np.abs(array(n))
        upper[unbounded] = np.inf
        point = lower + np.abs(array(n))
        members.append((a_eq @ point + array(n_eq) * draw(st.booleans()), a_ub @ point + array(n_ub), lower, upper))
    return array(n), a_eq, a_ub, members


def family_example(cost, a_ub, members):
    """One ``lp_families`` draw without equality rows, written out: members are (b_ub, lower, upper)."""
    n = len(cost)
    return (np.array(cost, dtype=float), np.zeros((0, n)), np.array(a_ub, dtype=float).reshape(-1, n),
            [(np.zeros(0), *(np.array(v, dtype=float) for v in member)) for member in members])


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(lp_families())
# Row 0 negated for some members only, a -0.0 right-hand side, and an infeasible member.
@example(family_example([1.0, 1.0], [[-1.0, -1.0], [1.0, 0.0]], [
    ([-2.0, 3.0], [0.0, 0.0], [np.inf, 4.0]), ([2.0, 3.0], [0.0, 0.0], [np.inf, 4.0]),
    ([-0.0, -0.0], [-0.0, 0.0], [np.inf, 4.0]), ([-6.0, 1.0], [0.0, 0.0], [np.inf, 4.0]),
    ([-2.0, 3.0], [1.0, -1.0], [np.inf, 0.0])]))
# Unbounded members, one with a negated row, beside an infeasible one; and a member
# with an upper bound on x0, which is bounded and in another family of the same memo.
@example(family_example([-1.0, 0.0], [[0.0, 1.0], [-1.0, -1.0]], [
    ([1.0, 0.0], [0.0, 0.0], [np.inf, np.inf]), ([-1.0, 0.0], [0.0, 0.0], [np.inf, np.inf]),
    ([1.0, 0.0], [0.0, 0.0], [3.0, np.inf]), ([1.0, -2.0], [0.0, 0.0], [np.inf, np.inf])]))
def test_lp_family_replay_matches_the_reference_simplex_bit_for_bit(family):
    """Members solved through one memo, cold and then warm in reverse order, each give the reference's result."""
    c, a_eq, a_ub, members = family
    rows = lambda a, b: (a, b) if len(b) else (None, None)  # noqa: E731
    paths = {}
    for b_eq, b_ub, lower, upper in members + members[::-1]:
        assert_matches_the_reference(c, *rows(a_eq, b_eq), *rows(a_ub, b_ub), lower=lower, upper=upper, paths=paths)


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
        [pre_fault] = solve_dcopf(SIX, loads[None])
        centre = pre_fault.x if pre_fault.optimal else np.array(
            [draw(st.floats(g.p_min, g.p_max)) for g in SIX.generators])
        reach = draw(st.floats(0.0, 2 * CORRECTIVE_RANGE_MW))
        cost = np.zeros(len(SIX.generators))
        lo, hi = np.maximum(SIX.p_min, centre - reach), np.minimum(SIX.p_max, centre + reach)
    return grid_lp(SIX, outage, loads, cost, lo, hi)


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(six_bus_lps())
def test_matches_the_reference_simplex_bit_for_bit_on_six_bus_lps(lp):
    args, kwargs = lp
    assert_matches_the_reference(*args, **kwargs)


# -- batches -------------------------------------------------------------------

@st.composite
def lp_batches(draw):
    """One cost, constraint matrix and bound vectors, with 1-300 members that differ in ``b_eq`` and ``b_ub``.

    As in ``lp_families``, half the batches are small integers (ties and
    degenerate vertices, and -0.0) and the rest general floats.  Members
    are drawn around points in the box by a generator the draw seeds; some
    are offset off their point (infeasible members, or signs that negate a
    row for some members only), and infinite upper bounds make some
    unbounded.  ``warm`` members are solved alone through the memo before
    the batch, so that the rest find some branches recorded and reach
    others the memo lacks.
    """
    integers = draw(st.booleans())
    if integers:
        values = st.integers(-3, 3).map(float) | st.just(-0.0)
    else:
        values = st.floats(-50, 50, allow_nan=False, allow_subnormal=False)

    def array(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=float).reshape(shape)

    n = draw(st.integers(1, 4))
    n_eq, n_ub = draw(st.integers(0, 2)), draw(st.integers(0, 5))
    cost, a_eq, a_ub = array(n), array(n_eq, n), array(n_ub, n)
    lower = array(n)
    upper = lower + np.abs(array(n))
    upper[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = np.inf
    size = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0.0, 1.0, 5.0]))
    points = lower + rng.uniform(0.0, 4.0, (size, n))
    offsets = rng.normal(0.0, spread, (size, n_eq + n_ub)) * (rng.random((size, 1)) < 0.3)
    b = np.hstack([points @ a_eq.T, points @ a_ub.T]) + offsets
    if integers:
        b = np.rint(b) * np.where(rng.random(b.shape) < 0.1, 0.0, 1.0)  # ties, and 0.0 or -0.0 entries
    return cost, a_eq, b[:, :n_eq], a_ub, b[:, n_eq:], lower, upper, draw(st.integers(0, size))


def solve_alone(solve):
    try:
        return solve()
    except (ValueError, RuntimeError, UnboundedLP) as exc:
        return exc


def assert_same_outcome(res, ref):
    """Bit for bit in status, ``x`` and ``objective``, or the same exception type and message."""
    if isinstance(ref, Exception):
        assert type(res) is type(ref) and str(res) == str(ref)
        return
    assert isinstance(res, LPResult) and res.status == ref.status
    assert (res.x is None) == (ref.x is None)
    if ref.optimal:
        assert res.x.tobytes() == ref.x.tobytes()
        assert np.float64(res.objective).tobytes() == np.float64(ref.objective).tobytes()


def assert_batch_matches_solve_lp(cost, a_eq, b_eq, a_ub, b_ub, lower, upper, warm=0):
    """Each member of ``solve_batch`` is ``solve_lp`` alone, and only the ``solve_lp`` calls it makes record."""
    paths = {}

    def member(j, memo):
        row = lambda b: None if b is None else b[j]  # noqa: E731
        return lambda: solve_lp(cost, a_eq, row(b_eq), a_ub, row(b_ub), lower, upper, paths=memo)

    for j in range(warm):
        solve_alone(member(j, paths))
    solving, record = [False], simplex._Tableau.record

    def solve(*args, **kwargs):
        solving[0] = True
        try:
            return solve_lp(*args, **kwargs)
        finally:
            solving[0] = False

    def checked_record(self, *args, **kwargs):
        assert solving[0], "a pivot path was recorded outside solve_lp"
        return record(self, *args, **kwargs)

    with mock.patch.object(simplex._Tableau, "record", checked_record):
        outcomes = simplex.solve_batch(cost, a_eq, b_eq, a_ub, b_ub, lower, upper, paths=paths, solve=solve)
    alone = {}  # a memo apart from the batch's; a memo changes no result (test_lp_family_replay_...)
    for j, outcome in enumerate(outcomes):
        assert_same_outcome(outcome, solve_alone(member(j, alone)))


def batch_example(cost, a_ub, b_ub, lower, upper, a_eq=(), b_eq=None, warm=0):
    """One ``lp_batches`` draw, written out: ``b_ub`` (and ``b_eq``) hold one row per member."""
    n = len(cost)
    b_ub = np.array(b_ub, dtype=float).reshape(len(b_ub), -1)
    b_eq = np.zeros((len(b_ub), 0)) if b_eq is None else np.array(b_eq, dtype=float).reshape(len(b_ub), -1)
    return (np.array(cost, dtype=float), np.array(a_eq, dtype=float).reshape(-1, n), b_eq,
            np.array(a_ub, dtype=float).reshape(-1, n), b_ub, np.array(lower, dtype=float),
            np.array(upper, dtype=float), warm)


# CI reruns the batch properties with the three above (``-k bit_for_bit``) and
# with the ``reference`` ones (``-m reference``).
@pytest.mark.reference
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(lp_batches())
# Row 0 negated for some members only, a -0.0 right-hand side, an infeasible and an unbounded member,
# five of a kind (the array walk) and, warm, a recorded member beside ones that reach branches it lacks.
@example(batch_example([-1.0, 1.0], [[-1.0, -1.0], [1.0, 0.0]], [[-2.0, 3.0], [2.0, 3.0], [-0.0, -0.0], [-6.0, 1.0],
                                                                 [2.0, 3.0], [2.0, 3.0], [2.0, 3.0], [2.0, 3.0]],
                       [0.0, 0.0], [np.inf, 4.0]))
@example(batch_example([-1.0, 0.0], [[0.0, 1.0], [-1.0, -1.0]], [[1.0, 0.0], [-1.0, 0.0], [1.0, -2.0], [1.0, 0.0],
                                                                 [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                       [0.0, 0.0], [np.inf, np.inf], warm=1))
def test_solve_batch_matches_solve_lp_bit_for_bit(batch):
    assert_batch_matches_solve_lp(*batch)


SPIKES = [1.7e308, -1.7e308, 1e300, -1e300, 1e-300, -1e-300, -0.0]


@pytest.mark.reference
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(lp_batches(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.01, 0.2]))
# Members whose b is not finite, and a family whose cost is not: each member as solve_lp refuses it.
@example(batch_example([1.0, 1.0], [[1.0, 1.0]], [[2.0], [np.inf], [np.nan], [-np.inf], [2.0]],
                       [0.0, 0.0], [np.inf, np.inf]), 0, 0.0)
@example(batch_example([1.0, np.nan], [[1.0, 1.0]], [[2.0], [3.0], [1.0]], [0.0, 0.0], [np.inf, 1.0]), 0, 0.0)
def test_array_walk_matches_solve_lp_bit_for_bit(batch, seed, p_spike):
    """With every group in the array walk, even of one member, each member is ``solve_lp`` alone.

    Some right-hand-side entries are huge or tiny, so that some members
    overflow part way down a path or meet non-finite ratios.
    """
    cost, a_eq, b_eq, a_ub, b_ub, lower, upper, warm = batch
    rng = np.random.default_rng(seed)
    for b in (b_eq, b_ub):
        spiked = rng.random(b.shape) < p_spike
        b[spiked] = rng.choice(SPIKES, spiked.sum())
    with np.errstate(all="ignore"), mock.patch.object(simplex, "_SCALAR_BELOW", 1):  # huge entries overflow
        assert_batch_matches_solve_lp(cost, a_eq, b_eq, a_ub, b_ub, lower, upper, warm)


def assert_starts_as_its_rows(b):
    """``_start`` of rows ``b`` has each row's own bits: the phase-1 entry is a pairwise sum, a row's as a vector's."""
    neg, rhs = simplex._start(b)
    for j, row in enumerate(b):
        neg_j, rhs_j = simplex._start(row)
        assert np.array_equal(neg[j], neg_j) and rhs[j].tobytes() == rhs_j.tobytes()


@settings(max_examples=200, deadline=None)  # also under the 5000-example profile: a cheap start, not a walk
@given(st.integers(1, 40).flatmap(lambda m: st.lists(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False) | st.just(-0.0), min_size=m, max_size=m),
    min_size=1, max_size=30)))
def test_a_batch_starts_from_solve_lps_right_hand_sides_bit_for_bit(b):
    assert_starts_as_its_rows(np.array(b))


def test_a_dcopf_batch_starts_from_solve_lps_right_hand_sides_bit_for_bit():
    """26 rows (balance, 2 x 11 flow limits, 3 upper bounds), past the pairwise sum's unrolled block."""
    net = six_bus()
    loads = bus_loads(net, np.random.default_rng(8).uniform(*LOAD_RANGE, (300, len(LOAD_BUSES))))
    b_eq, b_ub = grid._dispatch_rhs(net, net.topology(None), loads)
    *_, prepared = simplex._shared_data(net.cost, net._balance, net.topology(None).a_ub, net.p_min, net.p_max, {})
    b = np.hstack([b_eq, b_ub, np.broadcast_to(net.p_max, (len(loads), 3))]) - np.vecdot(prepared.a, net.p_min)
    assert b.shape == (300, 26)
    assert_starts_as_its_rows(b)


def test_batch_members_at_the_feasibility_tolerance_pass_the_verdict_as_solve_lp_does():
    """Phase 1 ends with an artificial sum of exactly ``FEAS_TOL`` for the first member: feasible, as alone."""
    b_eq = np.array([[FEAS_TOL], [2 * FEAS_TOL], [0.0]] * 3)
    for warm in (0, 1):
        assert_batch_matches_solve_lp(np.array([1.0]), np.array([[1.0]]), b_eq, None, None, [0.0], [0.0], warm=warm)
    assert solve_lp([1.0], [[1.0]], [FEAS_TOL], lower=[0.0], upper=[0.0]).optimal


def test_batch_members_that_overflow_fail_as_solve_lp_does():
    """Members whose objective entry overflows, and a family whose shared columns do, fail as alone, in both walks."""
    with np.errstate(over="ignore"):
        for size in (1, 2 * simplex._SCALAR_BELOW):  # the member-by-member walk and the array walk
            b_eq = np.array([[1e10], [1.0]] * size)
            assert_batch_matches_solve_lp(np.array([1e300]), np.array([[1.0]]), b_eq, None, None, None, None)
            assert_batch_matches_solve_lp(np.array([1e300]), np.array([[1.0]]), b_eq, None, None, None, None,
                                          warm=1)
        with np.errstate(invalid="ignore"):
            tableau = np.array([[1e-5, 1e305]])  # shared columns that overflow
            assert_batch_matches_solve_lp(np.array([1.0, 1.0]), tableau, np.ones((6, 1)), None, None, None, None,
                                          warm=2)


def test_batch_members_reach_the_iteration_limit_as_solve_lp_does(monkeypatch):
    """At ``_MAX_ITER`` (patched small) each member raises, part way down a path and in a run of shortcuts."""
    net = six_bus()
    loads = bus_loads(net, np.random.default_rng(4).uniform(*LOAD_RANGE, (12, len(LOAD_BUSES))))
    b_eq, b_ub = grid._dispatch_rhs(net, net.topology(None), loads)
    lp = (net.cost, net._balance, b_eq, net.topology(None).a_ub, b_ub, net.p_min, net.p_max)
    for limit in (1, 2, 5, 9, 20):
        monkeypatch.setattr(simplex, "_MAX_ITER", limit)
        for warm in (0, 3):
            assert_batch_matches_solve_lp(*lp, warm=warm)


def test_a_batch_with_no_members_or_shared_bounds_that_fail():
    assert simplex.solve_batch([1.0], b_ub=np.zeros((0, 1)), a_ub=[[1.0]], paths={}) == []
    with pytest.raises(ValueError, match="lower bounds must be finite"):
        simplex.solve_batch([1.0], a_ub=[[1.0]], b_ub=[[1.0]], lower=[np.nan], paths={})
    with pytest.raises(ValueError, match="one row per member"):
        simplex.solve_batch([1.0], a_ub=[[1.0]], b_ub=[1.0], paths={})
    outcomes = simplex.solve_batch([1.0], a_ub=[[1.0]], b_ub=[[1.0], [np.inf]], lower=[1.0], upper=[0.0], paths={})
    assert outcomes[0] == LPResult("infeasible", None, None)
    assert str(outcomes[1]) == "cost and constraints must be finite"
