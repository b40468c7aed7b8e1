"""Grid engine tests: DC power flow, DC-OPF, and the security oracle."""

import dataclasses
import functools
import json
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskgate import grid as grid_mod
from riskgate.errors import DataError, MalformedFile
from riskgate.grid import (
    _ALWAYS_SCORED_SIN,
    _PARALLEL_TOL,
    CERTIFIED_TOL,
    SECURE_TOL,
    UNDECIDED_TOL,
    Bus,
    Generator,
    GridModel,
    Line,
    _best_vertex_violation,
    assess_security,
    grid_from_dict,
    grid_to_dict,
    load_grid,
    six_bus,
    solve_dc_power_flow,
    solve_dcopf,
)
from riskgate.simplex import LPResult, solve_lp


def two_bus(limit=100.0):
    return GridModel(
        buses=(Bus(1, True), Bus(2)),
        lines=(Line(1, 1, 2, 0.1, limit),),
        generators=(Generator(1, 1, 0.0, 100.0, 1.0),),
    )


def triangle():
    return GridModel(
        buses=(Bus(1, True), Bus(2), Bus(3)),
        lines=(Line(1, 1, 2, 1.0, 500.0), Line(2, 2, 3, 1.0, 500.0), Line(3, 1, 3, 1.0, 500.0)),
        generators=(Generator(1, 1, 0.0, 300.0, 1.0),),
    )


def fresh_six_bus():
    """The packaged network as a new object, whose memos start empty: `six_bus` returns one object per process."""
    return six_bus.__wrapped__()


def six_bus_relaxed():
    """Packaged network with free generators and non-binding line limits."""
    g = six_bus()
    return GridModel(
        buses=g.buses,
        lines=tuple(dataclasses.replace(ln, limit=1e6) for ln in g.lines),
        generators=tuple(dataclasses.replace(gen, p_min=0.0, p_max=1000.0) for gen in g.generators),
        base_mva=g.base_mva,
    )


# -- model validation ---------------------------------------------------------

def test_exactly_one_slack_required():
    with pytest.raises(ValueError):
        GridModel(buses=(Bus(1), Bus(2)), lines=(Line(1, 1, 2, 0.1, 10),), generators=())
    with pytest.raises(ValueError):
        GridModel(buses=(Bus(1, True), Bus(2, True)), lines=(Line(1, 1, 2, 0.1, 10),), generators=())


@pytest.mark.parametrize("kind", ["bus", "line", "generator"])
def test_duplicate_ids_rejected(kind):
    g = six_bus()
    buses, lines, generators = g.buses, g.lines, g.generators
    if kind == "bus":
        buses += (dataclasses.replace(buses[-1], id=buses[0].id),)
    elif kind == "line":  # a second line 3 in parallel with line 4
        lines += (dataclasses.replace(lines[3], id=lines[2].id),)
    else:
        generators += (dataclasses.replace(generators[0], id=generators[1].id),)
    with pytest.raises(ValueError, match=f"duplicate {kind} ids"):
        GridModel(buses, lines, generators, g.base_mva)


def test_disconnected_graph_rejected():
    with pytest.raises(ValueError):
        GridModel(
            buses=(Bus(1, True), Bus(2), Bus(3)),
            lines=(Line(1, 1, 2, 0.1, 10),),
            generators=(),
        )


@pytest.mark.parametrize("reactance,limit", [(-0.1, 10.0), (0.0, 10.0), (0.1, 0.0), (0.1, -5.0)])
def test_bad_line_parameters_rejected(reactance, limit):
    with pytest.raises(ValueError):
        GridModel(
            buses=(Bus(1, True), Bus(2)),
            lines=(Line(1, 1, 2, reactance, limit),),
            generators=(),
        )


@pytest.mark.parametrize("limit, cost, message", [
    (1e-3, -1e6, None),
    (1e6, 1e6, None),
    (np.nextafter(1e-3, 0.0), 1.0, "line 1: flow limit must lie in [0.001, 1e+06] MW, got 0.0009999999999999998"),
    (np.nextafter(1e6, np.inf), 1.0, "line 1: flow limit must lie in [0.001, 1e+06] MW, got 1000000.0000000001"),
    (100.0, np.nextafter(1e6, np.inf), "generator 1: cost must lie in [-1e+06, 1e+06] $/MWh, got 1000000.0000000001"),
    (100.0, -1e308, "generator 1: cost must lie in [-1e+06, 1e+06] $/MWh, got -1e+308"),
    (100.0, float("nan"), "generator 1: cost must lie in [-1e+06, 1e+06] $/MWh, got nan"),
])
def test_line_limits_and_generator_costs_have_a_range(limit, cost, message):
    make = lambda: GridModel(buses=(Bus(1, True), Bus(2)), lines=(Line(1, 1, 2, 0.1, float(limit)),),  # noqa: E731
                             generators=(Generator(1, 1, 0.0, 100.0, float(cost)),))
    if message is None:
        make()
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()


def test_a_negative_cost_unit_is_dispatched_first():
    g = GridModel(buses=(Bus(1, True),), lines=(),
                  generators=(Generator(1, 1, 0.0, 60.0, 1.0), Generator(2, 1, 0.0, 60.0, -5.0)))
    [res] = solve_dcopf(g, [[50.0]])
    assert res.x.tolist() == [0.0, 50.0] and res.objective == -250.0


def test_unknown_outage_rejected():
    with pytest.raises(ValueError):
        six_bus().topology(99)
    with pytest.raises(ValueError):
        post_outage_flow(six_bus(), np.zeros(6), 99)


def test_outage_arrays_are_derived_once_on_first_use(monkeypatch):
    derived = []
    derive = GridModel._derive_topology
    monkeypatch.setattr(GridModel, "_derive_topology", lambda self, out: derived.append(out) or derive(self, out))
    g = fresh_six_bus()
    assert derived == [None]  # the intact network, so that a disconnected one is refused on construction
    g.check_line(3)
    with pytest.raises(ValueError, match="^unknown line id 99$"):
        g.check_line(99)
    assert derived == [None]
    assert g.topology(3) is g.topology(3) and g.topology() is g.topology(None)
    assert derived == [None, 3]


def test_the_packaged_network_is_one_object_per_process():
    assert six_bus() is six_bus() and fresh_six_bus() is not six_bus()


def test_derived_arrays_do_not_change_identity():
    a, b = six_bus(), fresh_six_bus()
    assert a == b and hash(a) == hash(b)
    assert [f.name for f in dataclasses.fields(GridModel)] == ["buses", "lines", "generators", "base_mva"]
    assert dataclasses.replace(a, base_mva=50.0) != a


def test_derived_arrays_reject_writes():
    g = six_bus()
    arrays = [g.incidence, g.p_min, g.p_max, g.cost, g.line_limits]
    for outage in [None] + [ln.id for ln in g.lines]:
        top = g.topology(outage)
        arrays += [top.live, top.b_inv, top.ptdf, top.a_ub]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    assert g.line_limits.tolist() == [ln.limit for ln in g.lines]


# -- derived arrays against the per-line construction they replace -----------
#
# The functions below are the former per-call construction, kept verbatim
# (less their module-level memoisation) as the reference for the arrays
# that `GridModel` now derives once.

def _bus_positions(grid):
    return {b.id: i for i, b in enumerate(grid.buses)}


def _connected(grid, outaged_line):
    adj = {b.id: [] for b in grid.buses}
    for ln in grid.lines:
        if outaged_line is not None and ln.id == outaged_line:
            continue
        adj[ln.from_bus].append(ln.to_bus)
        adj[ln.to_bus].append(ln.from_bus)
    start = grid.buses[0].id
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(grid.buses)


def _reduced_susceptance_inverse(grid, outaged_line):
    n = grid.n_buses
    pos = _bus_positions(grid)
    b_full = np.zeros((n, n))
    for ln in grid.lines:
        if outaged_line is not None and ln.id == outaged_line:
            continue
        i, j = pos[ln.from_bus], pos[ln.to_bus]
        y = 1.0 / ln.reactance
        b_full[i, i] += y
        b_full[j, j] += y
        b_full[i, j] -= y
        b_full[j, i] -= y
    keep = [i for i in range(n) if i != grid.slack_index]
    reduced = b_full[np.ix_(keep, keep)]
    return np.linalg.inv(reduced)


def _ptdf(grid, outaged_line):
    n = grid.n_buses
    pos = _bus_positions(grid)
    keep = [i for i in range(n) if i != grid.slack_index]
    theta = np.zeros((n, n))
    theta[np.ix_(keep, keep)] = _reduced_susceptance_inverse(grid, outaged_line)
    ptdf = np.zeros((len(grid.lines), n))
    for k, ln in enumerate(grid.lines):
        if outaged_line is not None and ln.id == outaged_line:
            continue
        i, j = pos[ln.from_bus], pos[ln.to_bus]
        ptdf[k] = (theta[i] - theta[j]) / ln.reactance
    return ptdf


def _generator_incidence(grid):
    inc = np.zeros((grid.n_buses, len(grid.generators)))
    pos = _bus_positions(grid)
    for j, g in enumerate(grid.generators):
        inc[pos[g.bus], j] = 1.0
    return inc


def _power_flow(grid, inj, outaged_line):
    keep = [i for i in range(grid.n_buses) if i != grid.slack_index]
    angles = np.zeros(grid.n_buses)
    angles[keep] = _reduced_susceptance_inverse(grid, outaged_line) @ (inj[keep] / grid.base_mva)
    pos = _bus_positions(grid)
    flows = np.zeros(len(grid.lines))
    for k, ln in enumerate(grid.lines):
        if outaged_line is not None and ln.id == outaged_line:
            continue
        flows[k] = grid.base_mva * (angles[pos[ln.from_bus]] - angles[pos[ln.to_bus]]) / ln.reactance
    return angles, flows


def post_outage_flow(grid, inj, outage):
    """Bus angles and line flows (MW) with line ``outage`` out, from its `Topology` (``b_inv``, ``live``)."""
    top = grid.topology(outage)
    inj = np.asarray(inj, dtype=float)
    angles = np.zeros(grid.n_buses)
    angles[grid._keep] = top.b_inv @ (inj[grid._keep] / grid.base_mva)
    flows = np.zeros(len(grid.lines))
    live = top.live
    flows[live] = grid.base_mva * (angles[grid._from[live]] - angles[grid._to[live]]) / grid._x[live]
    return angles, flows


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_against_reference(grid, inj):
    """Every outage's derived arrays and power flow equal the reference bit for bit."""
    inc = _generator_incidence(grid)
    assert same_bits(grid.incidence, inc)
    for outage in [None] + [ln.id for ln in grid.lines]:
        top = grid.topology(outage)
        assert top.islanded == (not _connected(grid, outage))
        if top.islanded:
            continue
        ptdf = _ptdf(grid, outage)
        assert same_bits(top.b_inv, _reduced_susceptance_inverse(grid, outage))
        assert same_bits(top.ptdf, ptdf)
        assert same_bits(top.a_ub, np.vstack([ptdf @ inc, -(ptdf @ inc)]))
        angles, flows = solve_dc_power_flow(grid, inj) if outage is None else post_outage_flow(grid, inj, outage)
        ref_angles, ref_flows = _power_flow(grid, inj, outage)
        assert same_bits(angles, ref_angles)
        assert same_bits(flows, ref_flows)


@st.composite
def connected_grids(draw):
    """Random connected grid: a random spanning tree plus extra (parallel) lines."""
    n = draw(st.integers(1, 7))
    ids = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n, unique=True))
    slack = draw(st.integers(0, n - 1))
    edges = []
    for k in range(1, n):
        edge = (ids[draw(st.integers(0, k - 1))], ids[k])  # tree edges island when out
        edges.append(edge if draw(st.booleans()) else edge[::-1])
    if n > 1:
        pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda e: e[0] != e[1])
        edges += draw(st.lists(pairs, max_size=5))
    edges = draw(st.permutations(edges))
    line_ids = draw(st.lists(st.integers(1, 99), min_size=len(edges), max_size=len(edges), unique=True))
    reactance = st.floats(0.005, 3.0, allow_nan=False, allow_infinity=False)
    gen_buses = draw(st.lists(st.sampled_from(ids), max_size=3))
    grid = GridModel(
        buses=tuple(Bus(b, k == slack) for k, b in enumerate(ids)),
        lines=tuple(Line(i, f, t, draw(reactance), 100.0) for i, (f, t) in zip(line_ids, edges)),
        generators=tuple(Generator(j + 1, b, 0.0, 100.0, 1.0) for j, b in enumerate(gen_buses)),
        base_mva=draw(st.sampled_from([100.0, 50.0, 1.0])),
    )
    inj = np.array(draw(st.lists(st.floats(-200.0, 200.0), min_size=n, max_size=n)))
    inj[slack] -= inj.sum()
    return grid, inj


def test_six_bus_arrays_match_reference():
    inj = np.array([30.0, 10.0, 20.0, -15.0, -25.0, -20.0])
    check_against_reference(six_bus(), inj)


@pytest.mark.reference
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(connected_grids())
def test_derived_arrays_match_reference(case):
    check_against_reference(*case)


# -- DC power flow ------------------------------------------------------------

def test_single_line_carries_all_power():
    angles, flows = solve_dc_power_flow(two_bus(), [50.0, -50.0])
    assert flows[0] == pytest.approx(50.0, abs=1e-9)
    assert angles[0] == 0.0


def test_zero_injection_zero_state():
    angles, flows = solve_dc_power_flow(six_bus(), np.zeros(6))
    assert np.all(angles == 0.0)
    assert np.all(flows == 0.0)


def test_triangle_split_matches_hand_solution():
    # Equal reactances, +90 at bus 1, -90 at bus 3: direct line carries 60,
    # the two-hop path 30 per leg (solved by hand from the 2x2 reduced system).
    _, flows = solve_dc_power_flow(triangle(), [90.0, 0.0, -90.0])
    assert flows[0] == pytest.approx(30.0, abs=1e-9)  # 1-2
    assert flows[1] == pytest.approx(30.0, abs=1e-9)  # 2-3
    assert flows[2] == pytest.approx(60.0, abs=1e-9)  # 1-3


def test_flow_conservation_property():
    g = six_bus()
    rng = np.random.default_rng(3)
    for _ in range(25):
        inj = rng.normal(0, 40, 6)
        inj[0] -= inj.sum()
        _, flows = solve_dc_power_flow(g, inj)
        for b, bus in enumerate(g.buses):
            net = inj[b]
            for k, ln in enumerate(g.lines):
                if ln.from_bus == bus.id:
                    net -= flows[k]
                if ln.to_bus == bus.id:
                    net += flows[k]
            assert abs(net) < 1e-6


def test_unbalanced_injection_rejected():
    with pytest.raises(ValueError):
        solve_dc_power_flow(two_bus(), [50.0, -49.0])


def test_islanding_outage_is_marked():
    assert two_bus().topology(1).islanded


def test_power_flow_deterministic():
    g = six_bus()
    inj = np.array([30.0, 10.0, 20.0, -15.0, -25.0, -20.0])
    a = solve_dc_power_flow(g, inj)
    b = solve_dc_power_flow(g, inj)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))  # angles, then flows


# -- DC-OPF ---------------------------------------------------------------

def test_zero_load_zero_cost():
    [sol] = solve_dcopf(six_bus_relaxed(), np.zeros((1, 6)))
    assert sol.optimal
    assert sol.x == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_single_bus_two_generator_dispatch():
    # load 100, caps 60/60, costs 1/2: cheap unit at its cap, dispatch (60, 40)
    g = GridModel(
        buses=(Bus(1, True),),
        lines=(),
        generators=(Generator(1, 1, 0.0, 60.0, 1.0), Generator(2, 1, 0.0, 60.0, 2.0)),
    )
    [sol] = solve_dcopf(g, [[100.0]])
    assert sol.optimal
    assert sol.x == pytest.approx([60.0, 40.0], abs=1e-8)
    assert sol.objective == pytest.approx(140.0, abs=1e-7)


def test_merit_order_when_nothing_binds():
    # 150 MW fits entirely on the cheapest (coefficient-8) generator.
    g = six_bus_relaxed()
    loads = np.zeros(6)
    loads[3:] = 50.0
    [sol] = solve_dcopf(g, loads[None])
    assert sol.optimal
    assert sol.x == pytest.approx([0.0, 0.0, 150.0], abs=1e-7)
    assert sol.objective == pytest.approx(8.0 * 150.0, abs=1e-6)


def test_dispatch_balances_load():
    g = six_bus()
    loads = np.zeros(6)
    loads[3:] = [90.0, 80.0, 100.0]
    [sol] = solve_dcopf(g, loads[None])
    assert sol.optimal
    assert abs(sol.x.sum() - loads.sum()) < 1e-6
    lo = [gen.p_min for gen in g.generators]
    hi = [gen.p_max for gen in g.generators]
    assert np.all(sol.x >= np.array(lo) - 1e-9)
    assert np.all(sol.x <= np.array(hi) + 1e-9)


def test_dispatch_respects_line_limits():
    g = six_bus()
    loads = np.zeros(6)
    loads[3:] = [100.0, 90.0, 95.0]
    [sol] = solve_dcopf(g, loads[None])
    assert sol.optimal
    inj = np.zeros(6)
    for out, gen in zip(sol.x, g.generators):
        inj[g.bus_position(gen.bus)] += out
    inj -= loads
    _, flows = solve_dc_power_flow(g, inj)
    assert np.all(np.abs(flows) <= g.line_limits + 1e-6)


def test_infeasible_load_returns_flag():
    [sol] = solve_dcopf(six_bus(), np.array([[0, 0, 0, 150.0, 150.0, 150.0]]))
    assert isinstance(sol, LPResult)
    assert not sol.optimal
    assert sol.x is None and sol.objective is None


def test_nan_load_rejected_before_the_lp():
    with pytest.raises(ValueError, match="loads row 0 must be nonnegative"):
        solve_dcopf(six_bus(), np.array([[0, 0, 0, 120.0, np.nan, 70.0]]))


@pytest.mark.parametrize("loads, message", [
    ([0, 0, 0, 120.0, 95.0, 70.0], r"^loads must have shape \(m, 6\)$"),
    ([0, 0, 0, 120.0, np.inf, 70.0], r"^loads must have shape \(m, 6\)$"),
    ([[0, 0, 0, 1.0, 2.0, 3.0], [0, 0, 0, 1.0, np.inf, 3.0], [0, 0, 0, -1.0, 2.0, 3.0]],
     "^loads row 1 must be finite$"),
    ([[0, 0, 0, 1.0, 2.0, 3.0], [0, 0, 0, -np.inf, 2.0, 3.0], [0, 0, 0, 1.0, np.inf, 3.0]],
     "^loads row 1 must be nonnegative$"),
    ([[0, 0, 0, 1.0, 2.0, 3.0], [0, 0, np.nan, 1.0, 2.0, 3.0]], "^loads row 1 must be nonnegative$"),
    ([[0, 0, 0, 1.0, 2.0, 3.0, 4.0]], r"^loads must have shape \(m, 6\)$"),
    (np.zeros((2, 2, 6)), r"^loads must have shape \(m, 6\)$"),
])
def test_dcopf_checks_every_row_before_any_lp(monkeypatch, loads, message):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was posed")

    monkeypatch.setattr(grid_mod, "solve_lp", no_lp)
    monkeypatch.setattr(grid_mod, "solve_batch", no_lp)
    with pytest.raises(ValueError, match=message):
        solve_dcopf(six_bus(), np.array(loads, dtype=float))


def test_dcopf_of_a_batch_gives_each_failing_rows_error_in_its_place():
    """A row whose cost overflows fails as it would alone, and the rows around it solve."""
    g = GridModel(buses=(Bus(1, True),), lines=(), generators=(Generator(1, 1, 0.0, 1e306, 1e6),))
    assert solve_dcopf(g, [[1.0]])[0].objective == 1e6
    first, failed, last = solve_dcopf(g, [[1.0], [5e302], [2.0]])
    assert first.objective == 1e6 and last.objective == 2e6
    assert type(failed) is ValueError and str(failed).startswith("simplex tableau overflowed")


def test_dcopf_of_no_rows_is_no_results():
    assert solve_dcopf(six_bus(), np.zeros((0, 6))) == []


@st.composite
def dispatch_batches(draw):
    """A network and 1-60 rows of loads, some with no feasible dispatch.

    Either the packaged network with loads from the sampling range, or a
    random one with 1-4 generators of random costs, whose rows share out
    totals from below the units' minimum to above their maximum.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 60))
    if draw(st.booleans()):
        from riskgate.scenario_gen import LOAD_RANGE, bus_loads

        grid = six_bus()
        return grid, bus_loads(grid, rng.uniform(*LOAD_RANGE, (m, 3)))
    grid, _ = draw(connected_grids())
    bus_ids = [b.id for b in grid.buses]
    gens = []
    for j in range(draw(st.integers(1, 4))):
        p_min = draw(st.sampled_from([0.0, 10.0, 45.0]))
        p_max = p_min + draw(st.sampled_from([0.0, 30.0, 200.0]))
        cost = draw(st.sampled_from([1.0, 2.0, 8.0]))
        gens.append(Generator(j + 1, draw(st.sampled_from(bus_ids)), p_min, p_max, cost))
    grid = dataclasses.replace(grid, generators=tuple(gens))
    totals = rng.uniform(0.9 * grid.p_min.sum(), 1.1 * grid.p_max.sum() + 1.0, m)
    shares = rng.uniform(0.0, 1.0, (m, grid.n_buses)) ** 3 + 1e-3
    return grid, totals[:, None] * shares / shares.sum(axis=1)[:, None]


@pytest.mark.reference
@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(dispatch_batches())
def test_dcopf_of_a_batch_matches_row_by_row_calls_bit_for_bit(case):
    grid, loads = case
    batch = solve_dcopf(grid, loads)
    top, paths = grid.topology(None), {}  # the reference's memo starts empty
    b_eq, b_ub = grid_mod._dispatch_rhs(grid, top, loads)
    for res, row_eq, row_ub in zip(batch, b_eq, b_ub, strict=True):
        try:
            ref = solve_lp(grid.cost, grid._balance, row_eq, top.a_ub, row_ub, grid.p_min, grid.p_max, paths=paths)
        except (ValueError, RuntimeError, DataError) as exc:
            assert type(res) is type(exc) and str(res) == str(exc)
            continue
        assert res.status == ref.status and (res.x is None) == (ref.x is None)
        if ref.optimal:
            assert res.x.tobytes() == ref.x.tobytes() and res.objective == ref.objective


# -- security assessment ------------------------------------------------------

def test_secure_without_redispatch():
    g = triangle()
    # 30 MW transfer: every post-outage flow stays far below the 500 limits.
    assert assess_security(g, [0.0, 0.0, 30.0], [30.0], 1, 0.0) == 1


def assess(grid, loads3, contingency, corrective=20.0):
    loads = np.zeros(6)
    loads[3:] = loads3
    [d] = solve_dcopf(grid, loads[None])
    assert d.optimal
    return assess_security(grid, loads, d.x, contingency, corrective)


def test_islanding_contingency_is_insecure_not_error():
    g = GridModel(
        buses=(Bus(1, True), Bus(2), Bus(3)),
        lines=(Line(1, 1, 2, 0.1, 200.0), Line(2, 2, 3, 0.1, 200.0)),
        generators=(Generator(1, 1, 0.0, 100.0, 1.0),),
    )
    # Losing line 2 strands the load at bus 3.
    assert assess_security(g, [0.0, 0.0, 40.0], [40.0], 2) == 0


def test_redispatch_rescues_overload():
    # Losing 1-2 leaves a star into bus 3: each surviving line carries its
    # own generator's output, and a 15 MW shift removes the overload.
    g = GridModel(
        buses=(Bus(1, True), Bus(2), Bus(3)),
        lines=(Line(1, 1, 2, 0.1, 100.0), Line(2, 2, 3, 0.1, 60.0), Line(3, 1, 3, 0.1, 55.0)),
        generators=(Generator(1, 1, 0.0, 100.0, 1.0), Generator(2, 2, 0.0, 100.0, 2.0)),
    )
    loads = np.array([0.0, 0.0, 100.0])
    dispatch = np.array([60.0, 40.0])  # line 1-2 out: 1-3 carries 60 > 55
    assert assess_security(g, loads, dispatch, 1, 0.0) == 0
    label = assess_security(g, loads, dispatch, 1, 20.0)
    # Oracle: exhaustive 1 MW-grid search over redispatch within +-20.
    found = False
    for d1 in range(40, 81):
        d2 = 100 - d1
        if not (20 <= d2 <= 60):
            continue
        _, flows = post_outage_flow(g, np.array([d1, d2, -100.0]), 1)
        if np.all(np.abs(flows) <= g.line_limits + 1e-9):
            found = True
            break
    assert label == int(found) == 1


def test_monotone_in_corrective_range():
    g = six_bus()
    rng = np.random.default_rng(5)
    from test_scenario_gen import sample_loads

    triples = sample_loads(25, seed=9)
    for triple in triples:
        loads = np.zeros(6)
        loads[3:] = triple
        [d] = solve_dcopf(g, loads[None])
        if not d.optimal:
            continue
        for c in (3, 5, 6):
            labels = [assess_security(g, loads, d.x, c, r) for r in (0.0, 10.0, 20.0, 40.0)]
            # once secure, always secure as the range grows
            assert labels == sorted(labels)


def test_assessment_deterministic():
    g = six_bus()
    loads = np.zeros(6)
    loads[3:] = [120.0, 95.0, 70.0]
    [d] = solve_dcopf(g, loads[None])
    assert d.optimal
    labels = {assess_security(g, loads, d.x, c, 20.0) for _ in range(3) for c in (5,)}
    assert len(labels) == 1


@pytest.mark.parametrize("corrective", [-1.0, float("nan")])
def test_negative_or_nan_corrective_range_rejected(corrective):
    g = six_bus()
    loads = np.zeros(6)
    loads[3:] = [120.0, 95.0, 70.0]
    [d] = solve_dcopf(g, loads[None])
    with pytest.raises(ValueError, match="corrective_range must be >= 0"):
        assess_security(g, loads, d.x, 5, corrective)
    with pytest.raises(ValueError, match="corrective_range must be >= 0"):
        assess_security(g, loads[None], d.x[None], 5, corrective)


@pytest.mark.parametrize("batched", [False, True], ids=["one-condition", "batch"])
@pytest.mark.parametrize("name", ["loads", "dispatch"])
def test_nan_condition_rejected(name, batched):
    g = six_bus()
    loads = np.zeros(6)
    loads[3:] = [120.0, 95.0, 70.0]
    condition = {"loads": loads, "dispatch": solve_dcopf(g, loads[None])[0].x.copy()}
    condition[name][-1] = np.nan
    if batched:
        condition = {k: v[None] for k, v in condition.items()}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        assess_security(g, condition["loads"], condition["dispatch"], 5)


@pytest.mark.parametrize("batched", [False, True], ids=["one-condition", "batch"])
@pytest.mark.parametrize("name, width", [("dispatch", 2), ("dispatch", 4), ("loads", 5), ("loads", 7)])
def test_condition_of_the_wrong_width_rejected(name, width, batched):
    """A dispatch not one entry per generator, or loads not one per bus, is refused with both shapes."""
    g = six_bus()
    loads = np.zeros(6)
    loads[3:] = [120.0, 95.0, 70.0]
    condition = {"loads": loads, "dispatch": solve_dcopf(g, loads[None])[0].x}
    condition[name] = np.resize(condition[name], width)
    if batched:
        condition = {k: v[None] for k, v in condition.items()}
    message = (f"loads of shape {condition['loads'].shape} and dispatch of shape {condition['dispatch'].shape} "
               "do not fit a network of 6 buses and 3 generators")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        assess_security(g, condition["loads"], condition["dispatch"], 5)


@st.composite
def condition_batches(draw, generator_counts=(3, 3, 3, 0, 1, 2, 4)):
    """A random grid with 0-4 generators, balanced conditions on it, and a corrective range.

    Generation is uniform within each unit's limits; the loads share out
    its total across the buses.
    """
    grid, _ = draw(connected_grids())
    bus_ids = [b.id for b in grid.buses]
    gens = []
    for j in range(draw(st.sampled_from(generator_counts))):
        p_min = draw(st.sampled_from([0.0, 10.0, 45.0]))
        gens.append(Generator(j + 1, draw(st.sampled_from(bus_ids)), p_min,
                              p_min + draw(st.sampled_from([0.0, 30.0, 200.0])), 1.0))
    grid = dataclasses.replace(grid, generators=tuple(gens))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 8))
    dispatch = rng.uniform(grid.p_min, grid.p_max, (m, len(gens)))
    shares = rng.uniform(0.0, 1.0, (m, grid.n_buses)) ** 3 + 1e-3
    loads = dispatch.sum(axis=1)[:, None] * shares / shares.sum(axis=1)[:, None]
    corrective = draw(st.sampled_from([0.0, 0.0, 5.0, 20.0, 60.0, 200.0]))
    return grid, loads, dispatch, corrective


def scaled_onto_boundary(grid, loads, dispatch, contingency, corrective):
    """The insecure condition scaled by the two closest factors in [0, 1] that the LP labels apart.

    At factor 0 no line carries flow, so the condition is secure; 45
    halvings of the interval put the pair within 3e-14 of the boundary.
    """
    label = lambda t: assess_security(grid, t * loads, t * dispatch, contingency, corrective)  # noqa: E731
    secure, insecure = 0.0, 1.0
    for _ in range(45):
        mid = 0.5 * (secure + insecure)
        secure, insecure = (mid, insecure) if label(mid) else (secure, mid)
    return np.array([secure * loads, insecure * loads]), np.array([secure * dispatch, insecure * dispatch])


# This property and the certificate's below run tier-1's budget, or more under
# ``--hypothesis-profile reference`` (tests/conftest.py).
@pytest.mark.reference
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(condition_batches(), st.data())
def test_batched_labels_equal_single_condition_labels(case, data):
    grid, loads, dispatch, corrective = case
    outages = [ln.id for ln in grid.lines]
    for c in outages:
        singles = [assess_security(grid, loads[k], dispatch[k], c, corrective) for k in range(len(loads))]
        assert all(type(label) is int for label in singles)
        batch = assess_security(grid, loads, dispatch, c, corrective)
        assert batch.shape == (len(loads),)
        assert batch.tolist() == singles
        if grid.topology(c).islanded:
            assert singles == [0] * len(loads)

    # one insecure condition on the boundary, for a drawn outage that leaves the network whole
    c = data.draw(st.sampled_from(outages)) if outages else None
    if c is None or grid.topology(c).islanded:
        return
    insecure = [k for k in range(len(loads)) if not assess_security(grid, loads[k], dispatch[k], c, corrective)]
    if insecure:
        pair_loads, pair_dispatch = scaled_onto_boundary(grid, loads[insecure[0]], dispatch[insecure[0]], c,
                                                         corrective)
        assert assess_security(grid, np.vstack([loads, pair_loads]), np.vstack([dispatch, pair_dispatch]), c,
                               corrective).tolist()[-2:] == [1, 0]


def test_batched_label_matches_single_label_on_the_secure_tol_boundary():
    # A falsifying example of the property above: summed by BLAS, the boundary pair's
    # insecure condition overloaded a line by just over SECURE_TOL alone (gemv) and by
    # just under it in the batch (gemm), so the batch labelled it secure.
    line = lambda k, a, b, x=1.0: Line(k, a, b, x, 100.0)  # noqa: E731
    g = GridModel(
        buses=(Bus(1, True),) + tuple(Bus(k) for k in range(2, 8)),
        lines=(line(1, 2, 1), line(2, 1, 2), line(3, 4, 1), line(4, 5, 1), line(5, 6, 2), line(6, 7, 3),
               line(7, 2, 3, 1.5109469864802432), line(8, 1, 2), line(9, 1, 2), line(10, 1, 2),
               line(11, 3, 2, 2.728715766918797)),
        generators=(Generator(1, 3, 0.0, 200.0, 1.0), Generator(2, 1, 10.0, 10.0, 1.0),
                    Generator(3, 1, 45.0, 75.0, 1.0)),
    )
    loads = np.array([
        [39.71994978991004, 71.60564853227783, 1.6217229714844341, 64.01838901060958, 38.1981567063995,
         1.2431317145791243, 4.420146047351686],
        [0.8440063083822099, 5.542419190449711, 1.0788814737005774, 2.233653850688351, 40.100409359301786,
         70.0774322491302, 106.9324790448818],
        [26.28850012698695, 0.3668036111824728, 68.68673929751928, 8.815180203411936, 42.21055760315709,
         22.236271045427323, 2.4412259355067696]])
    dispatch = np.array([[163.7002896314866, 10.0, 47.12685514112557],
                         [158.74901954264112, 10.0, 58.06026193389352],
                         [101.92888975990537, 10.0, 59.11638806328645]])
    pair_loads, pair_dispatch = scaled_onto_boundary(g, loads[0], dispatch[0], 1, 0.0)
    assert [assess_security(g, pair_loads[k], pair_dispatch[k], 1, 0.0) for k in (0, 1)] == [1, 0]
    labels = assess_security(g, np.vstack([loads, pair_loads]), np.vstack([dispatch, pair_dispatch]), 1, 0.0)
    assert labels.tolist()[-2:] == [1, 0]


def test_batched_label_matches_single_label_where_the_lp_stops_short_of_secure_tol():
    # A falsifying example of the property above: the LP found the boundary pair's insecure
    # condition infeasible (its phase 1 stopped above FEAS_TOL), while its best vertex violated
    # a row by only 5.2e-10 MW, under SECURE_TOL, so the certificate labelled it secure.
    line = lambda k, a, b, x=1.0: Line(k, a, b, x, 100.0)  # noqa: E731
    g = GridModel(
        buses=tuple(Bus(k, k == 6) for k in range(1, 8)),
        lines=(line(1, 2, 1), line(2, 3, 1), line(3, 4, 1), line(4, 5, 1), line(5, 7, 1), line(6, 1, 2),
               line(7, 1, 6, 0.0078125), line(8, 6, 3, 0.5), line(9, 1, 3)),
        generators=(Generator(1, 1, 0.0, 0.0, 1.0), Generator(2, 1, 0.0, 30.0, 1.0),
                    Generator(3, 3, 0.0, 200.0, 1.0)),
    )
    loads = np.array([0.1645583986270685, 61.75059736005733, 1.017876487693231, 102.1288347685499,
                      25.327972242600325, 4.427128209966994, 12.132255172505202])
    dispatch = np.array([0.0, 24.39810718, 182.55111546])
    pair_loads, pair_dispatch = scaled_onto_boundary(g, loads, dispatch, 2, 5.0)
    assert [assess_security(g, pair_loads[k], pair_dispatch[k], 2, 5.0) for k in (0, 1)] == [1, 0]
    top = g.topology(2)
    lo = np.maximum(g.p_min, pair_dispatch - 5.0)
    hi = np.minimum(g.p_max, pair_dispatch + 5.0)
    assert np.all(_best_vertex_violation(g, top, pair_loads, lo, hi) < SECURE_TOL)
    assert assess_security(g, pair_loads, pair_dispatch, 2, 5.0).tolist() == [1, 0]


def test_without_three_generators_the_lp_decides_at_feas_tol(monkeypatch):
    """Two generators: no certificate, so every condition the fast paths leave goes to the LP in both forms.

    With line 3 out, line 2 carries the whole load at bus 3 and no redispatch
    moves it; a load over line 2's limit by at most FEAS_TOL (1e-7) is secure.
    """
    g = GridModel(
        buses=(Bus(1, True), Bus(2), Bus(3)),
        lines=(Line(1, 1, 2, 1.0, 500.0), Line(2, 2, 3, 1.0, 100.0), Line(3, 1, 3, 1.0, 500.0)),
        generators=(Generator(1, 1, 0.0, 300.0, 1.0), Generator(2, 2, 0.0, 300.0, 1.0)),
    )
    loads = np.zeros((3, 3))
    loads[:, 2] = 100.0 + np.array([5e-8, 1.1e-7, 5e-7])
    dispatch = np.column_stack([loads[:, 2] / 2, loads[:, 2] / 2])
    solved = []
    solve_lp = grid_mod.solve_lp
    monkeypatch.setattr(grid_mod, "solve_lp", lambda *args, **kwargs: solved.append(1) or solve_lp(*args, **kwargs))
    assert [assess_security(g, loads[k], dispatch[k], 3) for k in range(3)] == [1, 0, 0]
    assert assess_security(g, loads, dispatch, 3).tolist() == [1, 0, 0]
    assert len(solved) == 6


_CHUNK_FLOATS = 1 << 15  # the reference's chunk size


def reference_best_vertex_violation(grid, top, loads, lo, hi) -> np.ndarray:
    """The certificate as it scored every vertex on every row: exact everywhere."""
    rows = np.vstack([top.a_ub, np.eye(3), -np.eye(3)])
    plane = rows[:, :2] - rows[:, 2:]  # x3 = total - x1 - x2
    i, j = np.triu_indices(len(plane), 1)
    det = plane[i, 0] * plane[j, 1] - plane[i, 1] * plane[j, 0]
    norms = np.hypot(plane[:, 0], plane[:, 1])
    keep = np.abs(det) > _PARALLEL_TOL * norms[i] * norms[j]
    i, j, det = i[keep], j[keep], det[keep]
    inverse = np.array([[plane[j, 1], -plane[i, 1]], [-plane[j, 0], plane[i, 0]]]) / det  # (2, 2, pairs)

    base_flow = grid_mod._fixed_order_product(loads, -top.ptdf)  # the certificate's own per-row product
    limits = grid.line_limits
    rhs = np.hstack([limits - base_flow, limits + base_flow, hi, -lo]) - loads.sum(axis=1)[:, None] * rows[:, 2]
    best = np.empty(len(loads))
    step = max(1, _CHUNK_FLOATS // (len(i) * len(plane)))
    for s in range(0, len(loads), step):
        r = rhs[s:s + step]
        vertices = np.stack([inverse[a, 0] * r[:, i] + inverse[a, 1] * r[:, j] for a in (0, 1)], axis=-1)
        violation = vertices @ plane.T
        violation -= r[:, None, :]
        best[s:s + step] = violation.max(axis=2).min(axis=1)
    return best


def assert_certificate_matches_reference(grid, loads, dispatch, contingency, corrective):
    """Bit for bit where the reference is at most UNDECIDED_TOL, above UNDECIDED_TOL elsewhere.

    Returns how many conditions the reference puts at or under UNDECIDED_TOL.
    """
    top = grid.topology(contingency)
    lo = np.maximum(grid.p_min, dispatch - corrective)
    hi = np.minimum(grid.p_max, dispatch + corrective)
    box = np.all(lo <= hi, axis=1)  # assess_security certifies only these
    best, reference = certificates(grid, top, loads[box], lo[box], hi[box])
    return int((reference <= UNDECIDED_TOL).sum())


def certificates(grid, top, loads, lo, hi):
    """The certificate and its reference, held to `assert_certificate_matches_reference`'s contract."""
    reference = reference_best_vertex_violation(grid, top, loads, lo, hi)
    best = _best_vertex_violation(grid, top, loads, lo, hi)
    decided = reference <= UNDECIDED_TOL
    assert best[decided].tobytes() == reference[decided].tobytes()
    assert np.all(best[~decided] > UNDECIDED_TOL)
    return best, reference


@pytest.mark.reference
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(condition_batches(generator_counts=(3,)), st.sampled_from([1, 40, 70, 1 << 13]), st.data())
def test_certificate_matches_scoring_every_vertex(case, chunk_floats, data):
    grid, loads, dispatch, corrective = case
    outages = [None] + [ln.id for ln in grid.lines if not grid.topology(ln.id).islanded]
    c = data.draw(st.sampled_from(outages))
    insecure = [k for k in range(len(loads)) if not assess_security(grid, loads[k], dispatch[k], c, corrective)]
    if insecure:  # add the pair on either side of one condition's boundary
        pair_loads, pair_dispatch = scaled_onto_boundary(grid, loads[insecure[0]], dispatch[insecure[0]], c,
                                                         corrective)
        loads, dispatch = np.vstack([loads, pair_loads]), np.vstack([dispatch, pair_dispatch])
    # 1: a chunk per vertex; 70: inside vertices scored 70 // rows at a time
    with mock.patch.object(grid_mod, "_CHUNK_FLOATS", chunk_floats):
        assert_certificate_matches_reference(grid, loads, dispatch, c, corrective)


@functools.cache
def six_bus_pool():
    """The packaged network and at least 200 dispatched conditions from 240 load draws, read-only."""
    from test_scenario_gen import sample_loads

    g = six_bus()
    loads = np.zeros((240, 6))
    loads[:, 3:] = sample_loads(240, seed=13)
    dispatch = solve_dcopf(g, loads)
    feasible = [k for k, d in enumerate(dispatch) if d.optimal]
    loads, dispatch = loads[feasible], np.array([dispatch[k].x for k in feasible])
    assert len(loads) >= 200
    return g, grid_mod._read_only(loads), grid_mod._read_only(dispatch)


@pytest.mark.reference
def test_certificate_matches_scoring_every_vertex_on_a_six_bus_pool():
    # about 300 vertex pairs per outage, of which the certificate builds a few percent per condition
    g, loads, dispatch = six_bus_pool()
    decided = [assert_certificate_matches_reference(g, loads, dispatch, ln.id, corrective)
               for ln in g.lines for corrective in (5.0, 20.0)]
    assert 0 < sum(decided) < len(decided) * len(loads)  # both sides of the tolerance are compared


@st.composite
def certificate_cases(draw):
    """A three-generator network, conditions on it, an outage (or none) and a corrective range.

    Either a random network's conditions (`condition_batches`) or 2-40
    conditions of the packaged network's pool, whose decided certificates
    sit near the boundary often enough to tell a product's bits apart.
    """
    if draw(st.booleans()):
        grid, loads, dispatch, corrective = draw(condition_batches(generator_counts=(3,)))
    else:
        grid, loads, dispatch = six_bus_pool()
        rows = draw(st.lists(st.integers(0, len(loads) - 1), min_size=2, max_size=40, unique=True))
        loads, dispatch, corrective = loads[rows], dispatch[rows], draw(st.sampled_from([5.0, 20.0, 60.0]))
    outages = [None] + [ln.id for ln in grid.lines if not grid.topology(ln.id).islanded]
    return grid, loads, dispatch, draw(st.sampled_from(outages)), corrective


@pytest.mark.reference
@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(certificate_cases(), st.data())
def test_a_conditions_certificate_and_label_do_not_depend_on_its_batch(case, data):
    """Alone (a one-row batch), in its full batch and in a random sub-batch, bit for bit."""
    grid, loads, dispatch, c, corrective = case
    top = grid.topology(c)
    lo = np.maximum(grid.p_min, dispatch - corrective)
    hi = np.minimum(grid.p_max, dispatch + corrective)
    order = np.array(data.draw(st.permutations(range(len(loads)))))
    batches = [np.arange(len(loads)), order[:data.draw(st.integers(1, len(loads)))]]
    batches += [[k] for k in range(len(loads))]

    labels, certified = {}, {}
    for batch in map(np.asarray, batches):
        for k, label in zip(batch, assess_security(grid, loads[batch], dispatch[batch], c, corrective)):
            labels.setdefault(k, set()).add(int(label))
        box = batch[np.all(lo[batch] <= hi[batch], axis=1)]  # the certificate takes non-empty boxes only
        if box.size:
            best = _best_vertex_violation(grid, top, loads[box], lo[box], hi[box])
            for k, value in zip(box, best):
                certified.setdefault(k, set()).add(value.tobytes())
    assert {k: found for k, found in labels.items() if len(found) > 1} == {}
    assert {k: found for k, found in certified.items() if len(found) > 1} == {}


def scored_pairs(calls):
    """Patch `_reaching_pairs` to append each call's ``(pairs, {(condition, pair), ...})`` to ``calls``."""
    reaching = grid_mod._reaching_pairs

    def recording(pairs, rhs, lo, hi):
        cond, pair = reaching(pairs, rhs, lo, hi)
        calls.append((pairs, set(zip(cond.tolist(), pair.tolist()))))
        return cond, pair

    return mock.patch.object(grid_mod, "_reaching_pairs", recording)


def test_certificate_scores_under_a_fifth_of_the_pairs_on_a_six_bus_pool():
    g, loads, dispatch = six_bus_pool()
    calls = []
    with scored_pairs(calls):
        for ln in g.lines:
            for corrective in (5.0, 20.0):
                lo = np.maximum(g.p_min, dispatch - corrective)
                hi = np.minimum(g.p_max, dispatch + corrective)
                if not g.topology(ln.id).islanded:
                    _best_vertex_violation(g, g.topology(ln.id), loads, lo, hi)
    scored = sum(len(found) for _, found in calls)
    assert 0 < scored < sum(len(pairs.i) * len(loads) for pairs, _ in calls) / 5


def crafted_network(planes, limits):
    """Stand-ins for a three-generator network whose line ``k`` carries ``planes[k] . (x1 - load1, x2)`` MW.

    Units 1-3 sit on buses 1-3 and no line sees bus 3, so with ``loads``
    ``(load1, 0, load3)`` line ``k``'s rows are ``|planes[k] . (x1 -
    load1, x2)| <= limits[k]``.
    """
    ptdf = np.zeros((len(planes), 3))
    ptdf[:, :2] = planes
    a_ub = np.vstack([ptdf, -ptdf])
    top = grid_mod.Topology(False, ptdf=ptdf, a_ub=a_ub, pairs=grid_mod._vertex_pairs(a_ub))
    return SimpleNamespace(line_limits=np.array(limits, dtype=float)), top


def pair_index(pairs, rows):
    """The position of the pair of ``rows`` in ``pairs``, or None if they were found parallel."""
    [k] = np.flatnonzero((pairs.i == min(rows)) & (pairs.j == max(rows))).tolist() or [None]
    return k


def box(n):
    """``lo`` and ``hi`` of ``n`` conditions whose x1 and x2 may each take 0-100 MW, and x3 0-1000 MW."""
    return np.zeros((n, 3)), np.tile([100.0, 100.0, 1000.0], (n, 1))


def test_certificate_scores_a_row_pair_just_above_the_parallel_tolerance():
    # line 0 is x1 = +-500, clear of the box; lines 1 and 2 turn by 2e-12 and 0.5e-12 rad through (500, 0)
    net, top = crafted_network([(1.0, 0.0), (1.0, 2e-12), (1.0, 0.5e-12)], [500.0, 500.0, 500.0])
    just_above, below = pair_index(top.pairs, (0, 1)), pair_index(top.pairs, (0, 2))
    assert below is None and top.pairs.always[just_above]
    calls = []
    with scored_pairs(calls):
        best, _ = certificates(net, top, np.array([[0.0, 0.0, 150.0], [0.0, 0.0, 30.0]]), *box(2))
    assert {(0, just_above), (1, just_above)} <= calls[0][1]
    assert np.all(best <= CERTIFIED_TOL)  # secure: the whole box lies between every line's rows


@pytest.mark.parametrize("turn, scored", [(_ALWAYS_SCORED_SIN * (1 + 1e-6), False),
                                          (_ALWAYS_SCORED_SIN * (1 - 1e-6), True)])
def test_certificate_scores_a_row_pair_on_either_side_of_the_always_scored_threshold(turn, scored):
    # lines 0 and 1 cross at (500, 0), far from the box, at |sin| just above or below the threshold
    net, top = crafted_network([(1.0, 0.0), (1.0, turn), (0.0, 1.0)], [500.0, 500.0, 500.0])
    k = pair_index(top.pairs, (0, 1))
    assert top.pairs.always[k] == scored
    calls = []
    with scored_pairs(calls):
        best, _ = certificates(net, top, np.array([[0.0, 0.0, 150.0]]), *box(1))
    assert ((0, k) in calls[0][1]) == scored
    assert best <= CERTIFIED_TOL


# 1: one vertex, or none, per chunk; 70: one chunk, its 22 inside vertices scored 7, 7, 7 and 1 at a time
@pytest.mark.parametrize("chunk_floats", [1, 2, 5, 70, 1 << 13])
def test_certificate_scores_a_flow_row_within_undecided_tol_of_a_box_edge(chunk_floats):
    # line 0 requires x1 >= load1 - 100, where the box ends at x1 = 100
    net, top = crafted_network([(1.0, 0.0), (0.0, 1.0)], [100.0, 500.0])
    gaps = np.array([5e-7, -5e-7, 2e-6])  # just outside the box, just inside it, outside by over UNDECIDED_TOL
    loads = np.zeros((3, 3))
    loads[:, 0] = 200.0 + gaps
    calls = []
    with scored_pairs(calls), mock.patch.object(grid_mod, "_CHUNK_FLOATS", chunk_floats):
        best, reference = certificates(net, top, loads, *box(3))
    on_edge = pair_index(top.pairs, (2, 5))  # line 0's lower row and x2 <= hi2 meet at (load1 - 100, 100)
    assert {(0, on_edge), (1, on_edge), (2, on_edge)} <= calls[0][1]
    assert CERTIFIED_TOL < best[0] <= UNDECIDED_TOL and best[0] == reference[0]
    assert best[1] <= 0.0 and best[2] > UNDECIDED_TOL


def test_batched_labels_of_no_conditions():
    g = six_bus()
    assert assess_security(g, np.zeros((0, 6)), np.zeros((0, 3)), 5).shape == (0,)


# -- network.json ---------------------------------------------------------

def save_grid(grid, path):
    """Write ``network.json`` as ``load_grid`` reads it."""
    path.write_text(json.dumps(grid_to_dict(grid), indent=2) + "\n")


def test_network_roundtrip(tmp_path):
    g = six_bus()
    path = tmp_path / "network.json"
    save_grid(g, path)
    assert load_grid(path) == g


def test_network_dict_roundtrip():
    g = six_bus()
    assert grid_from_dict(grid_to_dict(g)) == g


def test_malformed_network_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MalformedFile):
        load_grid(path)
    path.write_text('{"version": 1, "buses": []}')
    with pytest.raises(MalformedFile):
        load_grid(path)
    path.write_text("[1, 2]")  # valid JSON, but not an object
    with pytest.raises(MalformedFile, match="bad.json"):
        load_grid(path)


def test_packaged_network_shape():
    g = six_bus()
    assert g.n_buses == 6
    assert len(g.lines) == 11
    assert len(g.generators) == 3
    assert [gen.cost for gen in g.generators] == [12.0, 10.0, 8.0]
    assert [gen.bus for gen in g.generators] == [1, 2, 3]
    assert g.buses[g.slack_index].id == 1
