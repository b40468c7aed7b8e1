"""Grid engine tests: DC power flow, DC-OPF, and the security oracle."""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskgate import grid as grid_mod
from riskgate.errors import IslandedNetwork, MalformedFile
from riskgate.grid import (
    _PARALLEL_TOL,
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
from riskgate.simplex import LPResult


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


def test_unknown_outage_rejected():
    with pytest.raises(ValueError):
        six_bus().topology(99)
    with pytest.raises(ValueError):
        solve_dc_power_flow(six_bus(), np.zeros(6), outaged_line=99)


def test_derived_arrays_do_not_change_identity():
    a, b = six_bus(), six_bus()
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
            with pytest.raises(IslandedNetwork):
                solve_dc_power_flow(grid, inj, outaged_line=outage)
            continue
        ptdf = _ptdf(grid, outage)
        assert same_bits(top.b_inv, _reduced_susceptance_inverse(grid, outage))
        assert same_bits(top.ptdf, ptdf)
        assert same_bits(top.a_ub, np.vstack([ptdf @ inc, -(ptdf @ inc)]))
        sol = solve_dc_power_flow(grid, inj, outaged_line=outage)
        angles, flows = _power_flow(grid, inj, outage)
        assert same_bits(sol.angles, angles)
        assert same_bits(sol.flows, flows)


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


@settings(max_examples=300, deadline=None)
@given(connected_grids())
def test_derived_arrays_match_reference(case):
    check_against_reference(*case)


# -- DC power flow ------------------------------------------------------------

def test_single_line_carries_all_power():
    sol = solve_dc_power_flow(two_bus(), [50.0, -50.0])
    assert sol.flows[0] == pytest.approx(50.0, abs=1e-9)
    assert sol.angles[0] == 0.0


def test_zero_injection_zero_state():
    sol = solve_dc_power_flow(six_bus(), np.zeros(6))
    assert np.all(sol.angles == 0.0)
    assert np.all(sol.flows == 0.0)


def test_triangle_split_matches_hand_solution():
    # Equal reactances, +90 at bus 1, -90 at bus 3: direct line carries 60,
    # the two-hop path 30 per leg (solved by hand from the 2x2 reduced system).
    sol = solve_dc_power_flow(triangle(), [90.0, 0.0, -90.0])
    assert sol.flows[0] == pytest.approx(30.0, abs=1e-9)  # 1-2
    assert sol.flows[1] == pytest.approx(30.0, abs=1e-9)  # 2-3
    assert sol.flows[2] == pytest.approx(60.0, abs=1e-9)  # 1-3


def test_flow_conservation_property():
    g = six_bus()
    rng = np.random.default_rng(3)
    for _ in range(25):
        inj = rng.normal(0, 40, 6)
        inj[0] -= inj.sum()
        sol = solve_dc_power_flow(g, inj)
        for b, bus in enumerate(g.buses):
            net = inj[b]
            for k, ln in enumerate(g.lines):
                if ln.from_bus == bus.id:
                    net -= sol.flows[k]
                if ln.to_bus == bus.id:
                    net += sol.flows[k]
            assert abs(net) < 1e-6


def test_unbalanced_injection_rejected():
    with pytest.raises(ValueError):
        solve_dc_power_flow(two_bus(), [50.0, -49.0])


def test_islanding_outage_raises():
    with pytest.raises(IslandedNetwork):
        solve_dc_power_flow(two_bus(), [50.0, -50.0], outaged_line=1)


def test_power_flow_deterministic():
    g = six_bus()
    inj = np.array([30.0, 10.0, 20.0, -15.0, -25.0, -20.0])
    a = solve_dc_power_flow(g, inj)
    b = solve_dc_power_flow(g, inj)
    assert np.array_equal(a.angles, b.angles) and np.array_equal(a.flows, b.flows)


# -- DC-OPF ---------------------------------------------------------------

def test_zero_load_zero_cost():
    sol = solve_dcopf(six_bus_relaxed(), np.zeros(6))
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
    sol = solve_dcopf(g, [100.0])
    assert sol.optimal
    assert sol.x == pytest.approx([60.0, 40.0], abs=1e-8)
    assert sol.objective == pytest.approx(140.0, abs=1e-7)


def test_merit_order_when_nothing_binds():
    # 150 MW fits entirely on the cheapest (coefficient-8) generator.
    g = six_bus_relaxed()
    loads = np.zeros(6)
    loads[3:] = 50.0
    sol = solve_dcopf(g, loads)
    assert sol.optimal
    assert sol.x == pytest.approx([0.0, 0.0, 150.0], abs=1e-7)
    assert sol.objective == pytest.approx(8.0 * 150.0, abs=1e-6)


def test_dispatch_balances_load():
    g = six_bus()
    loads = np.zeros(6)
    loads[3:] = [90.0, 80.0, 100.0]
    sol = solve_dcopf(g, loads)
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
    sol = solve_dcopf(g, loads)
    assert sol.optimal
    inj = np.zeros(6)
    for out, gen in zip(sol.x, g.generators):
        inj[g.bus_position(gen.bus)] += out
    inj -= loads
    flows = solve_dc_power_flow(g, inj).flows
    assert np.all(np.abs(flows) <= g.line_limits + 1e-6)


def test_infeasible_load_returns_flag():
    sol = solve_dcopf(six_bus(), np.array([0, 0, 0, 150.0, 150.0, 150.0]))
    assert isinstance(sol, LPResult)
    assert not sol.optimal
    assert sol.x is None and sol.objective is None


def test_nan_load_rejected_before_the_lp():
    with pytest.raises(ValueError, match="loads must be nonnegative"):
        solve_dcopf(six_bus(), np.array([0, 0, 0, 120.0, np.nan, 70.0]))


# -- security assessment ------------------------------------------------------

def test_secure_without_redispatch():
    g = triangle()
    # 30 MW transfer: every post-outage flow stays far below the 500 limits.
    assert assess_security(g, [0.0, 0.0, 30.0], [30.0], 1, 0.0) == 1


def assess(grid, loads3, contingency, corrective=20.0):
    loads = np.zeros(6)
    loads[3:] = loads3
    d = solve_dcopf(grid, loads)
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
        flows = solve_dc_power_flow(g, np.array([d1, d2, -100.0]), outaged_line=1).flows
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
        d = solve_dcopf(g, loads)
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
    d = solve_dcopf(g, loads)
    assert d.optimal
    labels = {assess_security(g, loads, d.x, c, 20.0) for _ in range(3) for c in (5,)}
    assert len(labels) == 1


@pytest.mark.parametrize("corrective", [-1.0, float("nan")])
def test_negative_or_nan_corrective_range_rejected(corrective):
    g = six_bus()
    loads = np.zeros(6)
    loads[3:] = [120.0, 95.0, 70.0]
    d = solve_dcopf(g, loads)
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
    condition = {"loads": loads, "dispatch": solve_dcopf(g, loads).x.copy()}
    condition[name][-1] = np.nan
    if batched:
        condition = {k: v[None] for k, v in condition.items()}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
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


@settings(max_examples=300, deadline=None)
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

    base_flow = loads @ -top.ptdf.T
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
    reference = reference_best_vertex_violation(grid, top, loads[box], lo[box], hi[box])
    best = _best_vertex_violation(grid, top, loads[box], lo[box], hi[box])
    decided = reference <= UNDECIDED_TOL
    assert best[decided].tobytes() == reference[decided].tobytes()
    assert np.all(best[~decided] > UNDECIDED_TOL)
    return int(decided.sum())


@settings(max_examples=200, deadline=None)
@given(condition_batches(generator_counts=(3,)), st.sampled_from([1, 40, 1 << 13]), st.data())
def test_certificate_matches_scoring_every_vertex(case, chunk_floats, data):
    grid, loads, dispatch, corrective = case
    outages = [None] + [ln.id for ln in grid.lines if not grid.topology(ln.id).islanded]
    c = data.draw(st.sampled_from(outages))
    insecure = [k for k in range(len(loads)) if not assess_security(grid, loads[k], dispatch[k], c, corrective)]
    if insecure:  # add the pair on either side of one condition's boundary
        pair_loads, pair_dispatch = scaled_onto_boundary(grid, loads[insecure[0]], dispatch[insecure[0]], c,
                                                         corrective)
        loads, dispatch = np.vstack([loads, pair_loads]), np.vstack([dispatch, pair_dispatch])
    with mock.patch.object(grid_mod, "_CHUNK_FLOATS", chunk_floats):  # 1: a chunk per condition
        assert_certificate_matches_reference(grid, loads, dispatch, c, corrective)


def test_certificate_matches_scoring_every_vertex_on_a_six_bus_pool():
    # about 300 vertex pairs per outage: 240 conditions span about nine chunks of 27
    from test_scenario_gen import sample_loads

    g = six_bus()
    loads = np.zeros((240, 6))
    loads[:, 3:] = sample_loads(240, seed=13)
    dispatch = [solve_dcopf(g, row) for row in loads]
    feasible = [k for k, d in enumerate(dispatch) if d.optimal]
    loads, dispatch = loads[feasible], np.array([dispatch[k].x for k in feasible])
    assert len(loads) >= 200
    decided = [assert_certificate_matches_reference(g, loads, dispatch, ln.id, corrective)
               for ln in g.lines for corrective in (5.0, 20.0)]
    assert 0 < sum(decided) < len(decided) * len(loads)  # both sides of the tolerance are compared


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
