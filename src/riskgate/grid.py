"""DC power-flow and DC-OPF engine.

This module provides both halves of the data pipeline's physics: the
economic dispatch that creates pre-fault operating conditions, and the
exact post-contingency feasibility check that labels them secure or
insecure.  Everything is deterministic and pure; ``GridModel`` is
immutable (and hashable), derives every network array it needs once, at
construction, and exposes them read-only, so models can be shared
freely across workers.

Conventions
-----------
* Angles are radians with the slack bus pinned at exactly 0.
* Line flows are MW, positive in the from->to direction; susceptance is
  built from per-unit reactances, so ``flow_mw = base_mva * (theta_f -
  theta_t) / x``.
* Voltage magnitudes are fixed at 1.0 p.u. under the DC approximation;
  only thermal line-flow limits are enforced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import IslandedNetwork, MalformedFile, SingularSystem, read_json
from .simplex import LPResult, solve_lp

BALANCE_TOL = 1e-6  # MW; residual beyond this is an error, never absorbed
SECURE_TOL = 1e-9  # MW; a flow violated by at most this holds without redispatch
CERTIFIED_TOL = 1e-12  # MW; a best vertex violating no row by more than this is feasible up to rounding
UNDECIDED_TOL = 1e-6  # MW; best-vertex violations up to this are left to the LP
CORRECTIVE_RANGE_MW = 20.0  # MW; corrective redispatch moves each output by at most this
_PARALLEL_TOL = 1e-12  # |sin| of the angle below which two polygon rows are parallel
_CHUNK_FLOATS = 1 << 13  # 64 KB of float64 per (conditions, pairs) array of certificate vertices

NETWORK_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Bus:
    id: int
    slack: bool = False


@dataclass(frozen=True)
class Line:
    id: int
    from_bus: int
    to_bus: int
    reactance: float  # p.u.
    limit: float  # MW


@dataclass(frozen=True)
class Generator:
    id: int
    bus: int
    p_min: float  # MW
    p_max: float  # MW
    cost: float  # $/MWh


def _read_only(a) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Topology:
    """Arrays of the network with one line out (or none); none if islanded."""

    islanded: bool
    live: np.ndarray | None = None  # positions of the lines in service
    b_inv: np.ndarray | None = None  # inverse of the slack-reduced susceptance matrix (p.u.)
    ptdf: np.ndarray | None = None  # line x bus; flows_mw = ptdf @ balanced injections_mw
    a_ub: np.ndarray | None = None  # redispatch LP flow rows [sens; -sens], sens = ptdf @ incidence


@dataclass(frozen=True)
class GridModel:
    """Immutable network description: buses, lines, generators.

    Construction derives, read-only and outside the dataclass fields (so
    ``==``, ``hash`` and the JSON form see only the network): the
    bus-by-generator 0/1 ``incidence``, the ``p_min``, ``p_max``, ``cost``
    and ``line_limits`` vectors, and one `Topology` per outage.
    """

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    base_mva: float = 100.0

    def __post_init__(self):
        if sum(1 for b in self.buses if b.slack) != 1:
            raise ValueError("exactly one slack bus required")
        for kind, items in (("bus", self.buses), ("line", self.lines), ("generator", self.generators)):
            ids = [item.id for item in items]
            if len(set(ids)) != len(ids):
                raise ValueError(f"duplicate {kind} ids")
        known = {b.id for b in self.buses}
        for ln in self.lines:
            if ln.reactance <= 0:
                raise ValueError(f"line {ln.id}: reactance must be > 0")
            if ln.limit <= 0:
                raise ValueError(f"line {ln.id}: flow limit must be > 0")
            if ln.from_bus not in known or ln.to_bus not in known:
                raise ValueError(f"line {ln.id}: unknown endpoint")
        for g in self.generators:
            if g.p_min > g.p_max:
                raise ValueError(f"generator {g.id}: p_min > p_max")
            if g.bus not in known:
                raise ValueError(f"generator {g.id}: unknown bus")

        pos = {b.id: i for i, b in enumerate(self.buses)}
        incidence = np.zeros((len(self.buses), len(self.generators)))
        for j, g in enumerate(self.generators):
            incidence[pos[g.bus], j] = 1.0
        object.__setattr__(self, "_bus_pos", pos)
        for name, values, dtype in (
            ("_keep", [i for i in range(len(self.buses)) if i != self.slack_index], int),
            ("_from", [pos[ln.from_bus] for ln in self.lines], int),
            ("_to", [pos[ln.to_bus] for ln in self.lines], int),
            ("_x", [ln.reactance for ln in self.lines], float),
            ("incidence", incidence, float),
            ("p_min", [g.p_min for g in self.generators], float),
            ("p_max", [g.p_max for g in self.generators], float),
            ("cost", [g.cost for g in self.generators], float),
            ("line_limits", [ln.limit for ln in self.lines], float),
        ):
            object.__setattr__(self, name, _read_only(np.array(values, dtype=dtype)))
        topologies = {out: self._derive_topology(out) for out in [None] + [ln.id for ln in self.lines]}
        if topologies[None].islanded:
            raise ValueError("network graph is not connected")
        object.__setattr__(self, "_topologies", topologies)

    def _derive_topology(self, outaged_line: int | None) -> Topology:
        live = [k for k, ln in enumerate(self.lines) if ln.id != outaged_line]
        n, ends = self.n_buses, list(zip(self._from.tolist(), self._to.tolist()))
        component = list(range(n))
        for k in live:  # merge the components the line joins
            old, new = component[ends[k][1]], component[ends[k][0]]
            component = [new if c == old else c for c in component]
        if len(set(component)) > 1:
            return Topology(islanded=True)

        b_full = np.zeros((n, n))
        for k in live:
            i, j = ends[k]
            y = 1.0 / self.lines[k].reactance
            b_full[i, i] += y
            b_full[j, j] += y
            b_full[i, j] -= y
            b_full[j, i] -= y
        try:
            b_inv = np.linalg.inv(b_full[np.ix_(self._keep, self._keep)])
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"reduced susceptance matrix is singular (outage {outaged_line})") from exc
        theta = np.zeros((n, n))
        theta[np.ix_(self._keep, self._keep)] = b_inv
        ptdf = np.zeros((len(self.lines), n))
        live = np.array(live, dtype=int)
        ptdf[live] = (theta[self._from[live]] - theta[self._to[live]]) / self._x[live, None]
        sens = ptdf @ self.incidence  # line flow per unit of generator output
        return Topology(False, *map(_read_only, (live, b_inv, ptdf, np.vstack([sens, -sens]))))

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def slack_index(self) -> int:
        return next(i for i, b in enumerate(self.buses) if b.slack)

    def bus_position(self, bus_id: int) -> int:
        return self._bus_pos[bus_id]

    def topology(self, outaged_line: int | None = None) -> Topology:
        """Derived arrays with line ``outaged_line`` out (None: intact network)."""
        try:
            return self._topologies[outaged_line]
        except KeyError:
            raise ValueError(f"unknown line id {outaged_line}") from None


@dataclass(frozen=True)
class FlowSolution:
    """Bus angles (rad, slack = 0) and line flows (MW, from->to)."""

    angles: np.ndarray
    flows: np.ndarray


def solve_dc_power_flow(grid: GridModel, injection, outaged_line: int | None = None) -> FlowSolution:
    """Solve the DC power flow for per-bus net injections (MW).

    Raises
    ------
    IslandedNetwork
        If the outage disconnects the network.
    ValueError
        If the injection vector is the wrong length or does not balance
        to zero within ``BALANCE_TOL``, or the line id is unknown.
    """
    inj = np.asarray(injection, dtype=float)
    if inj.shape != (grid.n_buses,):
        raise ValueError(f"injection must have length {grid.n_buses}")
    if abs(inj.sum()) > BALANCE_TOL:
        raise ValueError(f"injections do not balance (residual {inj.sum():.3e} MW)")
    top = grid.topology(outaged_line)
    if top.islanded:
        raise IslandedNetwork(f"outage of line {outaged_line} islands the network")

    keep = grid._keep
    angles = np.zeros(grid.n_buses)
    angles[keep] = top.b_inv @ (inj[keep] / grid.base_mva)
    live = top.live
    flows = np.zeros(len(grid.lines))
    flows[live] = grid.base_mva * (angles[grid._from[live]] - angles[grid._to[live]]) / grid._x[live]
    return FlowSolution(angles=angles, flows=flows)


def _dispatch_lp(grid, top, loads, cost, lo, hi):
    """Shared LP: find dispatch meeting balance, bounds and flow limits."""
    base_flow = top.ptdf @ (-loads)  # flows due to loads alone
    limits = grid.line_limits
    return solve_lp(
        cost,
        a_eq=np.ones((1, len(grid.generators))),
        b_eq=[float(loads.sum())],
        a_ub=top.a_ub,
        b_ub=np.concatenate([limits - base_flow, limits + base_flow]),
        lower=lo,
        upper=hi,
    )


def solve_dcopf(grid: GridModel, loads) -> LPResult:
    """Cost-minimal dispatch under power balance, generator and flow limits.

    Parameters
    ----------
    loads : array (n_buses,)
        Per-bus load in MW, all >= 0.

    Returns the simplex's `LPResult`: ``x`` holds the per-generator
    outputs (MW) and ``objective`` the cost ($); both are None, and
    ``optimal`` False, when no dispatch satisfies the constraints.
    """
    loads = np.asarray(loads, dtype=float)
    if loads.shape != (grid.n_buses,):
        raise ValueError(f"loads must have length {grid.n_buses}")
    if not np.all(loads >= 0):  # NaN fails this too
        raise ValueError("loads must be nonnegative")
    return _dispatch_lp(grid, grid.topology(None), loads, grid.cost, grid.p_min, grid.p_max)


def _fixed_order_product(a, b) -> np.ndarray:
    """``a @ b.T``, summed term by term in column order.

    A BLAS product's bits can depend on how many rows it has (one row goes
    to gemv), which would let a condition on the ``SECURE_TOL`` boundary
    get one label alone and another in a batch; here every row gets the
    same bits either way.
    """
    out = np.zeros((len(a), len(b)))
    for k in range(a.shape[1]):
        out += a[:, k, None] * b[:, k]
    return out


def _best_vertex_violation(grid, top, loads, lo, hi) -> np.ndarray:
    """Per condition, the smallest largest row violation (MW) over its redispatch polygon's vertices.

    Three generators only: substituting the last unit through the balance
    equality leaves a polygon in the first two outputs, cut by the 2·L
    flow rows and the 2·3 bound rows.  The box bounds it, so it is
    nonempty iff the crossing of some non-parallel pair of rows violates
    no row.  Every pair is inverted once per call.

    A vertex that breaks one of the six bound rows by more than
    ``UNDECIDED_TOL`` cannot be a condition's best under that tolerance,
    so only the vertices inside the box (a few percent of them) are
    scored on every row.  The result is exact where it is at most
    ``UNDECIDED_TOL``, the same float as scoring every vertex, and above
    ``UNDECIDED_TOL`` otherwise (``inf`` when no vertex is in the box).
    The ``(conditions, pairs)`` vertices are built a few conditions at a
    time, ``_CHUNK_FLOATS`` values per chunk.
    """
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
    best = np.full(len(loads), np.inf)
    step = max(1, _CHUNK_FLOATS // len(i))
    for s in range(0, len(loads), step):
        r = rhs[s:s + step]
        v0, v1 = (inverse[a, 0] * r[:, i] + inverse[a, 1] * r[:, j] for a in (0, 1))
        # the bound rows' planes are (1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1), so the
        # full product gives them v0, v1 or +-(v0 + v1) exactly: these are its violations, bit for bit
        box = r[:, -6:, None]
        inside = ((v0 - box[:, 0] <= UNDECIDED_TOL) & (v1 - box[:, 1] <= UNDECIDED_TOL)
                  & (-(v0 + v1) - box[:, 2] <= UNDECIDED_TOL) & (-v0 - box[:, 3] <= UNDECIDED_TOL)
                  & (-v1 - box[:, 4] <= UNDECIDED_TOL) & (v0 + v1 - box[:, 5] <= UNDECIDED_TOL))
        cond, pair = np.nonzero(inside)
        if cond.size == 1:  # a one-row product goes to BLAS gemv, whose bits can differ from gemm's
            cond, pair = np.repeat(cond, 2), np.repeat(pair, 2)
        if cond.size:
            violation = np.stack([v0[cond, pair], v1[cond, pair]], axis=-1) @ plane.T
            violation -= r[cond]
            first = np.flatnonzero(np.diff(cond, prepend=-1))
            best[s + cond[first]] = np.minimum.reduceat(violation.max(axis=1), first)
    return best


def assess_security(grid: GridModel, loads, dispatch, contingency: int,
                    corrective_range: float = CORRECTIVE_RANGE_MW):
    """Label pre-fault conditions against a line-outage contingency.

    A condition is secure (1) iff some corrective redispatch within
    ``+-corrective_range`` MW of its pre-fault outputs (intersected with
    generator limits) keeps every post-contingency line flow within its
    limit while preserving power balance.  Islanding the network counts
    as insecure (0), not as an error.

    One condition -- ``loads`` of shape ``(n_buses,)``, ``dispatch`` of
    shape ``(G,)`` -- returns an int; ``m`` conditions -- ``(m, n_buses)``
    and ``(m, G)`` -- return an array of ``m`` labels.  Both forms first
    take a condition as secure if no flow exceeds its limit by more than
    ``SECURE_TOL`` MW, and as insecure if its redispatch box is empty.
    One condition then goes to the LP, the reference.  The rest of a batch
    on a three-generator network gets the vertex certificate
    (`_best_vertex_violation`): secure if the best vertex violates no row
    by more than ``CERTIFIED_TOL`` MW, a rounding error, insecure beyond
    ``UNDECIDED_TOL`` MW, which includes every condition whose polygon has
    no vertex within ``UNDECIDED_TOL`` of its redispatch box.  The band
    between, where the LP's verdict turns on where its phase 1 stops, and
    every remaining condition when G != 3, goes to the LP.

    Raises ``ValueError`` if ``corrective_range`` is negative or NaN, or
    if ``loads`` or ``dispatch`` holds a NaN or an infinity.
    """
    loads = np.asarray(loads, dtype=float)
    dispatch = np.asarray(dispatch, dtype=float)
    if not corrective_range >= 0:  # NaN would empty every redispatch box
        raise ValueError(f"corrective_range must be >= 0, got {corrective_range}")
    for name, values in (("loads", loads), ("dispatch", dispatch)):
        if not np.isfinite(values).all():  # the balance check passes NaN
            raise ValueError(f"{name} must be finite")
    single = loads.ndim == 1
    loads, dispatch = np.atleast_2d(loads), np.atleast_2d(dispatch)
    if loads.ndim != 2 or len(loads) != len(dispatch):
        raise ValueError("loads and dispatch must describe the same conditions")
    if np.any(np.abs(dispatch.sum(axis=1) - loads.sum(axis=1)) > BALANCE_TOL):
        raise ValueError("pre-fault condition is not balanced")
    labels = np.zeros(len(loads), dtype=int)
    top = grid.topology(contingency)
    if not top.islanded:
        flows = _fixed_order_product(_fixed_order_product(dispatch, grid.incidence) - loads, top.ptdf)
        labels[np.all(np.abs(flows) <= grid.line_limits + SECURE_TOL, axis=1)] = 1  # no corrective action
        lo = np.maximum(grid.p_min, dispatch - corrective_range)
        hi = np.minimum(grid.p_max, dispatch + corrective_range)
        rest = np.flatnonzero((labels == 0) & np.all(lo <= hi, axis=1))
        if not single and len(grid.generators) == 3 and rest.size:
            best = _best_vertex_violation(grid, top, loads[rest], lo[rest], hi[rest])
            labels[rest[best <= CERTIFIED_TOL]] = 1
            rest = rest[(best > CERTIFIED_TOL) & (best <= UNDECIDED_TOL)]
        zero_cost = np.zeros(len(grid.generators))
        for k in rest:
            labels[k] = int(_dispatch_lp(grid, top, loads[k], zero_cost, lo[k], hi[k]).optimal)
    return int(labels[0]) if single else labels


# -- network.json ------------------------------------------------------------

def grid_to_dict(grid: GridModel) -> dict:
    return {
        "version": NETWORK_SCHEMA_VERSION,
        "base_mva": grid.base_mva,
        "buses": [{"id": b.id, "slack": b.slack} for b in grid.buses],
        "lines": [
            {"id": ln.id, "from_bus": ln.from_bus, "to_bus": ln.to_bus,
             "reactance": ln.reactance, "limit": ln.limit}
            for ln in grid.lines
        ],
        "generators": [
            {"id": g.id, "bus": g.bus, "p_min": g.p_min, "p_max": g.p_max, "cost": g.cost}
            for g in grid.generators
        ],
    }


def grid_from_dict(data: dict) -> GridModel:
    try:
        if data.get("version", NETWORK_SCHEMA_VERSION) != NETWORK_SCHEMA_VERSION:
            raise MalformedFile(f"unsupported network schema version {data['version']}")
        return GridModel(
            buses=tuple(Bus(int(b["id"]), bool(b.get("slack", False))) for b in data["buses"]),
            lines=tuple(
                Line(int(ln["id"]), int(ln["from_bus"]), int(ln["to_bus"]),
                     float(ln["reactance"]), float(ln["limit"]))
                for ln in data["lines"]
            ),
            generators=tuple(
                Generator(int(g["id"]), int(g["bus"]), float(g["p_min"]),
                          float(g["p_max"]), float(g["cost"]))
                for g in data["generators"]
            ),
            base_mva=float(data.get("base_mva", 100.0)),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # AttributeError: not a JSON object
        raise MalformedFile(f"bad network description: {exc}") from exc


def load_grid(path) -> GridModel:
    data = read_json(path)
    try:
        return grid_from_dict(data)
    except MalformedFile as exc:
        raise MalformedFile(f"{path}: {exc}") from exc


def six_bus() -> GridModel:
    """The packaged six-bus test network used by all experiments."""
    data = json.loads(resources.files("riskgate.data").joinpath("network.json").read_text())
    return grid_from_dict(data)
