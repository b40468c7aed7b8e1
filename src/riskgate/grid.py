"""DC power-flow and DC-OPF engine.

This module provides both halves of the data pipeline's physics: the
economic dispatch that creates pre-fault operating conditions, and the
exact post-contingency feasibility check that labels them secure or
insecure.  Everything is deterministic and pure; ``GridModel`` is
immutable (and hashable), so derived matrices are memoised at module
level and models can be shared freely across workers.

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
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import IslandedNetwork, MalformedFile, SingularSystem
from .simplex import solve_lp

BALANCE_TOL = 1e-6  # MW; residual beyond this is an error, never absorbed

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


@dataclass(frozen=True)
class GridModel:
    """Immutable network description: buses, lines, generators."""

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    base_mva: float = 100.0

    def __post_init__(self):
        if sum(1 for b in self.buses if b.slack) != 1:
            raise ValueError("exactly one slack bus required")
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate bus ids")
        known = set(ids)
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
        if not _connected(self, None):
            raise ValueError("network graph is not connected")

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def slack_index(self) -> int:
        return next(i for i, b in enumerate(self.buses) if b.slack)

    def bus_position(self, bus_id: int) -> int:
        return _bus_positions(self)[bus_id]

    def line_by_id(self, line_id: int) -> Line:
        for ln in self.lines:
            if ln.id == line_id:
                return ln
        raise ValueError(f"unknown line id {line_id}")

    @property
    def line_limits(self) -> np.ndarray:
        return np.array([ln.limit for ln in self.lines])


@dataclass(frozen=True)
class FlowSolution:
    """Bus angles (rad, slack = 0) and line flows (MW, from->to)."""

    angles: np.ndarray
    flows: np.ndarray


@dataclass(frozen=True)
class DispatchSolution:
    """Per-generator outputs (MW), objective cost ($), feasibility flag."""

    outputs: np.ndarray | None
    cost: float | None
    feasible: bool


@lru_cache(maxsize=None)
def _bus_positions(grid: GridModel) -> dict[int, int]:
    return {b.id: i for i, b in enumerate(grid.buses)}


def _connected(grid: GridModel, outaged_line: int | None) -> bool:
    adj: dict[int, list[int]] = {b.id: [] for b in grid.buses}
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


@lru_cache(maxsize=None)
def _reduced_susceptance_inverse(grid: GridModel, outaged_line: int | None) -> np.ndarray:
    """Inverse of the slack-reduced susceptance matrix (per unit)."""
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
    try:
        return np.linalg.inv(reduced)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("reduced susceptance matrix is singular") from exc


@lru_cache(maxsize=None)
def _ptdf(grid: GridModel, outaged_line: int | None) -> np.ndarray:
    """Line-flow sensitivities to bus injections (unit-free).

    Row per line (outaged row all zero), column per bus.  Valid for
    balanced injections: flows_mw = ptdf @ injections_mw.
    """
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


def solve_dc_power_flow(grid: GridModel, injection, outaged_line: int | None = None) -> FlowSolution:
    """Solve the DC power flow for per-bus net injections (MW).

    Raises
    ------
    IslandedNetwork
        If the outage disconnects the network.
    SingularSystem
        If the reduced susceptance matrix cannot be inverted.
    ValueError
        If the injection vector is the wrong length or does not balance
        to zero within ``BALANCE_TOL``.
    """
    inj = np.asarray(injection, dtype=float)
    if inj.shape != (grid.n_buses,):
        raise ValueError(f"injection must have length {grid.n_buses}")
    if abs(inj.sum()) > BALANCE_TOL:
        raise ValueError(f"injections do not balance (residual {inj.sum():.3e} MW)")
    if outaged_line is not None:
        grid.line_by_id(outaged_line)
        if not _connected(grid, outaged_line):
            raise IslandedNetwork(f"outage of line {outaged_line} islands the network")

    keep = [i for i in range(grid.n_buses) if i != grid.slack_index]
    angles = np.zeros(grid.n_buses)
    angles[keep] = _reduced_susceptance_inverse(grid, outaged_line) @ (inj[keep] / grid.base_mva)
    pos = _bus_positions(grid)
    flows = np.zeros(len(grid.lines))
    for k, ln in enumerate(grid.lines):
        if outaged_line is not None and ln.id == outaged_line:
            continue
        flows[k] = grid.base_mva * (angles[pos[ln.from_bus]] - angles[pos[ln.to_bus]]) / ln.reactance
    return FlowSolution(angles=angles, flows=flows)


def _generator_bounds(grid: GridModel, base_dispatch, shift) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([g.p_min for g in grid.generators])
    hi = np.array([g.p_max for g in grid.generators])
    if base_dispatch is not None:
        base = np.asarray(base_dispatch, dtype=float)
        shift = np.broadcast_to(np.asarray(shift, dtype=float), base.shape)
        lo = np.maximum(lo, base - shift)
        hi = np.minimum(hi, base + shift)
    return lo, hi


def generator_incidence(grid: GridModel) -> np.ndarray:
    """Bus-by-generator 0/1 matrix: column j marks the bus of generator j."""
    inc = np.zeros((grid.n_buses, len(grid.generators)))
    pos = _bus_positions(grid)
    for j, g in enumerate(grid.generators):
        inc[pos[g.bus], j] = 1.0
    return inc


def _dispatch_lp(grid, loads, cost, lo, hi, outaged_line):
    """Shared LP: find dispatch meeting balance, bounds and flow limits."""
    ptdf = _ptdf(grid, outaged_line)
    inc = generator_incidence(grid)
    sens = ptdf @ inc  # line flow per unit of generator output
    base_flow = ptdf @ (-loads)  # flows due to loads alone
    limits = grid.line_limits
    a_ub = np.vstack([sens, -sens])
    b_ub = np.concatenate([limits - base_flow, limits + base_flow])
    return solve_lp(
        cost,
        a_eq=np.ones((1, len(grid.generators))),
        b_eq=[float(loads.sum())],
        a_ub=a_ub,
        b_ub=b_ub,
        lower=lo,
        upper=hi,
    )


def solve_dcopf(grid: GridModel, loads, redispatch_bounds=None) -> DispatchSolution:
    """Cost-minimal dispatch under power balance, generator and flow limits.

    Parameters
    ----------
    loads : array (n_buses,)
        Per-bus load in MW, all >= 0.
    redispatch_bounds : (base_dispatch, max_shift), optional
        Restricts each generator to ``base +- shift`` intersected with
        its own limits; the intersection must be nonempty.

    Returns an infeasible `DispatchSolution` (no dispatch, no cost) when
    no dispatch satisfies the constraints.
    """
    loads = np.asarray(loads, dtype=float)
    if loads.shape != (grid.n_buses,):
        raise ValueError(f"loads must have length {grid.n_buses}")
    if np.any(loads < 0):
        raise ValueError("loads must be nonnegative")
    if redispatch_bounds is not None:
        lo, hi = _generator_bounds(grid, *redispatch_bounds)
        if np.any(lo > hi):
            raise ValueError("redispatch bounds do not intersect generator limits")
    else:
        lo, hi = _generator_bounds(grid, None, None)
    cost = np.array([g.cost for g in grid.generators])
    res = _dispatch_lp(grid, loads, cost, lo, hi, None)
    if not res.optimal:
        return DispatchSolution(outputs=None, cost=None, feasible=False)
    return DispatchSolution(outputs=res.x, cost=res.objective, feasible=True)


def assess_security(grid: GridModel, loads, dispatch, contingency: int, corrective_range: float = 20.0) -> int:
    """Label a pre-fault condition against a line-outage contingency.

    Returns 1 (secure) iff some corrective redispatch within
    ``+-corrective_range`` MW of the pre-fault outputs (intersected with
    generator limits) keeps every post-contingency line flow within its
    limit while preserving power balance.  Islanding the network counts
    as insecure (label 0), not as an error.
    """
    loads = np.asarray(loads, dtype=float)
    dispatch = np.asarray(dispatch, dtype=float)
    if corrective_range < 0:
        raise ValueError("corrective_range must be >= 0")
    if abs(dispatch.sum() - loads.sum()) > BALANCE_TOL:
        raise ValueError("pre-fault condition is not balanced")
    grid.line_by_id(contingency)
    if not _connected(grid, contingency):
        return 0

    inc = generator_incidence(grid)
    inj = inc @ dispatch - loads
    flows = _ptdf(grid, contingency) @ inj
    if np.all(np.abs(flows) <= grid.line_limits + 1e-9):
        return 1  # secure with zero corrective action

    lo, hi = _generator_bounds(grid, dispatch, corrective_range)
    if np.any(lo > hi):
        return 0
    res = _dispatch_lp(grid, loads, np.zeros(len(grid.generators)), lo, hi, contingency)
    return 1 if res.optimal else 0


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
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, MalformedFile):
            raise
        raise MalformedFile(f"bad network description: {exc}") from exc


def save_grid(grid: GridModel, path) -> None:
    Path(path).write_text(json.dumps(grid_to_dict(grid), indent=2) + "\n")


def load_grid(path) -> GridModel:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"invalid JSON in network file: {exc}", line=exc.lineno) from exc
    return grid_from_dict(data)


def six_bus() -> GridModel:
    """The packaged six-bus test network used by all experiments."""
    data = json.loads(resources.files("riskgate.data").joinpath("network.json").read_text())
    return grid_from_dict(data)
