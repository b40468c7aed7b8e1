"""DC power-flow and DC-OPF engine.

This module provides both halves of the data pipeline's physics: the
economic dispatch that creates pre-fault operating conditions, and the
exact post-contingency feasibility check that labels them secure or
insecure.  Both are one LP family per network, posed in one place
(`_dispatch_rhs`, a row of right-hand sides per condition): `solve_dcopf`
takes ``(m, n_buses)`` loads and solves their dispatch LPs as one
`simplex.solve_batch`, and `assess_security` solves the redispatch LP of
each condition its fast paths leave with `simplex.solve_lp`.
Everything is deterministic and pure; ``GridModel`` is
immutable (and hashable), derives each network array it needs once (the
intact network's at construction, an outage's on first use) and exposes
them read-only, so models can be shared freely across workers.  Each
derived `Topology` also owns the simplex's memo for its LPs
(``solve_lp``'s ``paths``: one prepared record per LP family, with its
pivot paths), which grows as they are solved and changes no result.

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

import functools
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import DataError, MalformedFile, integer, number, read_json
from .simplex import solve_batch, solve_lp

BALANCE_TOL = 1e-6  # MW; residual beyond this is an error, never absorbed
SECURE_TOL = 1e-9  # MW; a flow violated by at most this holds without redispatch
CERTIFIED_TOL = 1e-12  # MW; a best vertex violating no row by more than this is feasible up to rounding
UNDECIDED_TOL = 1e-6  # MW; best-vertex violations up to this are left to the LP
CORRECTIVE_RANGE_MW = 20.0  # MW; corrective redispatch moves each output by at most this
REACTANCE_RANGE = (1e-4, 1e4)  # p.u.; wider ratios of reactances overflow the network arrays
LIMIT_RANGE = (1e-3, 1e6)  # MW; near the LP tolerances (1e-6 MW) a limit means nothing, past 1e6 MW it is no limit
COST_RANGE = (-1e6, 1e6)  # $/MWh; a negative cost (a unit paid to run) is allowed, every output being bounded
_PARALLEL_TOL = 1e-12  # |sin| of the angle below which two polygon rows are parallel
_ALWAYS_SCORED_SIN = 1e-6  # |sin| at or below which a row pair is scored whatever its rows reach
_REACH_SLACK = 1e-6  # the reach test widens a box by this share of its largest |coordinate| + 1 MW
_CHUNK_FLOATS = 1 << 13  # 64 KB of float64 per array of (condition, pair) certificate vertices

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
class VertexPairs:
    """The vertex certificate's row pairs on one outage of a three-generator network.

    Substituting ``x3 = total - x1 - x2`` turns each redispatch row into a
    line ``plane . (x1, x2) = rhs`` whose right-hand side is per condition
    (see `_best_vertex_violation`); everything else is here, read-only.
    """

    rows: np.ndarray  # (R, 3): the 2·L flow rows [a_ub], then the bound rows [eye(3); -eye(3)]
    plane: np.ndarray  # (R, 2): rows[:, :2] - rows[:, 2:]
    i: np.ndarray  # (P,): the first row of each non-parallel pair, i < j
    j: np.ndarray  # (P,): its second row
    inverse: np.ndarray  # (2, 2, P): each pair's 2x2 plane matrix, inverted
    always: np.ndarray  # (P,) bool: |sin| <= _ALWAYS_SCORED_SIN, scored whatever its rows reach


def _vertex_pairs(a_ub) -> VertexPairs:
    """The certificate's pair data for the flow rows ``a_ub`` of a three-generator network."""
    rows = np.vstack([a_ub, np.eye(3), -np.eye(3)])
    plane = rows[:, :2] - rows[:, 2:]  # x3 = total - x1 - x2
    i, j = np.triu_indices(len(plane), 1)
    det = plane[i, 0] * plane[j, 1] - plane[i, 1] * plane[j, 0]
    norms = np.hypot(plane[:, 0], plane[:, 1])
    keep = np.abs(det) > _PARALLEL_TOL * norms[i] * norms[j]
    i, j, det = i[keep], j[keep], det[keep]
    inverse = np.array([[plane[j, 1], -plane[i, 1]], [-plane[j, 0], plane[i, 0]]]) / det
    always = np.abs(det) <= _ALWAYS_SCORED_SIN * norms[i] * norms[j]
    return VertexPairs(*map(_read_only, (rows, plane, i, j, inverse, always)))


@dataclass(frozen=True, eq=False)
class Topology:
    """Arrays of the network with one line out (or none); none if islanded.

    On a three-generator network it also holds the vertex certificate's
    `VertexPairs` -- its rows in the first two outputs, every
    non-parallel pair of them with its inverse, and which pairs are
    always scored -- derived with the rest, so that a batch of
    conditions pays only for its own right-hand sides and pairs.
    """

    islanded: bool
    live: np.ndarray | None = None  # positions of the lines in service
    b_inv: np.ndarray | None = None  # inverse of the slack-reduced susceptance matrix (p.u.)
    ptdf: np.ndarray | None = None  # line x bus; flows_mw = ptdf @ balanced injections_mw
    a_ub: np.ndarray | None = None  # redispatch LP flow rows [sens; -sens], sens = ptdf @ incidence
    pairs: VertexPairs | None = None  # the vertex certificate's pair data; three generators only
    paths: dict = field(default_factory=dict, repr=False)  # solve_lp's memo for this network's LPs


@dataclass(frozen=True)
class GridModel:
    """Immutable network description: buses, lines, generators.

    Construction derives, read-only and outside the dataclass fields (so
    ``==``, ``hash`` and the JSON form see only the network): the
    bus-by-generator 0/1 ``incidence``, the ``p_min``, ``p_max``, ``cost``
    and ``line_limits`` vectors, and the intact network's `Topology`; an
    outage's `Topology` is derived on the first `topology` call for it.
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
            if not REACTANCE_RANGE[0] <= ln.reactance <= REACTANCE_RANGE[1]:
                raise ValueError(f"line {ln.id}: reactance must lie in [{REACTANCE_RANGE[0]:g}, {REACTANCE_RANGE[1]:g}]"
                                 f" p.u., got {ln.reactance!r}")
            if not LIMIT_RANGE[0] <= ln.limit <= LIMIT_RANGE[1]:
                raise ValueError(f"line {ln.id}: flow limit must lie in [{LIMIT_RANGE[0]:g}, {LIMIT_RANGE[1]:g}] MW,"
                                 f" got {ln.limit!r}")
            if ln.from_bus not in known or ln.to_bus not in known:
                raise ValueError(f"line {ln.id}: unknown endpoint")
        for g in self.generators:
            if not COST_RANGE[0] <= g.cost <= COST_RANGE[1]:
                raise ValueError(f"generator {g.id}: cost must lie in [{COST_RANGE[0]:g}, {COST_RANGE[1]:g}] $/MWh,"
                                 f" got {g.cost!r}")
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
            ("_balance", np.ones((1, len(self.generators))), float),  # the DC-OPF's equality row
            ("line_limits", [ln.limit for ln in self.lines], float),
        ):
            object.__setattr__(self, name, _read_only(np.array(values, dtype=dtype)))
        object.__setattr__(self, "_line_ids", frozenset(ln.id for ln in self.lines))
        intact = self._derive_topology(None)
        if intact.islanded:
            raise ValueError("network graph is not connected")
        object.__setattr__(self, "_topologies", {None: intact})

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
            raise DataError(f"reduced susceptance matrix is singular (outage {outaged_line})") from exc
        theta = np.zeros((n, n))
        theta[np.ix_(self._keep, self._keep)] = b_inv
        ptdf = np.zeros((len(self.lines), n))
        live = np.array(live, dtype=int)
        ptdf[live] = (theta[self._from[live]] - theta[self._to[live]]) / self._x[live, None]
        sens = ptdf @ self.incidence  # line flow per unit of generator output
        a_ub = _read_only(np.vstack([sens, -sens]))
        pairs = _vertex_pairs(a_ub) if len(self.generators) == 3 else None
        return Topology(False, *map(_read_only, (live, b_inv, ptdf)), a_ub, pairs)

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def slack_index(self) -> int:
        return next(i for i, b in enumerate(self.buses) if b.slack)

    def bus_position(self, bus_id: int) -> int:
        return self._bus_pos[bus_id]

    def check_line(self, line_id: int) -> None:
        """Raise ValueError unless the network has a line ``line_id``."""
        if line_id not in self._line_ids:
            raise ValueError(f"unknown line id {line_id}")

    def topology(self, outaged_line: int | None = None) -> Topology:
        """Derived arrays with line ``outaged_line`` out (None: intact network), derived on first use."""
        top = self._topologies.get(outaged_line)
        if top is None:
            self.check_line(outaged_line)
            top = self._topologies[outaged_line] = self._derive_topology(outaged_line)
        return top


def solve_dc_power_flow(grid: GridModel, injection):
    """Bus angles (rad, slack = 0) and line flows (MW, from->to) of the intact network for net injections (MW).

    Raises
    ------
    ValueError
        If the injection vector is the wrong length or does not balance
        to zero within ``BALANCE_TOL``.
    """
    inj = np.asarray(injection, dtype=float)
    if inj.shape != (grid.n_buses,):
        raise ValueError(f"injection must have length {grid.n_buses}")
    if abs(inj.sum()) > BALANCE_TOL:
        raise ValueError(f"injections do not balance (residual {inj.sum():.3e} MW)")

    keep = grid._keep
    angles = np.zeros(grid.n_buses)
    angles[keep] = grid.topology().b_inv @ (inj[keep] / grid.base_mva)
    return angles, grid.base_mva * (angles[grid._from] - angles[grid._to]) / grid._x


def _dispatch_rhs(grid, top, loads):
    """The dispatch LP's ``b_eq`` and ``b_ub`` for ``(m, n_buses)`` loads, a row each."""
    # one product per row: a matrix product's bits could differ
    base_flow = np.array([top.ptdf @ -row for row in loads]).reshape(len(loads), len(grid.lines))
    limits = grid.line_limits
    return loads.sum(axis=1)[:, None], np.concatenate([limits - base_flow, limits + base_flow], axis=1)


def solve_dcopf(grid: GridModel, loads) -> list:
    """Cost-minimal dispatch under power balance, generator and flow limits, one condition per row.

    Parameters
    ----------
    loads : array (m, n_buses)
        Per-bus load in MW, all finite and >= 0, one condition per row.

    Returns
    -------
    list
        One outcome per row, from one `simplex.solve_batch`: the
        `LPResult` that `simplex.solve_lp` gives that row alone, with its
        bits (``x`` the per-generator outputs in MW, ``objective`` the
        cost in $; both None, and ``optimal`` False, when no dispatch
        satisfies the constraints), or, in its place, the error such a
        call raises.  A row that fails stops no other.

    Raises
    ------
    ValueError
        Before any LP, if the loads are not ``(m, n_buses)``, or a row
        (the first such, named) holds a negative value, a NaN or an
        infinity.
    """
    loads = np.asarray(loads, dtype=float)
    if loads.ndim != 2 or loads.shape[1] != grid.n_buses:
        raise ValueError(f"loads must have shape (m, {grid.n_buses})")
    negative = ~(loads >= 0).all(axis=1)  # NaN fails this too
    bad = negative | np.isinf(loads).any(axis=1)
    if bad.any():
        j = int(bad.argmax())
        raise ValueError(f"loads row {j} must be {'nonnegative' if negative[j] else 'finite'}")
    top = grid.topology(None)
    b_eq, b_ub = _dispatch_rhs(grid, top, loads)
    # the solves that record go through this module's solve_lp, as the security LPs do
    return solve_batch(grid.cost, grid._balance, b_eq, top.a_ub, b_ub, grid.p_min, grid.p_max,
                       paths=top.paths, solve=solve_lp)


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


def _reaching_pairs(pairs: VertexPairs, rhs, lo, hi):
    """The ``(condition, pair)`` indices, condition-major, that `_best_vertex_violation` scores.

    A pair is scored unless one of its rows' lines misses the condition's
    box in ``(x1, x2)`` widened by ``2·UNDECIDED_TOL + _REACH_SLACK·(X +
    1)`` MW, where ``X`` is the box's largest |coordinate|; bound rows
    always meet it, and pairs at or below ``_ALWAYS_SCORED_SIN`` are
    always scored.  A NaN, from an infinite box, counts as meeting.
    """
    n_flow = len(pairs.plane) - 6
    plane = pairs.plane[:n_flow]
    centre = (lo[:, :2] + hi[:, :2]) / 2
    reach = (hi[:, :2] - lo[:, :2]) / 2 + 2 * UNDECIDED_TOL + _REACH_SLACK * (
        np.maximum(np.abs(lo[:, :2]), np.abs(hi[:, :2])).max(axis=1, keepdims=True) + 1.0)
    meets = np.ones(rhs.shape, dtype=bool)
    meets[:, :n_flow] = ~(np.abs(rhs[:, :n_flow] - centre @ plane.T) > reach @ np.abs(plane).T)
    return np.nonzero(meets[:, pairs.i] & meets[:, pairs.j] | pairs.always)


def _best_vertex_violation(grid, top, loads, lo, hi) -> np.ndarray:
    """Per condition, the smallest largest row violation (MW) over its redispatch polygon's vertices.

    Three generators only: substituting the last unit through the balance
    equality leaves a polygon in the first two outputs, cut by the 2·L
    flow rows and the 2·3 bound rows.  The box bounds it, so it is
    nonempty iff the crossing of some non-parallel pair of rows violates
    no row.  The pairs and their inverses are the outage's
    `VertexPairs`, derived once with its `Topology`.

    A vertex that breaks one of the six bound rows by more than
    ``UNDECIDED_TOL`` cannot be a condition's best under that tolerance,
    so only the vertices ``inside`` the box are scored on every row.  The
    result is exact where it is at most ``UNDECIDED_TOL``, the same float
    as scoring every vertex, and above ``UNDECIDED_TOL`` otherwise
    (``inf`` when no vertex is in the box).

    Pruning.  Most flow rows' lines miss a condition's box, and so does
    every vertex on them, so `_reaching_pairs` drops those pairs before
    their vertices are built; it never drops one that could pass
    ``inside``, so the result keeps its bits.  The bound, with ``u =
    2**-53``: a vertex ``v`` that passes ``inside`` lies within
    ``UNDECIDED_TOL`` (and an ulp) of the box ``[lo1, hi1] × [lo2, hi2]``.
    Rounding in the pair's determinant, its inverse and ``inverse @ rhs``
    leaves ``v`` off each of its two rows ``a . x = r`` by at most
    ``8·u·|a|·|v| / s`` MW to first order, where ``s`` is the pair's
    |sin| (its determinant over its rows' norms).  With ``|v| <=
    sqrt(2)·(X + 1)``, ``X`` the box's largest |coordinate|, and ``s >
    _ALWAYS_SCORED_SIN = 1e-6`` for every pair that may be dropped, that
    is under ``1.3e-9·(X + 1)·(|a0| + |a1|)``.  So both rows' lines meet
    the box widened by ``UNDECIDED_TOL + 1.3e-9·(X + 1)`` (and an ulp),
    while the reach test widens it by ``2·UNDECIDED_TOL + 1e-6·(X + 1)``:
    over 700 times the rounding bound, which also covers the reach
    test's own few ulps.  Nearer-parallel pairs are always scored.

    The surviving ``(condition, pair)`` vertices are built ``_CHUNK_FLOATS``
    at a time, and the inside ones scored ``_CHUNK_FLOATS // rows`` at a
    time, each slice's worst violations folded into ``best`` in place.
    """
    pairs = top.pairs
    base_flow = _fixed_order_product(loads, -top.ptdf)  # a condition's bits whatever its batch
    limits = grid.line_limits
    rhs = np.hstack([limits - base_flow, limits + base_flow, hi, -lo]) - loads.sum(axis=1)[:, None] * pairs.rows[:, 2]
    cond, pair = _reaching_pairs(pairs, rhs, lo, hi)
    best = np.full(len(loads), np.inf)
    step = max(_CHUNK_FLOATS // len(pairs.rows), 1)
    for s in range(0, len(cond), _CHUNK_FLOATS):
        c, p = cond[s:s + _CHUNK_FLOATS], pair[s:s + _CHUNK_FLOATS]
        ri, rj = rhs[c, pairs.i[p]], rhs[c, pairs.j[p]]
        v0, v1 = (pairs.inverse[a, 0, p] * ri + pairs.inverse[a, 1, p] * rj for a in (0, 1))
        # the bound rows' planes are (1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1), so the
        # full product gives them v0, v1 or +-(v0 + v1) exactly: these are its violations, bit for bit
        box = rhs[c, -6:].T
        inside = ((v0 - box[0] <= UNDECIDED_TOL) & (v1 - box[1] <= UNDECIDED_TOL)
                  & (-(v0 + v1) - box[2] <= UNDECIDED_TOL) & (-v0 - box[3] <= UNDECIDED_TOL)
                  & (-v1 - box[4] <= UNDECIDED_TOL) & (v0 + v1 - box[5] <= UNDECIDED_TOL))
        keep = np.flatnonzero(inside)
        for t in range(0, keep.size, step):
            k = keep[t:t + step]
            if k.size == 1:  # a one-row product goes to BLAS gemv, whose bits can differ from gemm's
                k = np.repeat(k, 2)
            violation = np.stack([v0[k], v1[k]], axis=-1) @ pairs.plane.T
            violation -= rhs[c[k]]
            np.minimum.at(best, c[k], violation.max(axis=1))
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

    Wherever the LP decides -- the one-condition form, the band, and
    every condition when G != 3 -- its policy is phase 1 of
    `simplex.solve_lp`: Bland's rule stops once no reduced cost is below
    ``-PIVOT_TOL``, and an artificial sum then above ``FEAS_TOL`` (1e-7)
    means insecure.  So a condition whose true infeasibility is below
    ``FEAS_TOL`` can still be labelled insecure;
    `test_batched_label_matches_single_label_where_the_lp_stops_short_of_secure_tol`
    in tests/test_grid.py pins one, whose best vertex violates a row by
    5.2e-10 MW.

    Raises ``ValueError`` if ``corrective_range`` is negative or NaN, if
    ``loads`` or ``dispatch`` holds a NaN or an infinity, or if they are
    not ``n_buses`` and ``G`` wide.
    """
    loads = np.asarray(loads, dtype=float)
    dispatch = np.asarray(dispatch, dtype=float)
    if not corrective_range >= 0:  # NaN would empty every redispatch box
        raise ValueError(f"corrective_range must be >= 0, got {corrective_range}")
    for name, values in (("loads", loads), ("dispatch", dispatch)):
        if not np.isfinite(values).all():  # the balance check passes NaN
            raise ValueError(f"{name} must be finite")
    single, shapes = loads.ndim == 1, (loads.shape, dispatch.shape)
    loads, dispatch = np.atleast_2d(loads), np.atleast_2d(dispatch)
    if loads.ndim != 2 or len(loads) != len(dispatch):
        raise ValueError("loads and dispatch must describe the same conditions")
    if loads.shape[1] != grid.n_buses or dispatch.shape[1] != len(grid.generators):
        raise ValueError(f"loads of shape {shapes[0]} and dispatch of shape {shapes[1]} do not fit a network of "
                         f"{grid.n_buses} buses and {len(grid.generators)} generators")
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
        if not single and top.pairs is not None and rest.size:
            best = _best_vertex_violation(grid, top, loads[rest], lo[rest], hi[rest])
            labels[rest[best <= CERTIFIED_TOL]] = 1
            rest = rest[(best > CERTIFIED_TOL) & (best <= UNDECIDED_TOL)]
        if rest.size:  # the fast paths and the certificate often leave nothing to the LP
            zero_cost = np.zeros(len(grid.generators))
            b_eq, b_ub = _dispatch_rhs(grid, top, loads[rest])
            for k, row_eq, row_ub in zip(rest, b_eq, b_ub):
                labels[k] = int(solve_lp(zero_cost, grid._balance, row_eq, top.a_ub, row_ub, lo[k], hi[k],
                                         paths=top.paths).optimal)
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


def _true_or_false(value, what) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"{what} must be true or false, got {value!r}")
    return value


def grid_from_dict(data: dict) -> GridModel:
    """The network that ``data`` (the JSON form of `grid_to_dict`) describes.

    Ids and buses must be JSON integers, every other value a finite
    number, and a bus's optional ``slack`` true or false.
    """
    try:
        if data.get("version", NETWORK_SCHEMA_VERSION) != NETWORK_SCHEMA_VERSION:
            raise MalformedFile(f"unsupported network schema version {data['version']}")

        def read(kind, make, integers, reals):
            return tuple(make(*(integer(entry[f], f"{kind}[{k}].{f}") for f in integers),
                              *(number(entry[f], f"{kind}[{k}].{f}") for f in reals))
                         for k, entry in enumerate(data[kind]))

        return GridModel(
            buses=tuple(Bus(integer(b["id"], f"buses[{k}].id"),
                            _true_or_false(b.get("slack", False), f"buses[{k}].slack"))
                        for k, b in enumerate(data["buses"])),
            lines=read("lines", Line, ("id", "from_bus", "to_bus"), ("reactance", "limit")),
            generators=read("generators", Generator, ("id", "bus"), ("p_min", "p_max", "cost")),
            base_mva=number(data.get("base_mva", 100.0), "base_mva"),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # AttributeError: not a JSON object
        raise MalformedFile(f"bad network description: {exc}") from exc


def load_grid(path) -> GridModel:
    data = read_json(path)
    try:
        return grid_from_dict(data)
    except MalformedFile as exc:
        raise MalformedFile(f"{path}: {exc}") from exc


@functools.cache
def six_bus() -> GridModel:
    """The packaged six-bus test network used by all experiments: one object per process.

    It is built on the first call, so its outages' `Topology` arrays and
    their ``paths`` memos carry over to every later command, study and
    call in the process; the memo changes no result, only how much of an
    LP is solved afresh.  A `load_grid` network is a new object per call.
    """
    data = json.loads(resources.files("riskgate.data").joinpath("network.json").read_text())
    return grid_from_dict(data)
