"""Dense two-phase primal simplex solver with a memo of prepared LPs and their pivot paths, one LP or a batch.

Solves small linear programs of the form

    minimize    cost . x
    subject to  a_eq x == b_eq
                a_ub x <= b_ub
                lower <= x <= upper

Bland's anti-cycling rule is used throughout, which makes the solver
deterministic and guarantees termination on degenerate problems; both of
its scans (first improving column, then the tied leaving row with the
smallest basis index) are array operations.  Problem sizes in this
package are tiny (tens of rows), so the dense tableau is the right
trade-off: no dependencies, and bit-identical results for identical
inputs.

Tableau layout, for ``n`` variables shifted to ``x - lower >= 0`` and
``m`` rows (equality rows, then inequality rows, then one row per finite
upper bound), each negated where its right-hand side is negative::

    rows 0 .. m-1   constraints    [ A | slacks | rhs ]
    row  m          phase-2 cost   [ cost, 0    | 0   ]
    row  m+1        phase-1 cost   [ -column sums of the constraint rows ]

Columns ``0 .. n-1`` are the variables, ``n .. k-1`` one slack per
inequality row, and the last is the right-hand side, which the code
keeps apart from the others (see Pivot paths).  Each row starts
with an artificial variable basic in it; an artificial has no column,
only its basis label ``k + row``, because it never re-enters.  A pivot
eliminates the entering column from every row, the two cost rows
included, so phase 2 starts from a canonical cost row.

Most pivots (about three in four on a six-bus DC-OPF) enter the slack of
a row ``r`` that was not negated and has not pivoted.  That column is
still the unit vector ``e_r``: the ratio test can only pick row ``r``,
dividing it by 1.0 changes nothing, and every other constraint row has a
zero factor.  Such a step updates only the two cost rows, with the same
multiply and subtract as the full elimination.  Skipping ``t - 0 * row``
can change only the sign of a zero entry, which no comparison sees, so
Bland's choices stay the same while the tableau is finite.  ``x`` keeps
its bits too: one of its columns enters only by a full pivot, whose
``row - 0.0 * row`` leaves no -0.0 in its row, and a subtraction yields
-0.0 only from -0.0, so on either path no basic component of ``x`` is
ever -0.0.

Pivot paths.  Every column of the tableau but the right-hand side
depends only on the LP's constant data -- the cost, the stacked
constraint matrix ``[a_eq; a_ub; eye(n)[bounded]]``, the number of
equality rows and which rows ``b < 0`` negates -- and on the pivots
taken so far.  Bland's entering column, the unit-slack shortcut, the
phase-1 drive-out of artificials and the tie rule's basis labels read
only those shared columns; only the ratio test reads the right-hand
side.  LPs with equal constant data form a family, keyed by its bytes,
and a family's pivot paths form a tree (the critical regions of a
multiparametric LP, Gal and Nedoma 1972).  A `_Node` is one segment of
a path: the shared steps up to its next ratio test (a shortcut as its
two cost-row multipliers, the phase-1 verdict, a drive-out pivot), then
the entering column's constraint entries and basis labels for that
test and one child per leaving row seen so far, whose first step is
that row's pivot element and elimination column; or, at the end of a
path, the optimal basis.

What is per LP.  A solve carries only its own ``m+2`` right-hand-side
entries down the tree, as Python floats: each step divides, multiplies
and subtracts them in the order the full elimination does, and a
Python float operation on IEEE doubles rounds once, exactly like
numpy's elementwise one, so every entry gets the bits it would get as
the tableau's last column.  The solve makes its own ratio test (with
numpy's NaN rule), phase-1 verdict (``FEAS_TOL``), iteration count and
finite check on exit.  Where its ratio test picks a leaving row the
tree has not seen, it rebuilds the shared columns by replaying the
recorded steps from the family's initial tableau, pivots them and
records the new segments as it goes on.  No node keeps a tableau.

How a solve ends.  A non-finite entry never turns finite again, so
recording checks the shared columns where a solve can stop (a ratio
test, the optimum, just before the phase-1 verdict, which changes no
column) and ends a segment, as overflowing, at the first such point
where they are not finite.  Short of the optimum, a solve ends
infeasible at the verdict (artificial sum above ``FEAS_TOL``); with
`UnboundedLP` at a ratio test; with ``RuntimeError`` at ``_MAX_ITER``
iterations; or with the overflow ``ValueError`` where it completes an
overflowing segment, or its own right-hand side is not finite on any
exit.  That check is why the replay carries ``rhs[m]``, the negated
objective: a full tableau whose only non-finite entry is that one raised.
`solve_lp` owns these edge cases and those of its inputs (non-finite
data, ``upper < lower``, no constraint rows); a batch hands every member
that meets one to it.

Prepared records.  The memo is the caller's ``paths`` dict (``grid``
keeps one per network topology); a call without one starts from an
empty memo.  It holds one `_Prepared` record per constant-data key: the
bytes and shapes of ``cost``, ``a_eq`` and ``a_ub`` and which upper
bounds are finite.  The record holds what those alone decide -- the
stacked ``[a_eq; a_ub; eye(n)[bounded]]``, whether it and the cost are
finite, the number of equality rows -- and the family's pivot-path
trees, one per sign pattern ``b < 0``.  A call converts and checks only
its right-hand sides and bounds; the first call of a key prepares it.

Batches.  `solve_batch` solves many LPs of one key that differ only in
``b_eq`` and ``b_ub``: each sign pattern's members are the columns of one
``(m+2, members)`` array, which goes down the memo's tree as one group.
Every recorded step is the same elementwise divide, multiply and
subtract on a row of it (a run of shortcuts forms its products first,
then subtracts them in step order), and a group splits at each ratio
test by leaving row.  A member goes along the regular path only: the
recorded steps, the ``FEAS_TOL`` verdict, a ratio test whose ratios are
all finite (there numpy's minimum is `solve_lp`'s) and an optimum whose
right-hand side is finite; the iteration count depends only on the
path, so a group shares it.  Any other member is solved alone with
`solve_lp`, whose result or exception is then the member's by
construction.  The walk never records: where a group reaches a leaving
row the tree has no child for, its members are solved alone until one
has recorded the child, and the rest go on below it.  So
`solve_lp` stays the one place that builds a tableau, and every branch
is recorded by one LP.  Arrays pay per step: on a known six-bus DC-OPF
path one member takes about 210 µs in the array walk against about 80
µs in `solve_lp`'s scalar replay, while 200 members take about 5.3 ms
against 13.5 ms for 200 `solve_lp` calls (timeit, 2-vCPU VM).  So
`solve_lp` keeps its scalar replay, `_follow`, and a group of fewer than
``_SCALAR_BELOW`` members goes on member by member with it: about one
member in six on a 200-condition pool, and a generate-pool op 3-6%
faster than with the array walk alone (two series of ten alternating
pairs).  Solving those members with `solve_lp` from the start instead
gains nothing over the array walk.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import groupby

import numpy as np

from .errors import UnboundedLP

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7

_MAX_ITER = 100_000

# How a solve ends short of its optimum, as new objects.
_overflowed = partial(ValueError, "simplex tableau overflowed: the LP's coefficients are too large")
_unbounded = partial(UnboundedLP, "unbounded direction in simplex")
_iteration_limit = partial(RuntimeError, "simplex iteration limit exceeded")

# Kinds of a recorded step ``(kind, row, entering column, p, f)``.  ``p`` and
# ``f`` are what a right-hand side needs of the shared columns, as floats.
_SHORTCUT = 0  # p, f: the phase-2 and phase-1 cost rows' entries of the entering unit-slack column
_PIVOT = 1  # a ratio test's pivot; p: the pivot element, f: the elimination column (0.0 in the row) as array("d")
_DRIVE_OUT = 2  # a phase-1 artificial driven out, as _PIVOT; not an iteration
_VERDICT = 3  # phase 1 ends: infeasible unless its artificial sum is within FEAS_TOL


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible"
    x: np.ndarray | None
    objective: float | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


_infeasible = partial(LPResult, "infeasible", None, None)


class _Prepared:
    """What one constant-data key decides (see Prepared records in the module docstring)."""

    __slots__ = ("a", "n_eq", "finite", "families")

    def __init__(self, c, a_eq, a_ub, bounded):
        self.a = np.vstack([a_eq, a_ub, np.eye(c.size)[bounded]])
        self.n_eq = len(a_eq)
        self.finite = bool(np.isfinite(c).all() and np.isfinite(self.a).all())
        self.families = {}  # sign pattern (b < 0).tobytes() -> (initial tableau, root _Node)


class _Node:
    """One segment of a family's pivot path (see the module docstring)."""

    __slots__ = ("steps", "overflows", "entering", "rows", "col", "labels", "children", "basis", "program")

    def __init__(self):
        self.steps = []
        self.overflows = False  # the shared columns are not finite after the last step
        self.children = None  # leaving row -> _Node, at a ratio test
        self.basis = None  # at the optimum
        self.program = None  # the steps and ratio test as a batch runs them, built on first use


class _Tableau:
    """A family's shared tableau columns at one point of a pivot path, with its basis."""

    def __init__(self, t, basis, unit, n, n_eq, cost_row):
        self.t, self.basis, self.unit = t, basis, unit
        self.n, self.n_eq, self.cost_row = n, n_eq, cost_row

    def copy(self) -> _Tableau:
        return _Tableau(self.t.copy(), self.basis.copy(), self.unit.copy(), self.n, self.n_eq, self.cost_row)

    def step(self, kind: int, r: int, col: int) -> None:
        t, m = self.t, len(self.t) - 2
        if kind == _VERDICT:
            self.cost_row = m
            return
        if kind == _SHORTCUT:
            np.subtract(t[m:], t[m:, col, None] * t[r], out=t[m:])
        else:
            factors = t[:, col, None].copy()
            factors[r] = 0.0
            t[r] /= t[r, col]
            np.subtract(t, factors * t[r], out=t)
        self.basis[r] = col
        self.unit[r] = False  # row r's slack column is no longer e_r

    def pivot_step(self, kind: int, r: int, col: int) -> tuple:
        """Step ``kind`` (_PIVOT or _DRIVE_OUT) on row ``r`` and column ``col``, applied."""
        factors = array("d", self.t[:, col].tolist())
        factors[r] = 0.0
        step = (kind, r, col, float(self.t[r, col]), factors)
        self.step(kind, r, col)
        return step

    def record(self, first=None) -> _Node:
        """Step Bland's rule from here, after pivot ``(row, column)`` ``first``, to the next ratio test or optimum.

        The tableau is checked where a solve can stop -- at a ratio test,
        the phase-1 verdict and the optimum -- and the segment ends,
        overflowing, at the first of those where it is not finite.
        """
        node, t = _Node(), self.t
        m, k = len(t) - 2, t.shape[1]
        steps = node.steps
        if first is not None:
            steps.append(self.pivot_step(_PIVOT, *first))
        while True:
            # Bland: the first improving column enters.
            improving = t[self.cost_row, :k] < -PIVOT_TOL
            entering = int(improving.argmax())
            r = entering - self.n + self.n_eq
            if improving[entering] and entering >= self.n and self.unit[r]:
                # Only row r can leave, and only the cost rows change.
                steps.append((_SHORTCUT, r, entering, float(t[m, entering]), float(t[m + 1, entering])))
                self.step(_SHORTCUT, r, entering)
                continue
            if not np.isfinite(t).all():
                node.overflows = True
                return node
            if improving[entering]:
                rows = np.flatnonzero(t[:m, entering] > PIVOT_TOL)
                node.entering, node.rows = entering, tuple(rows.tolist())
                node.col, node.labels = tuple(t[rows, entering].tolist()), tuple(self.basis[rows].tolist())
                node.children = {}
                return node
            if self.cost_row == m:
                node.basis = self.basis.copy()
                return node
            steps.append((_VERDICT, None, None, None, None))
            self.step(_VERDICT, None, None)
            # Drive leftover basic artificials out; rows that cannot pivot are
            # redundant and harmless (the artificial stays basic at value 0).
            for r in np.flatnonzero(self.basis >= k).tolist():
                cols = np.flatnonzero(np.abs(t[r, :k]) > PIVOT_TOL)
                if cols.size:
                    steps.append(self.pivot_step(_DRIVE_OUT, r, int(cols[0])))


def _replay(start: _Tableau, steps) -> _Tableau:
    """The shared columns after ``steps`` from the family's initial tableau ``start``."""
    tableau = start.copy()
    for kind, r, col, _, _ in steps:
        tableau.step(kind, r, col)
    return tableau


def _follow(node: _Node, rhs: list, iterations: int, grow=None) -> tuple:
    """Carry one right-hand side, ``rhs`` (``m+2`` floats), down the tree from the start of ``node``.

    ``iterations`` is the count so far.  Where the ratio test picks a row
    ``r`` that ``node`` has no child for, ``grow(path, r)`` (the nodes
    passed, ``node`` last) may record the child; if it does not, the walk
    stops there.  Returns ``(node, rhs, iterations, r)``: ``node`` is None
    if phase 1 ends infeasible, and ``r`` None at the optimum.  Raises as
    `solve_lp` does (see How a solve ends).
    """
    # Python floats are IEEE doubles: each step below rounds every entry
    # once, with the same operation as numpy's elementwise one in
    # `_Tableau.step`, so the right-hand side gets the full elimination's bits.
    m, path = len(rhs) - 2, []
    try:
        while True:
            for kind, r, _, p, f in node.steps:
                if kind == _SHORTCUT:
                    v = rhs[r]
                    rhs[m] -= p * v
                    rhs[m + 1] -= f * v
                elif kind == _VERDICT:
                    if -rhs[m + 1] > FEAS_TOL:
                        return None, rhs, iterations, None
                    iterations = 0
                    continue
                else:
                    v = rhs[r] = rhs[r] / p
                    rhs = [e - factor * v for e, factor in zip(rhs, f)]
                    if kind == _DRIVE_OUT:
                        continue
                iterations += 1
                if iterations == _MAX_ITER:
                    raise _iteration_limit()
            if node.overflows:
                raise _overflowed()
            if node.children is None:
                return node, rhs, iterations, None
            # The ratio test, as numpy's minimum would make it: a NaN ratio, or no
            # finite minimum, means an unbounded direction ...
            ratios = [rhs[i] / entry for i, entry in zip(node.rows, node.col)]
            best = min(ratios, default=math.inf)
            if not math.isfinite(best) or math.isnan(sum(ratios)):
                raise _unbounded()
            # ... and among the tied rows, the smallest basis label leaves.
            cut = best + PIVOT_TOL
            r = min((label, i) for q, label, i in zip(ratios, node.labels, node.rows) if q <= cut)[1]
            path.append(node)
            child = node.children.get(r)
            if child is None and grow is not None:
                child = grow(path, r)
            if child is None:
                return node, rhs, iterations, r
            node = child
    finally:
        # The right-hand side's check on every exit (see How a solve ends).
        if not all(map(math.isfinite, rhs)):
            raise _overflowed()


def _optimal(c, lo, k: int, basis, rhs) -> LPResult:
    """The solution whose basic variables ``basis`` take the right-hand side's first ``m`` entries."""
    m, n = len(basis), c.size
    xfull = np.zeros(k + m)
    xfull[basis] = rhs[:m]
    x = lo + xfull[:n]
    return LPResult("optimal", x, float(c @ xfull[:n] + c @ lo))


def _start(b) -> tuple:
    """Which rows ``b < 0`` negates, and the right-hand side a solve starts from: ``b`` so negated, 0.0, phase 1.

    ``b`` is one LP's, or one per row; a row's sums have the bits of a vector's.
    """
    neg = b < 0
    rhs = np.zeros(b.shape[:-1] + (b.shape[-1] + 2,))
    rhs[..., :-2] = b
    rhs[..., :-2][neg] *= -1.0
    rhs[..., -1] = -rhs[..., :-2].sum(axis=-1)
    return neg, rhs


def _shared_data(cost, a_eq, a_ub, lower, upper, paths):
    """``cost``, ``lower`` and ``upper`` as arrays, which upper bounds are finite, and the key's `_Prepared` record.

    Raises ValueError on a non-finite lower bound, or a NaN or -inf upper one.
    """
    c = np.asarray(cost, dtype=float)
    n = c.size
    lo = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    hi = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    if not np.isfinite(lo).all():
        raise ValueError("lower bounds must be finite")
    if not (hi > -np.inf).all():
        raise ValueError("upper bounds must not be NaN or -inf")

    # Shift x = lo + x' so that x' >= 0; finite upper bounds become rows.
    bounded = np.isfinite(hi)
    a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    a_ub = np.zeros((0, n)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, dtype=float))
    key = (c.shape, c.tobytes(), a_eq.shape, a_eq.tobytes(), a_ub.shape, a_ub.tobytes(), bounded.tobytes())
    prepared = paths.get(key)
    if prepared is None:
        prepared = paths[key] = _Prepared(c, a_eq, a_ub, bounded)
    return c, lo, hi, bounded, prepared


def solve_lp(
    cost,
    a_eq=None,
    b_eq=None,
    a_ub=None,
    b_ub=None,
    lower=None,
    upper=None,
    *,
    paths: dict | None = None,
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
        ``upper`` defaults to +inf, its one non-finite value.
    paths : dict, optional
        The memo to read and extend (see Prepared records and Pivot
        paths in the module docstring): pass the same dict to calls
        that share a cost and constraint matrix, so that each finds
        their stacked, checked constant data prepared and replays the
        pivot paths the others took.  One dict may serve several such
        families.  It changes no result.  Without it the call starts
        from an empty memo.

    Returns
    -------
    LPResult
        ``status == "infeasible"`` leaves ``x`` and ``objective`` None.

    Raises
    ------
    UnboundedLP
        If the objective is unbounded below on the feasible set.
    ValueError
        If an input is NaN or infinite (other than +inf in ``upper``),
        or the tableau overflows (see How a solve ends).
    RuntimeError
        At the iteration limit.
    """
    c, lo, hi, bounded, prepared = _shared_data(cost, a_eq, a_ub, lower, upper, {} if paths is None else paths)
    n = c.size
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=float))
    b = np.concatenate([b_eq, b_ub, hi[bounded]])
    if not (prepared.finite and np.isfinite(b).all()):
        raise ValueError("cost and constraints must be finite")
    if (hi < lo).any():
        return LPResult("infeasible", None, None)
    a, n_eq = prepared.a, prepared.n_eq
    m = len(a)
    if m == 0:
        if np.any(c < -PIVOT_TOL):
            raise UnboundedLP("no constraints and a negative cost coefficient")
        return LPResult("optimal", lo.copy(), float(c @ lo))

    with np.errstate(all="ignore"):  # as in solve_batch: a right-hand side that overflows ends the solve below
        neg, flat = _start(b - np.vecdot(a, lo))  # one dot per row, as a row @ lo
    rhs = flat.tolist()

    k = n + m - n_eq
    sign = neg.tobytes()
    family = prepared.families.get(sign)
    tableau = None  # the shared columns where this solve is, once it has needed them
    if family is None:
        # Standard form: equality rows first, then one slack per inequality row.
        t = np.zeros((m + 2, k))
        t[:m, :n] = a
        t[n_eq:m, n:k] = np.eye(m - n_eq)
        t[np.flatnonzero(neg)] *= -1.0
        t[m, :n] = c
        t[m + 1] = -t[:m].sum(axis=0)
        t.setflags(write=False)
        start = _Tableau(t, np.arange(k, k + m), ~neg, n, n_eq, m + 1)  # artificials basic
        tableau = start.copy()
        family = prepared.families[sign] = (start, tableau.record())
    start, node = family

    def grow(path, r):  # record the branch: the shared columns, rebuilt once, pivot on row r
        nonlocal tableau
        if tableau is None:
            tableau = _replay(start, (step for seen in path for step in seen.steps))
        child = path[-1].children[r] = tableau.record((r, path[-1].entering))
        return child

    node, rhs, _, _ = _follow(node, rhs, 0, grow)
    if node is None:
        return _infeasible()
    return _optimal(c, lo, k, node.basis, rhs)


# -- batches -----------------------------------------------------------------


_NO_LABEL = np.iinfo(np.intp).max  # above every basis label, for the tie rule's argmin
_SCALAR_BELOW = 4  # a group smaller than this walks member by member, as solve_lp does


def _program(node: _Node) -> tuple:
    """``node``'s steps, ratio test and iteration counts as `_walk` runs them, built on the node's first batch.

    A run of shortcuts is one step ``(_SHORTCUT, rows, pf, None)``: they
    change only the two cost rows, so every product ``[p, f] * rhs[row]``
    can be formed at once and then subtracted in step order.  Another step
    is ``(kind, row, p, f)``, with ``f`` a column.  The counts are the
    iterations before the node's verdict (all of them, without one) and
    after it (None without one).
    """
    if node.program is None:
        steps = []
        for shortcuts, run in groupby(node.steps, key=lambda step: step[0] == _SHORTCUT):
            run = list(run)
            if shortcuts:
                steps.append((_SHORTCUT, np.array([step[1] for step in run]),
                              np.array([step[3:] for step in run])[:, :, None], None))
            else:
                steps.extend((kind, r, p, None if f is None else np.frombuffer(f)[:, None])
                             for kind, r, _, p, f in run)
        test = None
        if node.children is not None:
            test = np.array(node.rows, dtype=np.intp), np.array(node.col)[:, None], np.array(node.labels)[:, None]
        counted = [step[0] for step in node.steps if step[0] != _DRIVE_OUT]
        verdict = counted.index(_VERDICT) if _VERDICT in counted else None
        counts = (len(counted), None) if verdict is None else (verdict, len(counted) - verdict - 1)
        node.program = steps, test, counts
    return node.program


def _follow_member(node: _Node, rhs: list, iterations: int, optimal):
    """A member's outcome down the tree from the start of ``node``, by `_follow`; None off the regular path."""
    try:
        node, rhs, _, r = _follow(node, rhs, iterations)
    except (ValueError, RuntimeError, UnboundedLP):
        return None
    if node is None:
        return _infeasible()
    return None if r is not None else optimal(node.basis, rhs)


def _walk(node: _Node, idx, rhs, iterations: int, out: list, optimal, alone) -> None:
    """Carry members ``idx`` down the tree from the start of ``node``, along the regular path only.

    Column ``j`` of ``rhs`` is member ``idx[j]``'s right-hand side.  Each
    step is `solve_lp`'s, on a row of ``rhs`` instead of a float; each
    member's outcome goes to ``out[member]``: `_infeasible` at the verdict
    or ``optimal(basis, rhs)`` at the optimum, where its right-hand side
    is finite.  A group under ``_SCALAR_BELOW`` goes on member by member
    with `_follow`.  Every other member is solved by ``alone(member)``
    (`solve_lp`): a whole group at an overflowing node, where it would
    reach ``_MAX_ITER`` or at a ratio test with no rows; a member whose
    ratios are not all finite, or whose right-hand side is not finite
    where it would end; and, at a leaving row the tree has no child for,
    members one by one until a solve has recorded the child, the rest
    going on below it.  Call under ``np.errstate(all="ignore")``.
    """
    m = len(rhs) - 2
    work = [(node, idx, rhs, iterations)]
    while work:
        node, idx, rhs, iterations = work.pop()
        if len(idx) < _SCALAR_BELOW:  # member by member, with solve_lp's own replay
            for j, column in zip(idx.tolist(), rhs.T.tolist()):
                outcome = _follow_member(node, column, iterations, optimal)
                out[j] = alone(j) if outcome is None else outcome
            continue
        steps, test, (before, after) = node.program or _program(node)
        # The iteration count depends only on the path, so the limit is the whole group's.
        ended = iterations + before if after is None else after
        if node.overflows or max(iterations + before, ended) >= _MAX_ITER:
            for j in idx.tolist():
                out[j] = alone(j)
            continue
        for kind, r, p, f in steps:
            if kind == _SHORTCUT:
                if len(r) == 1:
                    cost = rhs[m:]
                    cost -= p[0] * rhs[r[0]]
                else:  # the products at once, then subtracted in step order, as solve_lp does
                    products = np.empty((len(r) + 1, 2, len(idx)))
                    products[0] = rhs[m:]
                    np.multiply(p, rhs[r, None], out=products[1:])
                    np.subtract.reduce(products, axis=0, out=rhs[m:])
            elif kind == _VERDICT:
                infeasible = -rhs[m + 1] > FEAS_TOL
                if infeasible.any():
                    finite = np.isfinite(rhs).all(axis=0)
                    for j, ok in zip(idx[infeasible].tolist(), finite[infeasible].tolist()):
                        out[j] = _infeasible() if ok else alone(j)
                    idx, rhs = idx[~infeasible], rhs[:, ~infeasible]
            else:
                row = rhs[r]
                row /= p
                rhs -= f * row
        if not idx.size:
            continue
        if test is None:  # the optimum
            for j, column in zip(idx.tolist(), rhs.T.tolist()):
                out[j] = optimal(node.basis, column) if all(map(math.isfinite, column)) else alone(j)
            continue
        # The ratio test.  Where a member has ratios and all are finite, solve_lp's
        # NaN rule holds and its minimum is the plain one.
        rows, col, labels = test
        ratios = rhs[rows] / col
        regular = np.isfinite(ratios).all(axis=0) & bool(rows.size)
        if not regular.all():
            for j in idx[~regular].tolist():
                out[j] = alone(j)
            idx, rhs, ratios = idx[regular], rhs[:, regular], ratios[:, regular]
            if not idx.size:
                continue
        tied = ratios <= ratios.min(axis=0) + PIVOT_TOL
        leave = rows[np.where(tied, labels, _NO_LABEL).argmin(axis=0)]
        if (leave == leave[0]).all():
            branches = [(int(leave[0]), slice(None))]
        else:
            branches = [(r, leave == r) for r in sorted(set(leave.tolist()))]  # np.unique would import numpy.ma
        for r, sel in branches:
            child, members, columns = node.children.get(r), idx[sel], rhs[:, sel]
            while child is None and members.size:  # its path is the group's, so its solve records the child
                out[members[0]] = alone(int(members[0]))
                child, members, columns = node.children.get(r), members[1:], columns[:, 1:]
            if members.size:
                work.append((child, members, columns, ended))


def solve_batch(
    cost,
    a_eq=None,
    b_eq=None,
    a_ub=None,
    b_ub=None,
    lower=None,
    upper=None,
    *,
    paths: dict,
    solve=solve_lp,
) -> list:
    """Solve the LPs that differ only in ``b_eq`` and ``b_ub`` together, down the pivot paths of the memo ``paths``.

    ``b_eq`` and ``b_ub`` hold one row per member, of shapes ``(members,
    m_eq)`` and ``(members, m_ub)``; the other arguments are `solve_lp`'s,
    shared by every member (see Batches in the module docstring).
    ``solve`` is `solve_lp`, or a function that calls it as given: the
    batch calls it on the members it solves alone.

    Returns one outcome per member: the `LPResult` `solve_lp` returns for
    that member alone, with its bits, or, in its place, the exception it
    raises.  A member off the regular path is solved alone: one whose
    ``b`` is not finite, every member where the shared data are not
    finite, ``upper < lower`` or there are no constraint rows, and those
    `_walk` hands over.  Raises only what `solve_lp` raises for the shared
    bounds, or ValueError if ``b_eq`` and ``b_ub`` are not 2-D with one row
    per member.  The batch, with the members it solves alone, runs under
    ``np.errstate(all="ignore")``, so it never warns.
    """
    c, lo, hi, bounded, prepared = _shared_data(cost, a_eq, a_ub, lower, upper, paths)
    b_eq, b_ub = (None if v is None else np.asarray(v, dtype=float) for v in (b_eq, b_ub))
    given = [v for v in (b_eq, b_ub) if v is not None]
    if not given or {v.ndim for v in given} != {2} or len({len(v) for v in given}) != 1:
        raise ValueError("b_eq and b_ub must have one row per member, and one of them must be given")
    members = len(given[0])
    b = np.hstack(given + [np.broadcast_to(hi[bounded], (members, int(bounded.sum())))])
    a, n_eq = prepared.a, prepared.n_eq
    n, m = c.size, len(a)
    solvable = prepared.finite and not (hi < lo).any() and m > 0
    regular = np.isfinite(b).all(axis=1) & solvable
    live = np.flatnonzero(regular)
    out = [None] * members

    def alone(j):
        row = lambda v: None if v is None else v[j]  # noqa: E731
        try:
            return solve(cost, a_eq, row(b_eq), a_ub, row(b_ub), lower, upper, paths=paths)
        except (ValueError, RuntimeError, UnboundedLP) as exc:
            return exc

    optimal = partial(_optimal, c, lo, n + m - n_eq)
    with np.errstate(all="ignore"):
        for j in np.flatnonzero(~regular).tolist():
            out[j] = alone(j)
        # Each member's right-hand side, grouped by sign pattern as columns.
        neg, rhs = _start(b[live] - np.vecdot(a, lo))  # one dot per row, as a row @ lo
        groups = {}
        for row, sign in enumerate(map(np.ndarray.tobytes, neg)):
            groups.setdefault(sign, []).append(row)
        for sign, rows in groups.items():
            if sign not in prepared.families:  # the first member's solve starts the family's tree
                out[live[rows[0]]] = alone(int(live[rows[0]]))
                rows = rows[1:]
            _walk(prepared.families[sign][1], live[rows], np.ascontiguousarray(rhs[rows].T), 0, out, optimal, alone)
    return out
