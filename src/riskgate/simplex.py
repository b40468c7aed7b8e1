"""Dense two-phase primal simplex solver with a memo of prepared LPs and their pivot paths.

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

Prepared records.  The memo is the caller's ``paths`` dict (``grid``
keeps one per network topology); a call without one starts from an
empty memo.  It holds one `_Prepared` record per constant-data key: the
bytes and shapes of ``cost``, ``a_eq`` and ``a_ub`` and which upper
bounds are finite.  The record holds what those alone decide -- the
stacked ``[a_eq; a_ub; eye(n)[bounded]]``, whether it and the cost are
finite, the number of equality rows -- and the family's pivot-path
trees, one per sign pattern ``b < 0``.  A call converts and checks only
its right-hand sides and bounds; the first call of a key prepares it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import UnboundedLP

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7

_MAX_ITER = 100_000
_OVERFLOWED = "simplex tableau overflowed: the LP's coefficients are too large"

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

    __slots__ = ("steps", "overflows", "entering", "rows", "col", "labels", "children", "basis")

    def __init__(self):
        self.steps = []
        self.overflows = False  # the shared columns are not finite after the last step
        self.children = None  # leaving row -> _Node, at a ratio test
        self.basis = None  # at the optimum


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
    paths = {} if paths is None else paths
    key = (c.shape, c.tobytes(), a_eq.shape, a_eq.tobytes(), a_ub.shape, a_ub.tobytes(), bounded.tobytes())
    prepared = paths.get(key)
    if prepared is None:
        prepared = paths[key] = _Prepared(c, a_eq, a_ub, bounded)
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=float))
    b = np.concatenate([b_eq, b_ub, hi[bounded]])
    if not (prepared.finite and np.isfinite(b).all()):
        raise ValueError("cost and constraints must be finite")
    if (hi < lo).any():
        return LPResult("infeasible", None, None)
    a, n_eq = prepared.a, prepared.n_eq
    b = b - np.vecdot(a, lo)  # one dot per row, as a row @ lo

    m = len(a)
    if m == 0:
        if np.any(c < -PIVOT_TOL):
            raise UnboundedLP("no constraints and a negative cost coefficient")
        return LPResult("optimal", lo.copy(), float(c @ lo))

    # The right-hand side, with rows that have a negative one negated.
    neg = b < 0
    flat = np.zeros(m + 2)
    flat[:m] = b
    flat[np.flatnonzero(neg)] *= -1.0
    flat[m + 1] = -flat[:m].sum()
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

    # Python floats are IEEE doubles: each step below rounds every entry
    # once, with the same operation as numpy's elementwise one in
    # `_Tableau.step`, so the right-hand side gets the full elimination's bits.
    path, iterations = [], 0
    try:
        while True:
            for kind, r, _, p, f in node.steps:
                if kind == _SHORTCUT:
                    v = rhs[r]
                    rhs[m] -= p * v
                    rhs[m + 1] -= f * v
                elif kind == _VERDICT:
                    if -rhs[m + 1] > FEAS_TOL:
                        return LPResult("infeasible", None, None)
                    iterations = 0
                    continue
                else:
                    v = rhs[r] = rhs[r] / p
                    rhs = [e - factor * v for e, factor in zip(rhs, f)]
                    if kind == _DRIVE_OUT:
                        continue
                iterations += 1
                if iterations == _MAX_ITER:
                    raise RuntimeError("simplex iteration limit exceeded")
            if node.overflows:
                raise ValueError(_OVERFLOWED)
            if node.children is None:
                break
            # The ratio test, as numpy's minimum would make it: a NaN ratio, or no
            # finite minimum, means an unbounded direction ...
            ratios = [rhs[i] / entry for i, entry in zip(node.rows, node.col)]
            best = min(ratios, default=math.inf)
            if not math.isfinite(best) or math.isnan(sum(ratios)):
                raise UnboundedLP("unbounded direction in simplex")
            # ... and among the tied rows, the smallest basis label leaves.
            cut = best + PIVOT_TOL
            r = min((label, i) for q, label, i in zip(ratios, node.labels, node.rows) if q <= cut)[1]
            path.append(node)
            child = node.children.get(r)
            if child is None:
                if tableau is None:
                    tableau = _replay(start, (step for seen in path for step in seen.steps))
                child = node.children[r] = tableau.record((r, node.entering))
            node = child
    finally:
        # The right-hand side's check on every exit (see How a solve ends).
        if not all(map(math.isfinite, rhs)):
            raise ValueError(_OVERFLOWED)

    xfull = np.zeros(k + m)
    xfull[node.basis] = rhs[:m]
    x = lo + xfull[:n]
    return LPResult("optimal", x, float(c @ xfull[:n] + c @ lo))
