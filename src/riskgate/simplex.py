"""Dense two-phase primal simplex solver.

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
inequality row, and the last is the right-hand side.  Each row starts
with an artificial variable basic in it; an artificial has no column,
only its basis label ``k + row``, because it never re-enters.  A pivot
eliminates the entering column from every row, the two cost rows
included, so phase 2 starts from a canonical cost row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnboundedLP

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7

_MAX_ITER = 100_000


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible"
    x: np.ndarray | None
    objective: float | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def solve_lp(
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
    bounded = np.isfinite(hi)
    a_eq = np.zeros((0, n)) if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    a_ub = np.zeros((0, n)) if a_ub is None else np.atleast_2d(np.asarray(a_ub, dtype=float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=float))
    a = np.vstack([a_eq, a_ub, np.eye(n)[bounded]])
    b = np.concatenate([b_eq, b_ub, hi[bounded]]) - np.vecdot(a, lo)  # one dot per row, as a row @ lo

    m, n_eq = len(a), len(a_eq)
    if m == 0:
        if np.any(c < -PIVOT_TOL):
            raise UnboundedLP("no constraints and a negative cost coefficient")
        return LPResult("optimal", lo.copy(), float(c @ lo))

    # Standard form: equality rows first, then one slack per inequality
    # row; rows with a negative right-hand side are negated.
    k = n + m - n_eq
    tableau = np.zeros((m + 2, k + 1))
    tableau[:m, :n] = a
    tableau[n_eq:m, n:k] = np.eye(m - n_eq)
    tableau[:m, -1] = b
    tableau[np.flatnonzero(b < 0)] *= -1.0
    tableau[m, :n] = c
    tableau[m + 1, :k] = -tableau[:m, :k].sum(axis=0)
    tableau[m + 1, -1] = -tableau[:m, -1].sum()
    basis = np.arange(k, k + m)  # artificials
    cost_row, phase1_row = m, m + 1

    def pivot(r: int, col: int) -> None:
        tableau[r] /= tableau[r, col]
        factors = tableau[:, col].copy()
        factors[r] = 0.0
        tableau[:] -= factors[:, None] * tableau[r]
        basis[r] = col

    def run(active_row: int, limit: int) -> None:
        for _ in range(_MAX_ITER):
            improving = (tableau[active_row, :limit] < -PIVOT_TOL).nonzero()[0]
            if improving.size == 0:
                return
            entering = improving[0]
            col = tableau[:m, entering]
            ratios = np.where(col > PIVOT_TOL, tableau[:m, -1] / np.where(col > PIVOT_TOL, col, 1.0), np.inf)
            best = ratios.min()
            if not np.isfinite(best):
                raise UnboundedLP("unbounded direction in simplex")
            # Bland: among tied rows, leave the smallest basis index.
            tied = (ratios <= best + PIVOT_TOL).nonzero()[0]
            pivot(tied[basis[tied].argmin()], entering)
        raise RuntimeError("simplex iteration limit exceeded")

    run(phase1_row, k)
    if -tableau[phase1_row, -1] > FEAS_TOL:
        return LPResult("infeasible", None, None)

    # Drive leftover basic artificials out; rows that cannot pivot are
    # redundant and harmless (the artificial stays basic at value 0).
    for r in np.flatnonzero(basis >= k):
        cols = np.flatnonzero(np.abs(tableau[r, :k]) > PIVOT_TOL)
        if cols.size:
            pivot(r, cols[0])

    run(cost_row, k)

    xfull = np.zeros(k + m)
    xfull[basis] = tableau[:m, -1]
    x = lo + xfull[:n]
    return LPResult("optimal", x, float(c @ xfull[:n] + c @ lo))
