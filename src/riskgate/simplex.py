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
