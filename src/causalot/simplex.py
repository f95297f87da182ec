"""Dense two-phase primal simplex for equality-form linear programs.

Solves  min c'x  subject to  A x = b, x >= 0  on a full tableau.  Phase 1
starts from an all-artificial basis but never materializes the artificial
columns; both objective rows ride along in the tableau so phase 2 can
continue in place.  The caller's A and b are read, never copied or
written: rows with b < 0 enter the tableau negated, so the artificial
basis is feasible, and the final basis is solved against the caller's
own rows, so the duals come out in the caller's signs.  The pivot
thresholds are absolute: they assume rows whose largest coefficient is
about 1 and costs of at most 1 in size, as :func:`causalot.solver.solve`
poses them, its costs scaled by a power of two into [0, 1].  A
caller that knows a feasible vertex passes it as ``start``: crash pivots
move its support into the basis, one per column, and phase 1 runs from
there to its verdict.  A start is pivoted in or refused with a
``ValueError``, never discarded.  Artificials left in the basis after
phase 1 are driven out by a dual ratio test: the admissible column with
the least ratio of phase-2 reduced cost, floored at 0, to pivot entry
enters, the last on ties.  It keeps nonnegative reduced costs so, and no
column scaling moves it.  Pricing is Dantzig's most-negative rule with a
switch to Bland's rule after a run of degenerate pivots, which
guarantees termination.  Pricing, the primal ratio test and the check of
the refactored basis share the fixed tolerance ``_PIVOT_TOL``.  The
reported solution is the final basis refactored against the caller's
rows, so it does not inherit pivot drift; a final basis that is singular
or infeasible there raises a ``RuntimeError``.  No diagnostics are
reported: the caller certifies the solution it gets, as
:func:`causalot.solver.certify` does.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger

_ARTIFICIAL = -1
_PIVOT_TOL = 1e-9  # reduced costs and pivot entries within it count as zero


@dataclass
class SimplexSolution:
    # x, objective and duals are set exactly when the status is "optimal".
    status: str  # "optimal" | "infeasible" | "iteration-limit"
    iterations: int
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None


def solve_standard_form(A, b, c, *, start=None,
                        max_iterations: int = 50_000) -> SimplexSolution:
    """Minimize c'x subject to A x = b, x >= 0.

    ``start``, if given, is a feasible point whose support is a basis.
    Each support column (every positive entry) is pivoted into the
    artificial row where its entry is largest in absolute value, and
    phase 1 continues from there to its verdict.  A start is pivoted in or
    refused, never discarded: a ``ValueError`` names it when a column
    finds no such row (none above 1e-7) or the right-hand side turns
    negative.  The result is the final basis refactored against the
    caller's rows, or a ``RuntimeError`` when that factorization is
    singular or gives a basic value below ``-_PIVOT_TOL``.
    ``iterations`` counts every pivot, crash pivots included, against
    ``max_iterations``.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.ascontiguousarray(c, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],) or c.shape != (A.shape[1],):
        raise ValueError("inconsistent LP dimensions")
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != c.shape:
            raise ValueError("start has the wrong length")
    rows, cols = A.shape
    flip = b < 0

    # Tableau layout: rows 0..rows-1 hold B^-1 [A | b], each row with b < 0
    # negated; row `rows` is the phase-1 objective, row rows+1 the phase-2
    # objective.  It starts at the all-artificial basis.
    tab = np.empty((rows + 2, cols + 1), order="F")
    tab[:rows, :cols] = A
    tab[:rows, cols] = b
    tab[rows, :cols] = -A.sum(axis=0)
    if flip.any():  # the phase-1 row sums the rows as signed
        tab[:rows][flip] *= -1.0
        tab[rows, :cols] += 2.0 * (flip @ A)
    tab[rows, cols] = -tab[:rows, cols].sum()
    tab[rows + 1, :cols] = c
    tab[rows + 1, cols] = 0.0
    basis = np.full(rows, _ARTIFICIAL)
    in_basis = np.zeros(cols, dtype=bool)
    active = np.ones(rows, dtype=bool)
    iterations = 0
    stall = 0
    stall_limit = 5 * rows

    def pivot(row: int, col: int) -> None:
        """Column ``col`` enters the basis in ``row``; the tableau is Fortran-ordered."""
        nonlocal iterations
        if basis[row] != _ARTIFICIAL:
            in_basis[basis[row]] = False
        basis[row] = col
        in_basis[col] = True
        tab[row] /= tab[row, col]
        column = tab[:, col].copy()
        column[row] = 0.0
        dger(-1.0, column, tab[row], a=tab, overwrite_a=1)
        tab[:, col] = 0.0
        tab[row, col] = 1.0
        iterations += 1

    def ratio_row(col: int, bland: bool) -> int | None:
        coefs = tab[:rows, col]
        eligible = active & (coefs > _PIVOT_TOL)
        if not eligible.any():
            return None
        idx = np.flatnonzero(eligible)
        ratios = tab[idx, cols] / coefs[idx]
        best = ratios.min()
        ties = idx[ratios <= best + 1e-12]
        if ties.size == 1:
            return int(ties[0])
        if bland:
            # Smallest basis label leaves; artificials rank above real columns.
            labels = np.where(basis[ties] == _ARTIFICIAL, cols + ties, basis[ties])
            return int(ties[np.argmin(labels)])
        return int(ties[np.argmax(coefs[ties])])

    def run_phase(obj_row: int, phase_one: bool) -> str:
        nonlocal stall
        while True:
            if phase_one and -tab[obj_row, cols] <= 1e-10:
                return "done"
            if iterations >= max_iterations:
                return "iteration-limit"
            reduced = tab[obj_row, :cols]
            candidates = (reduced < -_PIVOT_TOL) & ~in_basis
            if not candidates.any():
                return "done"
            if stall >= stall_limit:
                col = int(np.flatnonzero(candidates)[0])
            else:
                masked = np.where(candidates, reduced, np.inf)
                col = int(np.argmin(masked))
            row = ratio_row(col, bland=stall >= stall_limit)
            if row is None:
                if phase_one:  # phase 1 is bounded below: every entry of the column is tiny
                    raise RuntimeError(f"no pivot row above tolerance {_PIVOT_TOL:g} in phase 1")
                raise RuntimeError("LP is unbounded below")
            step = tab[row, cols] / tab[row, col]
            stall = stall + 1 if step <= 1e-12 else 0
            pivot(row, col)

    if start is not None:
        # Crash the whole support in.  However small, an entry left out
        # would keep its row's artificial at that level, under the phase-1
        # stop, for the drive-out to divide by a pivot that may be tiny too.
        for col in np.flatnonzero(start > 0.0):
            if iterations >= max_iterations:
                return SimplexSolution("iteration-limit", iterations)
            coefs = np.where(basis == _ARTIFICIAL, np.abs(tab[:rows, col]), 0.0)
            if coefs.max(initial=0.0) <= 1e-7:
                raise ValueError(f"start is not a basis: its column {col} "
                                 "finds no artificial row above 1e-07")
            pivot(int(np.argmax(coefs)), col)
        if tab[:rows, cols].min(initial=0.0) < -_PIVOT_TOL:
            raise ValueError("start is not a feasible basis: a basic value is "
                             f"{tab[:rows, cols].min():g}")

    if run_phase(rows, phase_one=True) == "iteration-limit":
        return SimplexSolution("iteration-limit", iterations)
    if -tab[rows, cols] > 1e-7:
        return SimplexSolution("infeasible", iterations)

    # Drive leftover artificials out of the basis or retire their rows.  The
    # entering column passes the dual ratio test; ties go to the last one.
    for i in range(rows):
        if basis[i] != _ARTIFICIAL:
            continue
        options = np.flatnonzero((np.abs(tab[i, :cols]) > 1e-7) & ~in_basis)
        if options.size:
            ratio = np.maximum(tab[rows + 1, options], 0.0) / np.abs(tab[i, options])
            pivot(i, int(options[np.flatnonzero(ratio == ratio.min())[-1]]))
        else:
            active[i] = False

    if run_phase(rows + 1, phase_one=False) == "iteration-limit":
        return SimplexSolution("iteration-limit", iterations)

    # Refactor the final basis against the caller's rows.
    act = np.flatnonzero(active)
    basic_cols = basis[act]
    B = A[np.ix_(act, basic_cols)]
    x = np.zeros(cols)
    duals = np.zeros(rows)
    try:
        x[basic_cols] = np.linalg.solve(B, b[act])
        duals[act] = np.linalg.solve(B.T, c[basic_cols])
    except np.linalg.LinAlgError:
        raise RuntimeError("the final basis is singular") from None
    if x.min() < -_PIVOT_TOL:
        raise RuntimeError(f"the final basis is infeasible: a basic value is {x.min():g}")
    np.maximum(x, 0.0, out=x)
    return SimplexSolution("optimal", iterations, x, float(c @ x), duals)
