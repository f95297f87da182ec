"""An exact rational solve of the reduced causal LP, an oracle for the tests.

``reduced_lp`` poses the LP of :func:`causalot.solver.build_causal_lp` in
:class:`fractions.Fraction`, from its own copy of the rule: every source
atom strictly above a target atom belongs to that target's pool, and the
pool sends it one conditional mass.  The columns come in the package's
order, the pool masses p_j first, then the free plan entries row by row;
pool column j has w_k / W_j on its atoms' rows, W_j the pool's weight.
The rows are the source marginals and the target marginals but the last.

``solve_exact`` runs a two-phase simplex with Bland's rule (R. G. Bland,
"New finite pivoting rules for the simplex method", Math. Oper. Res. 2,
1977), which cannot cycle, and returns the optimum with a basic solution
and its duals, all exact.  Every input is read exactly, so a float stands
for its binary value: ``Fraction(0.1)`` is not 1/10.  The oracle is meant
for a few atoms a side; the package itself never imports ``fractions``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass
class ExactLp:
    matrix: list[list[Fraction]]
    rhs: list[Fraction]
    objective: list[Fraction]


@dataclass
class ExactSolution:
    value: Fraction
    x: list[Fraction]
    duals: list[Fraction]


def reduced_lp(source_support, source_weights, target_support, target_weights,
               cost) -> ExactLp:
    """The reduced causal LP of two discrete measures and an (n, m) cost table."""
    xs = [Fraction(x) for x in source_support]
    ws = [Fraction(w) for w in source_weights]
    ys = [Fraction(y) for y in target_support]
    vs = [Fraction(v) for v in target_weights]
    table = [[Fraction(c) for c in row] for row in cost]
    n, m = len(xs), len(ys)
    columns, objective = [], []

    def add(entries: dict, price: Fraction) -> None:
        columns.append([entries.get(r, Fraction(0)) for r in range(n + m - 1)])
        objective.append(price)

    for j in range(m):
        pool = [k for k in range(n) if xs[k] > ys[j]]
        if not pool:  # targets increase, so every later pool is empty too
            break
        weight = sum(ws[k] for k in pool)
        entries = {k: ws[k] / weight for k in pool}
        if j < m - 1:
            entries[n + j] = Fraction(1)
        add(entries, sum(ws[k] * table[k][j] for k in pool) / weight)
    for k in range(n):
        for j in range(m):
            if xs[k] <= ys[j]:
                entries = {k: Fraction(1)}
                if j < m - 1:
                    entries[n + j] = Fraction(1)
                add(entries, table[k][j])
    matrix = [[column[r] for column in columns] for r in range(n + m - 1)]
    return ExactLp(matrix, ws + vs[:-1], objective)


def solve_exact(lp: ExactLp) -> ExactSolution:
    """Minimize c'x subject to A x = b, x >= 0, for b >= 0, in exact arithmetic.

    Phase 1 starts from one artificial column per row.  Artificials never
    re-enter, those left at zero are pivoted out where their row allows,
    and their reduced costs give the duals: y_i = -r(artificial i).
    """
    A, b, c = lp.matrix, lp.rhs, lp.objective
    rows, cols = len(A), len(c)
    if any(bi < 0 for bi in b):
        raise ValueError("the right-hand side must be nonnegative")
    width = cols + rows
    tab = [list(A[i]) + [Fraction(int(i == r)) for r in range(rows)] + [b[i]]
           for i in range(rows)]
    basis = list(range(cols, width))

    def reduced(costs):
        red = list(costs) + [Fraction(0)]
        for i, col in enumerate(basis):
            if costs[col]:
                red = [r - costs[col] * t for r, t in zip(red, tab[i])]
        return red

    def pivot(row: int, col: int) -> None:
        tab[row] = [t / tab[row][col] for t in tab[row]]
        for i in range(rows):
            if i != row and tab[i][col]:
                factor = tab[i][col]
                tab[i] = [t - factor * p for t, p in zip(tab[i], tab[row])]
        basis[row] = col

    def run(costs):
        while True:
            red = reduced(costs)
            enter = next((t for t in range(cols) if red[t] < 0 and t not in basis), None)
            if enter is None:
                return red
            ratios = [(tab[i][-1] / tab[i][enter], basis[i], i)
                      for i in range(rows) if tab[i][enter] > 0]
            if not ratios:
                raise ValueError("the LP is unbounded below")
            pivot(min(ratios)[2], enter)

    run([Fraction(0)] * cols + [Fraction(1)] * rows)
    if any(tab[i][-1] for i in range(rows) if basis[i] >= cols):
        raise ValueError("the LP is infeasible")
    for i in range(rows):
        if basis[i] >= cols:
            col = next((t for t in range(cols) if tab[i][t] and t not in basis), None)
            if col is not None:
                pivot(i, col)
    red = run(list(c) + [Fraction(0)] * rows)
    x = [Fraction(0)] * cols
    for i, col in enumerate(basis):
        if col < cols:
            x[col] = tab[i][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return ExactSolution(value, x, [-red[cols + i] for i in range(rows)])
