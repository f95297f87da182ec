"""Inputs the float solve is known to fail on, shared by the solver and CLI tests.

Each entry of ``INFEASIBLE_FINAL_BASIS`` is (source support, source weights,
target support, target weights, cost table, exact optimum).
"""

# Valid tiny-weight instances on non-Monge tables whose final basis the float
# simplex reaches refactors to a negative basic value: -2.69e-05 on the first,
# -1.51e-08 on the second.  The solve must raise its own error for them, not
# hand a plan with the wrong marginals on to TransportPlan.
INFEASIBLE_FINAL_BASIS = [
    ([2.0, 5.0, 6.5, 7.0],
     [2.6928108963730366e-05, 2.6928108963730366e-05, 0.9999192156731088,
      2.6928108963730366e-05],
     [2.0, 5.5, 6.0, 6.5],
     [0.9999999999634753, 1.2174829140962919e-11, 1.2174829140962919e-11,
      1.2174829140962919e-11],
     [[4.75, 1.25, 0.5, 3.75], [3.0, 1.75, 1.5, 1.5], [1.5, 0.25, 2.25, 0.0],
      [5.0, 3.25, 0.25, 4.0]],
     1.5002221567863334),
    ([1.0, 3.0, 4.0, 6.0, 9.5],
     [1.192706052005891e-07, 0.7986471995941926, 0.0464986377467372,
      0.15485392411785992, 1.192706052005891e-07],
     [2.0, 3.0, 5.5, 6.5, 7.0, 7.5],
     [0.12288229893426397, 0.47382755136651067, 1.510860675477406e-08,
      1.510860675477406e-08, 0.4032901043734051, 1.510860675477406e-08],
     [[4.75, 3.75, 1.5, 3.75, 1.75, 3.5], [3.75, 3.5, 3.75, 3.5, 0.25, 1.25],
      [3.5, 4.5, 3.0, 3.75, 4.25, 0.25], [2.75, 0.0, 3.75, 1.0, 4.0, 0.75],
      [3.75, 2.0, 4.75, 4.25, 3.75, 2.0]],
     1.7649671396906348),
]
