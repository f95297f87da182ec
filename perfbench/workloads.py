"""The benchmark's workloads: inputs from a seed, one op, and its verification.

Each op is one call a user would make.  Ops look the package's functions
up through their modules at call time, so the tracer's rebinding reaches
them.  Verification runs outside the timed region and never depends on the
seed: solves are checked against bounds any causal optimum satisfies, and
files against the benchmark's own rendering of the public arrays.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import causalot.causality as causality
import causalot.cli as cli
import causalot.coupling as coupling
import causalot.measures as measures
import causalot.plans as plans
import causalot.solver as solver

REL_TOL = 1e-9


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def verify_solve(eta, nu, cost, result) -> list[str]:
    """Checks every optimum of a causal solve must pass, whatever the instance."""
    if result.status != "optimal":
        return [f"status {result.status}"]
    failures = []
    report = causality.check_plan_causal(result.plan, tol=1e-8)
    if not report.causal:
        failures.append(f"plan not causal (deviation {report.max_deviation:g})")
    if not _close(result.plan.cost(cost), result.value):
        failures.append(f"plan cost {result.plan.cost(cost)!r} != value {result.value!r}")
    product = plans.product_plan(eta, nu).cost(cost)
    if result.value > product + REL_TOL * max(1.0, product):
        failures.append(f"value {result.value!r} above product-plan cost {product!r}")
    if cost == "abs":
        classic, _ = solver.classic_ot_1d(eta, nu)
        if result.value < classic - REL_TOL * max(1.0, classic):
            failures.append(f"value {result.value!r} below classic OT {classic!r}")
    return failures


def render_rows(columns, start: int, stop: int) -> str:
    """Rows start..stop of ``columns`` as ``%.17g`` CSV, the package's number format."""
    block = np.column_stack([c[start:stop] for c in columns])
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    return (line * block.shape[0]) % tuple(block.ravel().tolist())


def csv_mismatch(path: Path, header: str, columns, chunk: int = 50_000) -> str | None:
    """None when the file holds exactly ``header`` and ``columns``, else a reason."""
    data = path.read_bytes()
    expected = (header + "\n").encode()
    if not data.startswith(expected):
        return f"{path.name}: header differs"
    pos = len(expected)
    rows = len(columns[0])
    for start in range(0, rows, chunk):
        text = render_rows(columns, start, min(start + chunk, rows)).encode()
        if data[pos:pos + len(text)] != text:
            return f"{path.name}: rows {start}..{start + chunk} differ"
        pos += len(text)
    if pos != len(data):
        return f"{path.name}: {len(data) - pos} trailing bytes"
    return None


def report_mismatch(path: Path, expected: dict) -> str | None:
    """None when the JSON report equals ``expected`` apart from its echoed config."""
    written = json.loads(path.read_text())
    written.pop("config", None)
    if written != json.loads(json.dumps(expected)):
        return f"{path.name}: differs from a direct call"
    return None


class SolveGamma:
    """gamma(2, 0.01) -> gamma(3, 0.01) at 60 quantile atoms each, abs cost."""

    name = "solve-gamma60"
    # Values the seed commit computes; the instance has no randomness.
    REFERENCE = {60: 99.97726739676898, 8: 99.87743781936}

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.atoms = 8 if smoke else 60

    def inputs(self, i: int):
        return None

    def op(self, _):
        eta = measures.discretize(measures.Gamma(2, 0.01), self.atoms)
        nu = measures.discretize(measures.Gamma(3, 0.01), self.atoms)
        return eta, nu, solver.solve_causal_transport(eta, nu, "abs")

    def verify(self, _, out) -> list[str]:
        eta, nu, result = out
        failures = verify_solve(eta, nu, "abs", result)
        ref = self.REFERENCE[self.atoms]
        if result.value is not None and not _close(result.value, ref):
            failures.append(f"value {result.value!r} != reference {ref!r}")
        return failures


class SmallStream:
    """Seeded random instances, 4-24 atoms per side on one 0.25-spaced grid."""

    name = "solve-small-stream"
    GRID = np.arange(0.0, 10.0, 0.25)

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        sizes = np.arange(3, 7) if smoke else np.arange(4, 25, 2)
        self.pairs = [(int(n), int(m)) for n in sizes for m in sizes]

    def inputs(self, i: int):
        # Every cycle of ops runs each (n, m) size pair once, in a seeded order.
        # Solve times span 50x across sizes, so a run's median would follow the
        # seed's mix of sizes if sizes were drawn independently.
        cycle, slot = divmod(i, len(self.pairs))
        order = np.random.default_rng([self.seed, 0, cycle]).permutation(len(self.pairs))
        n, m = self.pairs[order[slot]]
        rng = np.random.default_rng([self.seed, 1, i])
        xs = np.sort(rng.choice(self.GRID, n, replace=False))
        ys = np.sort(rng.choice(self.GRID, m, replace=False))
        eta = measures.DiscreteMeasure(xs, rng.dirichlet(np.ones(n)))
        nu = measures.DiscreteMeasure(ys, rng.dirichlet(np.ones(m)))
        return eta, nu, ("abs", "square")[i % 2]

    def op(self, inp):
        eta, nu, cost = inp
        return solver.solve_causal_transport(eta, nu, cost)

    def verify(self, inp, result) -> list[str]:
        return verify_solve(*inp, result)


class Couple:
    """``causalot couple --x exp:1 --tau exp:1 --z dirac:0.5`` through cli.main."""

    name = "couple-100k"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.n = 2_000 if smoke else 100_000
        self.out = workdir / "couple.csv"

    def inputs(self, i: int):
        draw_seed = int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])
        return ["couple", "--x", "exp:1", "--tau", "exp:1", "--z", "dirac:0.5",
                "--n", str(self.n), "--seed", str(draw_seed), "--out", str(self.out)]

    def op(self, argv):
        return cli.main(argv)

    def verify(self, argv, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        spec = coupling.CouplingSpec(x=measures.Exponential(1.0), tau=measures.Exponential(1.0),
                                     z=measures.Dirac(0.5), samples=self.n,
                                     seed=int(argv[argv.index("--seed") + 1]))
        sample = coupling.simulate(spec)
        failures = [csv_mismatch(self.out, "X,tau,Z,Y",
                                 [sample.x, sample.tau, sample.z, sample.y]),
                    report_mismatch(self.out.with_suffix(".report.json"),
                                    coupling.verify_axioms(sample, confidence=0.999).to_dict())]
        return [f for f in failures if f]


class Mixture:
    """``causalot example mixture`` at its defaults: 200 atoms, 200x200 grid."""

    name = "mixture-grid"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.size = ["--atoms", "20", "--grid", "20"] if smoke else []
        self.atoms, self.grid = (20, 20) if smoke else (200, 200)
        self.out = workdir
        self._expected = None

    def inputs(self, i: int):
        return ["example", "mixture", "--out", str(self.out), *self.size]

    def op(self, argv):
        return cli.main(argv)

    def expected(self):
        """Grid columns and report from the public functions, at the CLI defaults."""
        if self._expected is None:
            plan = cli.exponential_mixture_plan(0.01, 0.005, 700.0, self.atoms)
            axis = np.linspace(0.0, 2000.0, self.grid)
            rows = plans.conditional_cdf_grid(plan, axis, axis)
            report = causality.check_plan_causal(plan, tol=1e-9).to_dict()
            self._expected = ([rows[:, 0], rows[:, 1], rows[:, 2]], report)
        return self._expected

    def verify(self, argv, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        columns, report = self.expected()
        failures = [csv_mismatch(self.out / "mixture_grid.csv", "x,y,F", columns),
                    report_mismatch(self.out / "mixture_report.json", report)]
        return [f for f in failures if f]


WORKLOADS = {w.name: w for w in (SolveGamma, SmallStream, Couple, Mixture)}
