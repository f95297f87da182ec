"""Command line front end.

Subcommands: ``discretize`` a continuous family, ``check`` a plan or map
for causality, ``solve`` a causal transport instance, ``couple`` to
simulate a coupling, and ``example`` for three ready-made scenarios.
Exit codes: 0 on success (causal / axioms hold), 2 on a semantic negative
(not causal, axioms rejected), 1 on usage or I/O errors.  Identical
inputs and seeds produce byte-identical output files.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import coupling as coupling_mod
from .causality import check_map_causal, check_plan_causal
from .measures import (_FAMILY_FIELDS, DiscreteMeasure, Exponential, Family, Gamma,
                       discretize, family_from_dict)
from .plans import (TransportPlan, brownian_passage_conditional_cdf,
                    conditional_cdf_grid, independent_sum_plan, mix_plans,
                    product_plan)
from .solver import instance_from_dict, solve_causal_transport


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit with status 2
        raise _UsageError(message)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc


def _emit_json(obj: dict, out: str | None) -> None:
    """Write ``obj`` as strict JSON; a non-finite value raises before anything is written."""
    text = json.dumps(obj, indent=2, allow_nan=False) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _echo(config: dict) -> dict:
    """Print the config as one strict JSON line and return it.

    Non-finite floats become the strings "nan", "inf" and "-inf", here and
    in the output file that repeats the config.
    """
    config = {key: str(value) if isinstance(value, float) and not np.isfinite(value)
              else value for key, value in config.items()}
    print(json.dumps({"config": config}, allow_nan=False))
    return config


_FAMILY_ALIASES = {"exp": "exponential", "gauss": "gaussian", "normal": "gaussian",
                   "levy": "levy_first_passage"}


def parse_family_token(token: str) -> Family:
    """Compact family syntax: exp:0.01, gamma:2:0.01, gauss:0:1, dirac:700, ..."""
    name, _, rest = token.partition(":")
    tag = _FAMILY_ALIASES.get(name.lower(), name.lower())
    if tag not in _FAMILY_FIELDS:
        raise ValueError(f"unknown family token {token!r}")
    fields = _FAMILY_FIELDS[tag][1]
    parts = rest.split(":") if rest else []
    if len(parts) != len(fields):
        raise ValueError(
            f"family {name!r} takes {len(fields)} parameter(s), got {len(parts)}")
    try:
        args = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"non-numeric parameter in {token!r}") from None
    return family_from_dict({"family": tag, **dict(zip(fields, args))})


def _parse_tau_token(token: str):
    if token in (coupling_mod.TAU_EQUAL_TO_X,):
        return coupling_mod.TAU_EQUAL_TO_X
    if token in ("inf", coupling_mod.TAU_NEVER):
        return coupling_mod.TAU_NEVER
    return parse_family_token(token)


# ---------- subcommands ----------


def _cmd_discretize(args) -> int:
    spec = family_from_dict(_load_json(args.spec))
    config = _echo({"command": "discretize", "spec": args.spec, "n": args.n,
                    "scheme": args.scheme, "lo": args.lo, "hi": args.hi,
                    "out": args.out})
    measure = discretize(spec, args.n, args.scheme, lo=args.lo, hi=args.hi)
    _emit_json({"config": config, **measure.to_dict()}, args.out)
    return 0


def _cmd_check(args) -> int:
    config = _echo({"command": "check", "plan": args.plan, "measure": args.measure,
                    "map": args.map, "tol": args.tol, "out": args.out})
    if args.plan is not None:
        if args.measure is not None or args.map is not None:
            raise _UsageError("give either --plan or --measure with --map")
        plan = TransportPlan.from_dict(_load_json(args.plan))
        report = check_plan_causal(plan, tol=args.tol)
    else:
        if args.measure is None or args.map is None:
            raise _UsageError("map checking needs both --measure and --map")
        measure = DiscreteMeasure.from_dict(_load_json(args.measure))
        values = _map_values(_load_json(args.map), measure)
        report = check_map_causal(measure, values, tol=args.tol)
    _emit_json({"config": config, **report.to_dict()}, args.out)
    return 0 if report.causal else 2


def _map_values(data: dict, measure: DiscreteMeasure) -> np.ndarray:
    if not isinstance(data, dict):
        raise ValueError("a map file must hold a JSON object")
    if "values" in data:
        values = np.asarray(data["values"], dtype=float)
    elif "constant" in data:
        values = np.full(measure.n, float(data["constant"]))
    elif "affine" in data:
        a, b = (float(v) for v in data["affine"])
        with np.errstate(over="ignore", invalid="ignore"):  # check_map_causal rejects the result
            values = a * measure.support + b
    else:
        raise ValueError("a map file needs 'values', 'constant', or 'affine'")
    return values


def _cmd_solve(args) -> int:
    # An instance file names its own cost, so the echo names none for it.
    cost = None if args.instance is not None else args.cost or "abs"
    config = _echo({"command": "solve", "eta": args.eta, "nu": args.nu,
                    "instance": args.instance, "cost": cost, "out": args.out})
    if args.instance is not None:
        if args.eta is not None or args.nu is not None:
            raise _UsageError("give either an --instance file or eta and nu files")
        if args.cost is not None:
            raise _UsageError("--cost applies only to eta and nu files, not --instance")
        eta, nu, cost = instance_from_dict(_load_json(args.instance))
    else:
        if args.eta is None or args.nu is None:
            raise _UsageError("solving needs eta and nu files (or --instance)")
        eta = DiscreteMeasure.from_dict(_load_json(args.eta))
        nu = DiscreteMeasure.from_dict(_load_json(args.nu))
    result = solve_causal_transport(eta, nu, cost)
    _emit_json({"config": config, **result.to_dict()}, args.out)
    return 0 if result.status == "optimal" else 2


def _cmd_couple(args) -> int:
    config = _echo({"command": "couple", "x": args.x, "tau": args.tau, "z": args.z,
                    "from_plan": args.from_plan, "n": args.n, "seed": args.seed,
                    "confidence": args.confidence, "out": args.out,
                    "report": args.report})
    if args.from_plan is not None:
        if args.x or args.tau or args.z:
            raise _UsageError("--from-plan replaces --x/--tau/--z")
        plan = TransportPlan.from_dict(_load_json(args.from_plan))
        sample = coupling_mod.coupling_from_plan(plan, args.n, args.seed)
    else:
        if not (args.x and args.tau and args.z):
            raise _UsageError("simulation needs --x, --tau, and --z (or --from-plan)")
        spec = coupling_mod.CouplingSpec(x=parse_family_token(args.x),
                                         tau=_parse_tau_token(args.tau),
                                         z=parse_family_token(args.z),
                                         samples=args.n, seed=args.seed)
        sample = coupling_mod.simulate(spec)
    # The audit reads --confidence, so a bad value stops the run before any output.
    report = coupling_mod.verify_axioms(sample, confidence=args.confidence)
    _write_csv("X,tau,Z,Y", (sample.x, sample.tau, sample.z, sample.y), args.out)
    report_path = args.report
    if report_path is None and args.out is not None:
        report_path = str(Path(args.out).with_suffix(".report.json"))
    _emit_json({"config": config, **report.to_dict()}, report_path)
    return 0 if report.passed else 2


def _write_csv(header: str, columns, out, chunk: int = 65_536) -> None:
    """``header``, then one ``%.17g`` row per entry of ``columns``; stdout when out is None."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = len(columns[0])
    with nullcontext(sys.stdout) if out is None else open(out, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, rows, chunk):
            block = np.column_stack([c[start:start + chunk] for c in columns])
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def _cmd_example(args) -> int:
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    return args.scenario(args, out_dir)


def _example_mixture(args, out_dir: Path) -> int:
    config = _echo({"command": "example", "name": "mixture", "rate_x": args.rate_x,
                    "rate_z": args.rate_z, "t0": args.t0, "atoms": args.atoms,
                    "grid": args.grid, "xmax": args.xmax, "out": str(out_dir)})
    if not np.isfinite(args.xmax):
        raise ValueError("--xmax must be finite")
    plan = exponential_mixture_plan(args.rate_x, args.rate_z, args.t0, args.atoms)
    report = check_plan_causal(plan, tol=args.tol)
    axis = np.linspace(0.0, args.xmax, args.grid)
    rows = conditional_cdf_grid(plan, axis, axis)
    _write_csv("x,y,F", rows.T, out_dir / "mixture_grid.csv")
    _emit_json({"config": config, **report.to_dict()},
               str(out_dir / "mixture_report.json"))
    return 0 if report.causal else 2


def exponential_mixture_plan(rate_x: float, rate_z: float, t0: float,
                      atoms: int) -> TransportPlan:
    """Half shifted-sum, a quarter held at t0, a quarter fully independent."""
    shifted = independent_sum_plan(Exponential(rate_x), Exponential(rate_z),
                                   atoms, atoms)
    src = shifted.source
    held = product_plan(src, DiscreteMeasure([t0], [1.0]))
    indep = product_plan(src, src)
    return mix_plans([(0.5, shifted), (0.25, held), (0.25, indep)])


def _example_brownian(args, out_dir: Path) -> int:
    _echo({"command": "example", "name": "brownian", "lower": args.lower,
           "upper": args.upper, "xmax": args.xmax, "ymax": args.ymax,
           "step": args.step, "out": str(out_dir)})
    if not 0 < args.step < np.inf:
        raise ValueError("--step must be positive and finite")
    if not (0 <= args.xmax < np.inf and 0 <= args.ymax < np.inf):
        raise ValueError("--xmax and --ymax must be finite and nonnegative")
    xs = np.arange(0.0, args.xmax + 0.5 * args.step, args.step)
    ys = np.arange(0.0, args.ymax + 0.5 * args.step, args.step)
    rows = np.empty((xs.size * ys.size, 3))
    rows[:, 0] = np.repeat(xs, ys.size)
    rows[:, 1] = np.tile(ys, xs.size)
    rows[:, 2] = brownian_passage_conditional_cdf(args.lower, args.upper,
                                                  rows[:, 0], rows[:, 1])
    _write_csv("x,y,F", rows.T, out_dir / "brownian_grid.csv")
    return 0


def _example_gamma_poisson(args, out_dir: Path) -> int:
    config = _echo({"command": "example", "name": "gamma-poisson", "shape": args.shape,
                    "increase": args.increase, "rate": args.rate, "atoms": args.atoms,
                    "out": str(out_dir)})
    if args.increase < 1:
        raise ValueError("--increase must be at least 1")
    eta = discretize(Gamma(args.shape, args.rate), args.atoms)
    nu = discretize(Gamma(args.shape + args.increase, args.rate), args.atoms)
    result = solve_causal_transport(eta, nu, "abs")
    analytic = args.increase / args.rate
    # E|X - Y| >= EY - EX, and the quantile plan of these grids meets it, so the
    # value is the discrete mean gap and the relative gap measures the grids.
    mean_gap = nu.mean() - eta.mean()
    gap = abs(result.value - analytic) / analytic if result.value is not None else None
    payload = {"config": config, "analytic_value": analytic,
               "discrete_mean_gap": mean_gap, "relative_gap": gap, **result.to_dict()}
    _emit_json(payload, str(out_dir / "gamma_poisson_result.json"))
    if gap is not None:
        print(f"value {_fmt(result.value)} vs analytic {_fmt(analytic)} "
              f"(relative gap {gap:.3%}), discrete mean gap {_fmt(mean_gap)}")
    return 0 if result.status == "optimal" else 2


# ---------- parser wiring ----------


def build_parser() -> _Parser:
    parser = _Parser(prog="causalot",
                     description="causal optimal transport on the real line")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("discretize", help="reduce a continuous family to atoms")
    p.add_argument("spec", help="JSON file with a family description")
    p.add_argument("--n", type=int, default=100, help="number of atoms")
    p.add_argument("--scheme", choices=["quantile", "uniform"], default="quantile")
    p.add_argument("--lo", type=float, default=None, help="window start (uniform)")
    p.add_argument("--hi", type=float, default=None, help="window end (uniform)")
    p.add_argument("--out", type=str, default=None, help="output file")
    p.set_defaults(fn=_cmd_discretize)

    p = subs.add_parser("check", help="causality check for a plan or a map")
    p.add_argument("--plan", type=str, default=None, help="plan JSON file")
    p.add_argument("--measure", type=str, default=None, help="measure JSON file")
    p.add_argument("--map", type=str, default=None, help="map JSON file")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="largest accepted deviation (plan) or offending mass (map)")
    p.add_argument("--out", type=str, default=None, help="output file")
    p.set_defaults(fn=_cmd_check)

    p = subs.add_parser("solve", help="solve a causal transport instance")
    p.add_argument("eta", nargs="?", default=None, help="source measure JSON file")
    p.add_argument("nu", nargs="?", default=None, help="target measure JSON file")
    p.add_argument("--instance", type=str, default=None, help="combined instance file")
    p.add_argument("--cost", choices=["abs", "square"], help="eta and nu files: cost (abs)")
    p.add_argument("--out", type=str, default=None, help="output file")
    p.set_defaults(fn=_cmd_solve)

    p = subs.add_parser("couple", help="simulate a coupling and test its axioms")
    p.add_argument("--x", type=str, default=None, help="law of X, e.g. exp:1")
    p.add_argument("--tau", type=str, default=None,
                   help="law of tau, or equal-to-x, or inf")
    p.add_argument("--z", type=str, default=None, help="law of Z, e.g. dirac:0")
    p.add_argument("--from-plan", type=str, default=None,
                   help="draw from a causal plan file instead")
    p.add_argument("--n", type=int, default=10_000, help="number of draws")
    p.add_argument("--confidence", type=float, default=0.999)
    p.add_argument("--report", type=str, default=None, help="axiom report path")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", type=str, default=None, help="sample CSV file")
    p.set_defaults(fn=_cmd_couple)

    p = subs.add_parser("example", help="ready-made scenarios")
    p.set_defaults(fn=_cmd_example)
    scenarios = p.add_subparsers(dest="name", required=True)

    p = scenarios.add_parser("mixture", help="causality check and conditional-CDF grid")
    p.add_argument("--rate-x", type=float, default=0.01, help="rate of X")
    p.add_argument("--rate-z", type=float, default=0.005, help="rate of Z")
    p.add_argument("--t0", type=float, default=700.0, help="holding point")
    p.add_argument("--atoms", type=int, default=200, help="grid atoms per law")
    p.add_argument("--grid", type=int, default=200, help="grid nodes per axis")
    p.add_argument("--xmax", type=float, default=2000.0, help="grid extent")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="largest accepted causality deviation")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.set_defaults(scenario=_example_mixture)

    p = scenarios.add_parser("brownian", help="passage-time conditional-CDF grid")
    p.add_argument("--lower", type=float, default=6.0, help="lower level")
    p.add_argument("--upper", type=float, default=11.0, help="upper level")
    p.add_argument("--xmax", type=float, default=20.0, help="x extent")
    p.add_argument("--ymax", type=float, default=50.0, help="y extent")
    p.add_argument("--step", type=float, default=0.5, help="grid step")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.set_defaults(scenario=_example_brownian)

    p = scenarios.add_parser("gamma-poisson", help="solve between Poisson jump times")
    p.add_argument("--shape", type=int, default=2, help="source shape")
    p.add_argument("--increase", type=int, default=1, help="extra target shape")
    p.add_argument("--rate", type=float, default=0.01, help="rate")
    p.add_argument("--atoms", type=int, default=200, help="grid atoms per law")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.set_defaults(scenario=_example_gamma_poisson)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help exits 0; replicate that
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
