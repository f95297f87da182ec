"""Stage-by-stage benchmark of the solve, couple and mixture pipelines.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-gamma60 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --all      # every workload, untraced then traced
    python3 perfbench/run.py --smoke    # every workload at a tiny size

Each workload is a closed loop: one caller in one process runs the next op
only after the previous one returns.  Worker processes start with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS removed, so BLAS
runs at its library default, which the result records.

``--trace 0`` runs the timed loop in SETUPS fresh processes one after
another, so set-up is measured SETUPS times, and reports the end-to-end
metrics.  ``--trace 1`` runs one process that times each input untraced
and traced, and reports the per-layer metrics.  Metric
names and units come from BENCHMARK.json; what each per-layer metric should
move is in predictions.json.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every op's output verified.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def source_record() -> dict:
    """Commit when the checkout is a git repository, and a digest of the package source."""
    files = sorted((SRC / "causalot").rglob("*.py"))
    if not files:
        raise BenchError(f"no causalot package under {SRC}")
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=20,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def run_worker(workload: str, seed: int, budget: float, offset: int, trace: bool,
               smoke: bool, deadline: float, tag: str) -> dict:
    result = OUT / f"{workload}-seed{seed}-{tag}.worker.json"
    result.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--budget", repr(budget), "--offset", str(offset),
           "--src", str(SRC), "--result", str(result)]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker passed the run's time limit") from None
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    record = json.loads(result.read_text())
    result.unlink()
    return record


def tail(times: list[float]) -> tuple[float, int]:
    """Time at the highest percentile with TAIL_BEYOND ops beyond it, and its rank.

    Below 10 * TAIL_BEYOND ops that percentile would fall under p90, so a
    tenth of the ops, rounded up, must lie beyond it instead.  The slowest op
    is never the tail unless it is the only one.
    """
    ordered = sorted(times)
    beyond = min(TAIL_BEYOND, math.ceil(len(ordered) / 10))
    rank = max(len(ordered) - beyond, 1)
    return ordered[rank - 1], rank


def run_untraced(workload: str, seed: int, seconds: float, smoke: bool,
                 deadline: float) -> dict:
    """End-to-end metrics from SETUPS processes that share the timed budget."""
    records = []
    timed = 0.0
    done = 0
    for k in range(SETUPS):
        budget = max(seconds * (k + 1) / SETUPS - timed, 0.0)
        rec = run_worker(workload, seed, budget, done, False, smoke, deadline, f"p{k}")
        records.append(rec)
        timed += sum(rec["times"])
        done += len(rec["times"])
    times = [t for r in records for t in r["times"]]
    ok = [o for r in records for o in r["ok"]]
    tail_s, tail_rank = tail(times)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "ops_per_s": sum(ok) / sum(times),
        "ok_ratio": sum(ok) / len(ok),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }
    notes = {
        "setup_s": "median of %d set-ups: %s" % (
            len(records), ", ".join(f"{r['setup_s']:.3f}" for r in records)),
        "op_p50_s": f"{len(times)} ops",
        "op_tail_s": f"p{100 * tail_rank / len(times):.1f}: rank {tail_rank} of {len(times)} ops, "
                     f"{len(times) - tail_rank} beyond it",
        "ops_per_s": f"{sum(ok)} verified ops in {sum(times):.3f} s timed",
        "ok_ratio": f"fail_ratio {1 - sum(ok) / len(ok):.4g}: "
                    f"{len(ok) - sum(ok)} failed of {len(ok)} attempted",
        "peak_rss_mb": f"getrusage, max over {len(records)} processes",
    }
    return {"metrics": metrics, "notes": notes, "attempted": len(ok),
            "failed": len(ok) - sum(ok), "problems": [f for r in records for f in r["failures"]],
            "env": records[0]["env"], "times": times}


def run_traced(workload: str, seed: int, seconds: float, smoke: bool, deadline: float) -> dict:
    """Per-layer metrics from one process that runs each input untraced and traced."""
    rec = run_worker(workload, seed, seconds, 0, True, smoke, deadline, "trace")
    ok = rec["ok"]
    return {"metrics": rec["layers"], "bases": rec["bases"],
            "traced_op_mean_s": rec["traced_op_mean_s"], "attempted": len(ok),
            "failed": len(ok) - sum(ok),
            "problems": rec["failures"] + rec["trace_problems"],
            "trace_ok": not rec["trace_problems"], "env": rec["env"], "times": rec["times"]}


def check_names(metrics: dict, expected: list[dict], what: str) -> None:
    missing = [m["name"] for m in expected if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in expected})
    if missing or extra:
        raise BenchError(f"{what} metrics differ from BENCHMARK.json: "
                         f"missing {missing}, unexpected {extra}")


def print_untraced(res: dict, spec: list[dict]) -> None:
    print(f"  end-to-end (untraced; closed loop, 1 caller, {SETUPS} processes in turn)")
    for m in spec:
        value = res["metrics"][m["name"]]
        print(f"    {m['name']:<14} {value:>14.6g} {m['unit']:<6} {res['notes'][m['name']]}")


def print_traced(name: str, res: dict, spec: list[dict], predictions: dict) -> None:
    base = res["traced_op_mean_s"]
    print(f"  per-layer (traced run; mean per traced op; share of the mean traced op, "
          f"{base:.6g} s)")
    for m in spec:
        value = res["metrics"][m["name"]]
        share = f"{100 * value / base:6.1f}%" if m["unit"] == "s" else " " * 7
        if m["name"] in res["bases"]:
            share = f"base {res['bases'][m['name']]:.4g}"
        pred = predictions[m["name"]]
        moves = ",".join(pred["moves"]) or "-"
        on = "*" if name in pred["on"] else " "
        print(f"   {on}{m['name']:<40} {value:>14.6g} {m['unit']:<6} {share:<12} {moves}")
    print("    (* marks metrics predicted to move this workload; see predictions.json)")


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            spec: dict, predictions: dict, source: dict, deadline: float) -> dict:
    print(f"== {name} (seed {seed}, {seconds:g} s timed, trace {int(trace)}) ==")
    if trace:
        res = run_traced(name, seed, seconds, smoke, deadline)
        check_names(res["metrics"], spec["per_layer"], "per-layer")
        print_traced(name, res, spec["per_layer"], predictions)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        res = run_untraced(name, seed, seconds, smoke, deadline)
        check_names(res["metrics"], spec["end_to_end"], "end-to-end")
        print_untraced(res, spec["end_to_end"])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    res["correct"] = res["failed"] == 0 and res.get("trace_ok", True)
    res["env"].update(source, seed=seed, workload=name, trace=int(trace), smoke=smoke,
                      blas_env_removed=list(BLAS_ENV))
    res["result"] = {
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }
    record = {"env": res["env"], **res["result"], "op_times_s": res["times"]}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload; omit with --all or --smoke")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a tiny size, for the benchmark's own test")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        predictions = json.loads((HERE / "predictions.json").read_text())
        source = source_record()
        names = [w["name"] for w in spec["workloads"]]
        if args.all or args.smoke:
            runs = [(n, t) for n in names for t in ([0, 1] if args.trace is None else [args.trace])]
        elif args.workload in names:
            runs = [(args.workload, args.trace or 0)]
        else:
            parser.error(f"--workload must be one of {names}, or give --all")
        seconds = args.seconds if args.seconds is not None else (
            0.3 if args.smoke else spec["run_seconds"])
        OUT.mkdir(exist_ok=True)
        results = []
        for name, trace in runs:
            results.append(run_one(name, args.seed, seconds, bool(trace), args.smoke,
                                   spec, predictions, source, time.monotonic() + RUN_LIMIT_S))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"env": results[0]["env"]}))
    if len(results) == 1:
        line = results[0]["result"]
    else:
        metrics: dict = {}
        for (name, _), res in zip(runs, results):
            metrics.setdefault(name, {}).update(res["result"]["metrics"])
        line = {"correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results), "metrics": metrics}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
