"""One workload process: timed set-up, a closed loop of ops, then a result file.

Set-up is the time to import ``causalot``, build the workload and run one
untimed warm-up op.  Then one caller runs ops back to back until their
summed wall time reaches ``--budget``.  Each op's output is verified after
its timer stops.  With ``--trace`` each input runs once untraced and once
with the tracer's wrappers installed, so traced and untraced op times come
from the same process and the same inputs.  ``run.py`` starts this script.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import causalot  # noqa: E402
import causalot.solver as solver  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def blas_threads() -> list[dict]:
    """Each OpenBLAS library in this process, with its effective thread count."""
    found = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path), "threads": None, "config": None}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and entry["threads"] is None:
                    get_threads.restype = ctypes.c_int
                    entry["threads"] = get_threads()
                if get_config is not None and entry["config"] is None:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
        found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--offset", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    if not Path(causalot.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"causalot was imported from {causalot.__file__}, not {args.src}", file=sys.stderr)
        return 1
    result_path = Path(args.result)
    workdir = result_path.parent / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        workload.op(workload.inputs(0))
        setup_s = time.perf_counter() - T0
        record = run_ops(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["setup_s"] = setup_s
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["env"] = environment()
    result_path.write_text(json.dumps(record))
    return 0


def run_ops(workload, args, workdir: Path) -> dict:
    tracer = tracing.Tracer()
    times, ok, traced, failures = [], [], [], []
    i = 0
    while sum(times) < args.budget:
        i += 1
        inp = workload.inputs(args.offset + i)
        # A traced run times each input twice, untraced and traced, in an
        # order that alternates, so the overhead ratio compares like inputs.
        modes = ((False, True) if i % 2 else (True, False)) if args.trace else (False,)
        for trace_this in modes:
            elapsed, problems = run_op(workload, inp, tracer if trace_this else None,
                                       i, workdir)
            times.append(elapsed)
            ok.append(not problems)
            traced.append(trace_this)
            failures.extend(f"op {args.offset + i}: {p}" for p in problems[:3])
    record = {"times": times, "ok": ok, "traced": traced, "failures": failures[:20]}
    if args.trace:
        traced_times = [t for t, tr in zip(times, traced) if tr]
        untraced_times = [t for t, tr in zip(times, traced) if not tr]
        layers, bases, problems = tracing.layer_metrics(tracer, range(1, i + 1))
        layers["trace.overhead_ratio"] = (statistics.median(traced_times)
                                          / statistics.median(untraced_times))
        record.update(layers=layers, bases=bases, trace_problems=problems[:20],
                      traced_op_mean_s=statistics.fmean(traced_times))
        spans_path = Path(args.result).with_name(
            f"{args.workload}-seed{args.seed}-trace1.spans.jsonl")
        with spans_path.open("w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(vars(s)) + "\n")
    return record


def run_op(workload, inp, tracer, op_id: int, workdir: Path):
    """One timed op, traced when a tracer is given; returns its time and any failures."""
    if tracer is not None:
        tracer.op = op_id
        undo = tracing.install(tracer)
        span = tracer.open("op")
    start = time.perf_counter()
    try:
        out, error = workload.op(inp), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.close(span)
        tracing.uninstall(undo)
        tracer.add("cli.bytes_written", sum(p.stat().st_size for p in workdir.iterdir()))
        if error is None and tracer.captured_problem is not None:
            certify(tracer, out[-1] if isinstance(out, tuple) else out)
        tracer.captured_problem = None
    if error is not None:
        return elapsed, [error]
    try:
        return elapsed, workload.verify(inp, out)
    except Exception as exc:  # a verifier that raises rejects the output
        return elapsed, [f"verification raised {type(exc).__name__}: {exc}"]


def certify(tracer, result) -> None:
    """Duality certificate of a traced solve, outside the op's span and timer."""
    if result.status != "optimal":
        return
    span = tracer.open("solver.certify")
    report = solver.certify(tracer.captured_problem, result.plan.mass.ravel(), result.duals)
    tracer.close(span)
    tracer.add("solver.certify_calls", 1)
    tracer.add("solver.certify_ok", bool(report))


if __name__ == "__main__":
    sys.exit(main())
