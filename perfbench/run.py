"""gcmkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The run

1. generates the workload's inputs from the seed SETUP_REPS times, each in
   a fresh process, and checks that every repetition wrote the same bytes;
2. starts one timed process that makes closed-loop calls into
   `gcmkit.cli.main` for S seconds (see worker.py);
3. with --trace 1, gives half of S to that process and half to a second,
   traced one, and reports the per-layer metrics and the tracing overhead
   instead.

It prints a human-readable summary and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics. Workloads, metrics
and the layer map are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import LAYER_METRICS, SOURCES, UNITS  # noqa: E402
from workloads import WORKLOADS, tree_digest  # noqa: E402

SETUP_REPS = 5
# One BLAS thread: the loop has one client, and a single thread keeps the
# float64 results bit-reproducible and the timings steady on a shared box.
BLAS_THREADS = 1
WORK_DIR = ".perfbench_work"
END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 150


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _check_declared_metrics() -> str:
    """BENCHMARK.json must declare exactly the metrics this code reports."""
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"cannot read BENCHMARK.json: {exc}"
    declared_e2e = {m["name"]: m["unit"] for m in spec.get("end_to_end", [])}
    declared_layers = {m["name"]: m["unit"] for m in spec.get("per_layer", [])}
    if declared_e2e != END_TO_END:
        return f"BENCHMARK.json end_to_end {declared_e2e} differs from {END_TO_END}"
    if declared_layers != UNITS:
        return f"BENCHMARK.json per_layer differs from layers.py in {sorted(set(declared_layers.items()) ^ set(UNITS.items()))}"
    return ""


def _machine() -> dict:
    import platform

    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run_worker(workload: str, work: str, seconds: float, trace: bool, env: dict) -> dict:
    tag = "traced" if trace else "untraced"
    out_root = os.path.join(work, f"runs-{tag}")
    result_path = os.path.join(work, f"result-{tag}.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, os.path.join(work, "inputs"), out_root,
         str(seconds), "1" if trace else "0", result_path],
        env=env, check=True, timeout=seconds + CHILD_TIMEOUT_S,
    )
    shutil.rmtree(out_root, ignore_errors=True)
    with open(result_path) as fh:
        return json.load(fh)


def _tail(values) -> str:
    """The highest tail percentile (p75 or above) with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100.0 >= 10:
            return f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f} s"
    return ", no tail percentile (under 40 samples)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "gcmkit", "cli.py")):
        return _fail("run from the root of a gcmkit source checkout (src/gcmkit is missing)")
    problem = _check_declared_metrics()
    if problem:
        return _fail(problem)

    work = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = _child_env()
    inputs = os.path.join(work, "inputs")

    setup_s, input_digests = [], set()
    for _ in range(SETUP_REPS):
        shutil.rmtree(inputs, ignore_errors=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "gen_inputs.py"), args.workload, str(args.seed), inputs],
                       env=env, check=True, timeout=CHILD_TIMEOUT_S)
        setup_s.append(time.perf_counter() - t0)
        input_digests.add(tree_digest(inputs))

    # a traced run splits its time between an untraced and a traced process,
    # so it costs about as much as an untraced run
    seconds = args.seconds / 2 if args.trace else args.seconds
    results = [_run_worker(args.workload, work, seconds, False, env)]
    if args.trace:
        results.append(_run_worker(args.workload, work, seconds, True, env))
    shutil.rmtree(inputs, ignore_errors=True)
    untraced = results[0]

    calls = [c for r in results for c in r["calls"]]
    failed = sum(not c["ok"] for c in calls)
    problems = []
    if failed:
        problems.append(f"{failed} of {len(calls)} calls failed")
    if len(input_digests) != 1:
        problems.append(f"setup repetitions wrote different inputs from seed {args.seed}")

    op_s = statistics.median(untraced["rounds"])
    machine = _machine()
    lines = [
        "machine: " + " ".join(f"{k}={v}" for k, v in machine.items()),
        f"workload {args.workload} seed {args.seed}: inputs sha256 {sorted(input_digests)[0]}",
    ]
    labels = sorted({c["label"] for c in untraced["calls"]})
    for label in labels:
        times = [c["seconds"] for c in untraced["calls"] if c["label"] == label]
        cpu = statistics.median(c["cpu_seconds"] for c in untraced["calls"] if c["label"] == label)
        name = "rank_s" if label == "rank" else f"downscale_s.{label}"
        lines.append(f"  {name:<26} {statistics.median(times):.4f} s   median of {len(times)} calls{_tail(times)}"
                     f" (process CPU {cpu:.4f} s)")
    lines += [
        f"  {'op_s':<26} {op_s:.4f} s   median of {len(untraced['rounds'])} rounds",
        f"  {'setup_s':<26} {statistics.median(setup_s):.4f} s   median of {len(setup_s)} setups",
        f"  {'peak_rss_mb':<26} {untraced['peak_rss_mb']:.1f} MB  (ru_maxrss of the timed process)",
        f"  {'error_rate':<26} {failed / len(calls):.4f} failed/attempted  ({failed}/{len(calls)})",
    ]
    for label, digest in sorted(untraced["digests"].items()):
        lines.append(f"  artifact digest {label}: {digest}")

    if args.trace:
        traced = results[1]
        layer_values = dict(traced["layers"])
        layer_values["trace.overhead_pct"] = 100.0 * (statistics.median(traced["rounds"]) - op_s) / op_s
        problems += traced["count_problems"]
        metrics = {}
        lines.append("  per-layer metrics, per round (see perfbench/README.md):")
        for name, unit, where, moves in LAYER_METRICS:
            value = layer_values.get(name)
            if value is None and args.workload in where:
                lines.append(f"    ABSENT {name}: {_absent_reason(name, traced['absent'])}")
            metrics[name] = {"value": float(value or 0.0), "unit": unit}
            if value is not None:
                lines.append(f"    {name:<44} {value:.6g} {unit}")
        for target, reason in sorted(traced["absent"].items()):
            lines.append(f"    absent wrapper {target}: {reason}")
    else:
        metrics = {
            "op_s": {"value": op_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": untraced["peak_rss_mb"], "unit": "MB"},
        }
    lines += [f"  PROBLEM: {p}" for p in problems]

    summary = {"correct": not problems, "attempted": len(calls), "failed": failed, "metrics": metrics}
    with open(os.path.join(work, "summary.json"), "w") as fh:
        json.dump({"machine": machine, "summary": summary, "setup_s": setup_s, "lines": lines}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


def _absent_reason(name: str, absent: dict) -> str:
    source = SOURCES.get(name)
    if source and source in absent:
        return f"{source}: {absent[source]}"
    return "its span did not fire on this workload"


if __name__ == "__main__":
    sys.exit(main())
