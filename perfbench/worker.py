"""The timed process: a closed loop of CLI calls with one client.

    python3 perfbench/worker.py WORKLOAD INPUTS_DIR OUT_ROOT SECONDS TRACE RESULT_JSON

Each call starts when the previous one ends. A round starts only when the
slowest round so far would still end within SECONDS, so the timed window
never overruns (the first round always runs). Every call goes through
`gcmkit.cli.main(argv)`; a non-zero exit, an exception, a failed output
check or an output digest that differs from the first repetition of the
same call counts as a failed call. With TRACE=1 the layers are wrapped
(see tracing.py) and per-layer values are written too. `src` must be on
PYTHONPATH.
"""

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

from workloads import WORKLOADS, check_outputs, output_digest, round_calls, run_dir_of


def main(argv):
    name, inputs_dir, out_root, seconds, trace, result_path = argv
    workload = WORKLOADS[name]
    seconds, trace = float(seconds), trace == "1"

    from gcmkit import cli

    tracer = None
    if trace:
        import layers
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    calls, rounds, layer_calls = [], [], []
    digests = {}
    deadline = time.perf_counter() + seconds
    index = 0
    longest_round = 0.0
    while True:
        round_s = 0.0
        round_start = time.perf_counter()
        for label, call_argv in round_calls(workload, inputs_dir, out_root, index):
            run_dir = run_dir_of(call_argv)
            if tracer:
                tracer.op = len(calls)
                tracer.counts.clear()
                first_span = len(tracer.spans)
            problem = None
            gc.collect()  # each call starts from a collected heap, as a fresh CLI process would
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(call_argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crashing call is a failed call; keep measuring
                code = None
                problem = traceback.format_exc(limit=3)
            elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
            round_s += elapsed
            if problem is None and code != 0:
                problem = f"exit code {code}"
            if problem is None:
                try:
                    problems = check_outputs(workload, run_dir)
                    digest = output_digest(run_dir)
                    if digests.setdefault(label, digest) != digest:
                        problems.append(f"manifest digest {digest} differs from the first {label} call")
                except (OSError, ValueError, KeyError) as exc:
                    problems = [f"unreadable outputs: {exc!r}"]
                problem = "; ".join(problems) or None
                if tracer and problem is None:
                    layer_calls.append((label, layers.call_values(tracer, first_span, run_dir)))
            if problem:
                print(f"call {label} #{index} failed: {problem}", file=sys.stderr)
            calls.append({"label": label, "seconds": elapsed, "cpu_seconds": cpu, "ok": problem is None})
            shutil.rmtree(run_dir, ignore_errors=True)
        rounds.append(round_s)
        index += 1
        longest_round = max(longest_round, time.perf_counter() - round_start)
        if time.perf_counter() + longest_round > deadline:
            break

    result = {
        "calls": calls,
        "rounds": rounds,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        per_round, count_problems = layers.aggregate(layer_calls)
        result.update(layers=per_round, count_problems=count_problems, absent=tracer.absent)
        tracer.write(os.path.join(os.path.dirname(result_path), "spans.jsonl"))
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
