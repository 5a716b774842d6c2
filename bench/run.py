"""minicypher benchmark: one closed-loop client, three seeded workloads.

Usage, from the root of a checkout::

    python3 bench/run.py --workload lookup --seed 0 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

A run sets the workload up several times (``setup_s`` is the median),
checks the query shapes against the oracle on small graphs, then sends ops
one at a time for ``--seconds`` seconds, finishing the last cycle of query
shapes so every run sees the same mix.  Times are in reference seconds:
each is scaled by a fixed probe run between the ops, so that a shared
host's changing speed cancels (see ``calibrate.py``); set-up times too.
Every op's output is checked.  On the default seed the run then checks
full-size results against ``pinned.json``; peak memory is read before that
check, which renders large tables.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` half the time runs untraced and half traced (see
``tracing.py``); the run reports the per-layer metrics of the traced ops
and writes their spans to ``bench/out/``.  Where the timed ops never reach
the oracle (``lookup``, ``bulk``), its figures come from the generated
cases the run checks through the CLI's text path, traced on their own.
Metric names and units, and the default of ``--seconds``, are those of
``BENCHMARK.json``.  Human-readable lines come first; the last line of
standard output is the JSON result.  Failed checks go to standard error.
The program is built from ``src/`` next to this directory; the run exits
with code 2 if it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
# setup_s is the median of this many set-ups, spread over a few seconds so
# that one slow stretch of a shared machine does not decide it.
SETUP_REPEATS = 9
# Enough ops that latency_ms_p90 has ten samples beyond it.
MIN_SAMPLES = 100


def spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in report order."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


class Loop:
    """What one timed loop measured: op latencies in reference seconds (see
    ``calibrate.py``), and per batch its ops, rows and busy reference seconds
    (the time spent inside the library)."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.batches: list[tuple[int, int, float]] = []
        self.failures: list[str] = []
        self.clock = calibrate.Clock()

    def per_second(self, field: int) -> float:
        """Median over batches of ops (field 0) or rows (field 1) per busy second.

        The median keeps a rare very slow differential case from swinging
        the figure; for the query workloads a batch is one cycle of shapes.
        """
        return statistics.median(b[field] / b[2] for b in self.batches)


def timed_loop(w, seconds: float, run, min_samples: int = 0) -> Loop:
    """Send ops one after another until ``seconds`` pass, ending on a batch.

    After every ``calibrate.SEGMENT_S`` or so of ops the probe runs, and the
    latencies of the ops since the last probe run are scaled to reference
    seconds.  With ``min_samples`` the loop also goes on until that many ops
    are done, but never past twice ``seconds``.
    """
    loop = Loop()
    pending: list[float] = []  # raw latencies of the ops since the last probe run
    scaled: list[float] = []  # reference latencies of this batch's ops

    def settle() -> None:
        factor = loop.clock.scale(sum(pending))
        scaled.extend(x * factor for x in pending)
        pending.clear()

    start = time.perf_counter()
    for batch in w.batches():
        rows = 0
        for op in batch:
            t0 = time.perf_counter()
            try:
                out = run(op)
            except Exception as exc:  # a raising op is a failed op; keep measuring
                out, message = None, f"{op.shape}: raised {type(exc).__name__}: {exc}"
            pending.append(time.perf_counter() - t0)
            if out is not None:
                ok, n, message = w.check(op, out)
                rows += n
                if not ok:
                    loop.failures.append(message)
            else:
                loop.failures.append(message)
            if sum(pending) >= calibrate.SEGMENT_S:
                settle()
        if pending:
            settle()
        loop.latencies += scaled
        loop.batches.append((len(batch), rows, sum(scaled)))
        scaled.clear()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(loop.latencies) >= min_samples or elapsed >= 2 * seconds):
            return loop
    raise AssertionError("unreachable: batches() is endless")


def tail_percentile(n: int) -> int:
    """90, or the highest percentile with at least ten samples beyond it."""
    return 90 if n >= 100 else max(50, int(100 * (1 - 10 / n)))


def end_to_end(loop: Loop, setup_times: list[float], rss: float, attempted: int,
               failed: int) -> tuple[dict, dict]:
    lat = loop.latencies
    q = tail_percentile(len(lat))
    cuts = statistics.quantiles(lat, n=100, method="inclusive")
    return {
        "setup_s": statistics.median(setup_times),
        "latency_ms_p50": 1000 * statistics.median(lat),
        "latency_ms_p90": 1000 * cuts[q - 1],
        "ops_per_s": loop.per_second(0),
        "rows_per_s": loop.per_second(1),
        "error_rate": failed / attempted,
        "peak_rss_mb": rss,
    }, {"latency_samples": len(lat), "tail_percentile": q,
        "samples_beyond_tail": sum(1 for x in lat if x > cuts[q - 1])}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    setup_times = []
    clock = calibrate.Clock()
    for _ in range(SETUP_REPEATS):
        w = None  # let the previous inputs go before building the next
        t0 = time.perf_counter()
        w = workloads.WORKLOADS[name](seed)
        w.setup()
        took = time.perf_counter() - t0
        setup_times.append(took * clock.scale(took))

    checks = w.oracle_checks()
    if not trace:
        checks += workloads.cli_path_checks(w)
        loop = timed_loop(w, seconds, w.run, MIN_SAMPLES)
        rss = peak_rss_mb()
        checks += workloads.pinned_checks(w)
        return report(w, loop, setup_times, rss, checks, None)

    import tracing

    untraced = timed_loop(w, seconds / 2, w.run)
    with tracing.Tracer() as check_tracer:
        checks += check_tracer.op(workloads.cli_path_checks, w)
    with tracing.Tracer() as tracer:
        w.load()
        traced = timed_loop(w, seconds / 2, lambda op: tracer.op(w.run, op))
    rss = peak_rss_mb()
    checks += workloads.pinned_checks(w)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
    overhead = traced.per_second(0) / untraced.per_second(0)
    layers = tracer.metrics(len(traced.latencies), overhead)
    if not tracer.calls["oracle.gen_case"]:
        layers.update(check_tracer.oracle_metrics())
    return report(w, untraced, setup_times, rss, checks, (layers, traced))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report(w, loop: Loop, setup_times, rss: float, checks: list[tuple[bool, str]],
           traced) -> dict:
    failures = [message for ok, message in checks if not ok] + loop.failures
    n_checks = len(checks)
    attempted = n_checks + len(loop.latencies)
    if traced is not None:
        failures += traced[1].failures
        attempted += len(traced[1].latencies)
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    e2e, samples = end_to_end(loop, setup_times, rss, attempted, len(failures))
    print("# context " + json.dumps({
        "workload": w.name, "seed": w.seed, "python": platform.python_version(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "setup_repeats": len(setup_times), "result_checks": n_checks,
        "probe_slowdown_median": round(loop.clock.median_slowdown(), 4), **samples,
    }, sort_keys=True))
    # error_rate is printed too, but it is 0 at a correct commit, so the JSON
    # result carries it as ``failed`` / ``attempted`` instead of as a metric.
    end_to_end_units = units("end_to_end")
    for name, unit in {**end_to_end_units, "error_rate": "ratio"}.items():
        print(f"{name:<30} {e2e[name]:>14.6g} {unit}")
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in end_to_end_units.items()}
    if traced is not None:
        layers = traced[0]
        print(f"# traced ops {len(traced[1].latencies)}")
        per_layer_units = units("per_layer")
        for name, unit in per_layer_units.items():
            print(f"{name:<30} {layers[name]:>14.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer_units.items()}
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def run_all(args: argparse.Namespace) -> int:
    """Run each workload in a process of its own, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("lookup", "bulk", "differential"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["lookup", "bulk", "differential", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    if not (SRC / "minicypher" / "__init__.py").is_file():
        print(f"bench: no minicypher sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
