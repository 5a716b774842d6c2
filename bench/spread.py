"""Run the benchmark over several seeds and summarise it, or compare a
parent checkout with this one.

    python3 bench/spread.py run --out summary.json [--seeds 0-9]
    python3 bench/spread.py compare PARENT_ROOT --out both.json [--seeds 0-9]

Every run is one end-to-end run (``--trace 0``) of a workload of this
checkout's ``BENCHMARK.json``, for its ``run_seconds``, started with the
checkout's own benchmark command from the checkout's root.  Runs go one at
a time, never in parallel, which would disturb the timings.

``run`` records, per workload and end-to-end metric, every value with its
median and interquartile spread (IQR over median, quartiles as
``statistics.quantiles(values, n=4)`` gives them).

``compare`` runs the parent checkout and this one alternately, seed by
seed, flipping the order every seed, so a slow stretch of a shared machine
falls on both sides alike.  It writes both summaries and prints, per
workload and metric, both medians and the change in the worse direction
as a share of the parent's median, and in how many seed pairs the change
read better.  The verdict is ``ok`` or ``REGRESSION`` against the metric's
bound, or ``unresolved`` where either side's spread exceeds the bound, so
that noise could account for the difference, unless every run of the
change reads better than every run of the parent.  It exits with 1 if any
metric regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def spec(root: Path = HERE) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict[str, float]:
    command = [*spec(root)["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.exit(f"{root}: {workload} seed {seed}: run failed or incorrect")
    return {name: m["value"] for name, m in result["metrics"].items()}


def collect(roots: list[Path], seeds: list[int]) -> list[dict]:
    """One summary per root; the roots take turns, in an order flipped every seed."""
    bench = spec()
    seconds = bench["run_seconds"]
    summaries = [{"seconds": seconds, "seeds": seeds, "python": platform.python_version(),
                  "nproc": os.cpu_count(), "platform": platform.platform(), "workloads": {}}
                 for _ in roots]
    for workload in (w["name"] for w in bench["workloads"]):
        values: list[dict[str, list[float]]] = [{} for _ in roots]
        for i, seed in enumerate(seeds):
            order = list(range(len(roots)))
            for k in order[::-1] if i % 2 else order:
                for name, value in run_once(roots[k], workload, seed, seconds).items():
                    values[k].setdefault(name, []).append(value)
        for summary, v in zip(summaries, values):
            summary["workloads"][workload] = {name: summarise(x) for name, x in v.items()}
    return summaries


def print_summary(summary: dict) -> None:
    for workload, metrics in summary["workloads"].items():
        for name, s in metrics.items():
            print(f"{workload:<13} {name:<16} median {s['median']:>12.6g}  spread {s['spread']:.4f}")


def run(args: argparse.Namespace) -> int:
    (summary,) = collect([HERE], seed_range(args.seeds))
    print_summary(summary)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


def compare(args: argparse.Namespace) -> int:
    parent, change = collect([Path(args.parent).resolve(), HERE], seed_range(args.seeds))
    Path(args.out).write_text(json.dumps({"parent": parent, "change": change}, indent=1) + "\n")
    regressed = False
    for metric in spec()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        for workload in change["workloads"]:
            a, b = parent["workloads"][workload][name], change["workloads"][workload][name]
            worse = sign * (b["median"] - a["median"]) / a["median"]
            wins = sum(sign * (y - x) < 0 for x, y in zip(a["values"], b["values"]))
            all_better = (max(sign * y for y in b["values"])
                          < min(sign * x for x in a["values"]))
            if max(a["spread"], b["spread"]) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict, regressed = "REGRESSION", True
            else:
                verdict = "ok"
            print(f"{workload:<13} {name:<16} {a['median']:>12.6g} -> {b['median']:>12.6g}  "
                  f"worse by {worse:+.4f} (bound {bound}, spreads {a['spread']:.3f} "
                  f"{b['spread']:.3f}, better in {wins}/{len(b['values'])} pairs)  {verdict}")
    return 1 if regressed else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="0-9")
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("parent", help="root of the parent checkout")
    c.add_argument("--seeds", default="0-9")
    c.add_argument("--out", required=True)
    args = p.parse_args()
    return run(args) if args.mode == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
