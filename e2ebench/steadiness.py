"""Steadiness report: run one workload once per seed and summarise the spread.

Run from the repository root::

    python3 e2ebench/steadiness.py --workload serve-churn-varden-2d --seeds 1 2 3 4 5

For each metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and IQR/median, next to
the metric's bound from ``BENCHMARK.json``.  A metric is steady when its
IQR/median is below a third of its bound and within bound up to the bound
itself.  ``--save`` keeps the raw values and each run's ``#`` lines (the
samples behind its medians), and ``--against`` compares this set's medians
with a saved set's, which is the drift test: no median may be worse than
the earlier one by more than its bound.  The table also lists ``yardstick_s`` from each run's fingerprint, a
fixed task that uses no program code: when it drifts with the timings, the
machine changed speed.  The runs are sequential, so they never share the cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Workloads and metrics left out of the benchmark, with the reason.
DROPPED = {
    "emst-household-7d (workload)": (
        "a full pass is 4 + 22 runs per workload within 57 minutes; with a "
        "third workload each run had about 40 s, too short to ride out the "
        "shared 2-vCPU machine's speed swings. Every layer it measured is "
        "also measured on hdbscan-varden-2d."
    ),
    "max_rate_rps": (
        "an earlier attempt's highest rate on a rate ladder; it jumped a whole "
        "rung between runs."
    ),
    "one recut_p50_ms over hits and misses": (
        "a median between a 0.3 ms mode and a 10-20 ms mode moves with the "
        "mix; each request kind has its own p50 in the per-layer run."
    ),
    "fit_s and the per-kind serve metrics (end to end)": (
        "every workload must report every end-to-end metric, and a fit "
        "workload has no requests and a serve workload no repeated fit. "
        "round_s, the median time of one round of the workload's fixed work "
        "(one fit; one insert and one delete cycle of requests), replaces "
        "fit_s, serve_rps and the per-kind p50s and tails; the per-kind p50s "
        "are per-layer metrics (serve.*_p50_ms) and every run prints them."
    ),
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, "e2ebench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if completed.returncode != 0:
        raise SystemExit(f"seed {seed} exited {completed.returncode}:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fingerprint = json.loads(lines[-2])["fingerprint"]
    result["metrics"]["yardstick_s"] = {"value": fingerprint["yardstick_s"], "unit": "s"}
    result["notes"] = [line for line in lines if line.startswith("# ")]
    return result


def spread(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write the raw values here")
    parser.add_argument("--against", type=Path, help="a saved set to compare medians with")
    parser.add_argument("--load", type=Path, help="report a saved set instead of running")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: m for m in listed}
    values: dict = {}
    notes: dict = {}
    if args.load:
        saved = json.loads(args.load.read_text())
        args.seeds, values = saved["seeds"], saved["values"]
        notes = saved.get("notes", {})
    elif not args.seeds:
        parser.error("give --seeds or --load")
    started = time.time()
    for seed in [] if args.load else args.seeds:
        result = run_once(args.workload, seed, spec["run_seconds"], args.trace)
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}",
            flush=True,
        )
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        notes[str(seed)] = result["notes"]
    print(f"{len(args.seeds)} runs in {time.time() - started:.0f} s\n")

    earlier = json.loads(args.against.read_text())["values"] if args.against else {}
    print(f"## {args.workload}, seeds {' '.join(map(str, args.seeds))}\n")
    print("| metric | median | q1 | q3 | IQR/median | bound | drift | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for name in sorted(values):
        median, q1, q3, relative = spread(values[name])
        meta = metrics.get(name, {})
        bound = meta.get("bound")
        verdict = "-"
        drift = "-"
        if bound is not None:
            if relative < bound / 3:
                verdict = "steady"
            elif relative <= bound:
                verdict = "within bound"
            else:
                verdict = "NOT STEADY"
        if name in earlier:
            before = statistics.median(earlier[name])
            change = median / before - 1.0
            if meta.get("better") == "higher":
                change = -change
            drift = f"{change:+.3f}"
            if bound is not None and change > bound:
                verdict = "DRIFTED"
        print(
            f"| {name} | {median:.6g} | {q1:.6g} | {q3:.6g} | {relative:.4f} | "
            f"{bound if bound is not None else '-'} | {drift} | {verdict} |"
        )
    print("\nDropped from the benchmark:")
    for name, reason in DROPPED.items():
        print(f"- {name}: {reason}")
    if args.save:
        args.save.write_text(
            json.dumps(
                {"workload": args.workload, "seeds": args.seeds, "values": values, "notes": notes}
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
