"""Benchmark entry point: one workload, one seed, one process.

Run from the repository root::

    python3 e2ebench/run.py --workload hdbscan-varden-2d --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it makes the per-layer traced run instead and writes the
spans to ``e2ebench/out/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is the run fingerprint.

``setup_s`` is the median of three set-ups: the one this process needs
anyway and two in fresh child processes (``--setup-probe``), run between
shares of the measured phase.  Each set-up is import, input generation and
one untimed full-size fit.  ``peak_rss_mb`` is this process's peak resident
set after the measured phase and before the checks, so it covers set-up and
every measured call.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Listed here, not imported, so a bad argument fails before the program loads.
WORKLOAD_NAMES = ("hdbscan-varden-2d", "serve-churn-varden-2d")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def require_source() -> None:
    """Stop unless the checkout holds the program's source.

    The benchmark measures the program in the checkout it runs from, never
    an installed copy, so a checkout without ``src/repro`` is an error.
    """
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SOURCE / 'repro'}")


def import_program() -> None:
    """Import ``repro`` from the checkout's ``src``, or stop."""
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}")


def setup(workload_name: str, seed: int, started: float):
    """Import, generate inputs and fit once.

    ``started`` is when this set-up began, before the program was imported.
    Returns ``(workload, ctx, seconds)``.
    """
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    ctx = workload.setup(seed)
    return workload, ctx, time.perf_counter() - started


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds of one set-up, measured in a fresh process."""
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--setup-probe",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"error: set-up probe exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def git_revision() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def yardstick_s() -> float:
    """Median seconds of a fixed single-thread task that uses no program code.

    A numpy sort and a Python loop, five times.  Recorded in the
    fingerprint, never in the metrics: when every timing of a run set moves
    and this moves with it, the machine changed, not the program.
    """
    import numpy

    values = numpy.random.default_rng(0).random(4_000_000)
    times = []
    for _ in range(5):
        begin = time.perf_counter()
        numpy.sort(values)
        sum(i * i for i in range(1_000_000))
        times.append(time.perf_counter() - begin)
    return statistics.median(times)


def fingerprint(args: argparse.Namespace, load_start) -> dict:
    import numpy
    import scipy
    from workloads import NUM_THREADS

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "num_threads": NUM_THREADS,
        "git_revision": git_revision(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "yardstick_s": yardstick_s(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    if args.setup_probe:
        _, _, seconds = setup(args.workload, args.seed, STARTED)
        print(json.dumps({"setup_s": seconds}))
        return 0

    load_start = list(os.getloadavg())
    if args.trace:
        workload, ctx, _ = setup(args.workload, args.seed, STARTED)
        from tracing import Tracer

        run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
        tracer = Tracer(run_id)
        outcome = workload.traced(ctx, tracer)
    else:
        # The set-up probes run between shares of the measured phase: never
        # at the same time as it, but spreading its samples over the run.
        workload, ctx, seconds = setup(args.workload, args.seed, STARTED)
        samples = [seconds]
        pauses = [lambda: samples.append(probe_setup(args))] * SETUP_PROBES
        outcome = workload.measure(ctx, args.seconds, pauses)
        from workloads import peak_rss_mb

        outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        outcome.metrics["setup_s"] = (statistics.median(samples), "s")
        outcome.notes.append("setup_s samples: " + " ".join(f"{v:.3f}" for v in samples))

    workload.check(ctx, outcome)
    if not args.trace:
        outcome.set_ok_rate()

    info = fingerprint(args, load_start)
    if args.trace:
        info["trace_file"] = str(
            tracer.write(OUT, f"{args.workload}-seed{args.seed}", info).relative_to(ROOT)
        )
        for name, entry in sorted(tracer.self_times().items()):
            print(
                f"# self {name}: count={entry['count']} "
                f"total={entry['total_s']:.4f}s self={entry['self_s']:.4f}s"
            )
    for note in outcome.notes:
        print(f"# {note}")
    for problem in outcome.problems:
        print(f"# CHECK FAILED: {problem}")
    print(json.dumps({"fingerprint": info}))
    result = {
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(outcome.metrics.items())
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
