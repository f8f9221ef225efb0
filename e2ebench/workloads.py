"""The benchmark's two workloads.

Each workload has the same four steps, all driven by ``run.py``, which
imports this module only after putting the checkout's ``src`` on the path:

* ``setup(seed)`` -- generate the inputs from the seed and run one untimed
  full-size fit.  The first full-size fit in a fresh process is 1.4-1.8x a
  warm one, so set-up absorbs it and the timed phase starts warm.
* ``measure(ctx, seconds)`` -- the end-to-end phase, with tracing off.  It
  times whole rounds of the workload's fixed work, one fit or one insert
  cycle and one delete cycle of the serve sequence, and reports the
  measured seconds per round.  A run holds only 4-6 rounds, and their mean
  spread less between runs than their median (IQR/median 0.13 against
  0.17 and 0.22 against 0.26 over two sets of ten serve runs).
* ``check(ctx, outcome)`` -- the oracle checks of ``checks.py``, outside every
  timed window.
* ``traced(ctx, tracer)`` -- the per-layer run: spans around the
  benchmark's own calls into each public layer.  Both workloads time every
  layer, the fit layers and the serve and update layers, on their own
  points, so every per-layer metric has a value on both.

Why these two (see README.md for the metric-to-layer map):

* ``hdbscan-varden-2d`` -- the full HDBSCAN* pipeline; core distances
  dominate, then the MemoGFK MST and the dendrogram.
* ``serve-churn-varden-2d`` -- reads and writes against one served state,
  as a closed-loop ``repro serve`` client: every update empties the cut
  cache, so a write-side gain that costs reads shows here.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.spatial import cKDTree

import checks
import repro
from repro import core_distances, dendrogram_topdown, hdbscan_mst_memogfk
from repro.datasets import load_dataset
from repro.dendrogram.condensed import (
    condense_dendrogram,
    labels_and_probabilities_from_condensed,
)
from repro.dynamic import delete_batch, fit_dynamic, insert_batch
from repro.hdbscan import HDBSCANResult
from repro.serve import ServingEngine, approximate_predict, compute_cut
from repro.spatial import KDTree

#: The HDBSCAN* density parameter (the paper's default).
MIN_PTS = 10
#: Worker threads for every fit and for the serving engine: the reference
#: machine has 2 cores.  BLAS threads are recorded, never pinned.
NUM_THREADS = 2
#: Timed fits per run, at least; a median of three resists one slow fit.
MIN_FITS = 3

#: Held-out points per workload, for predicts and inserts.
POOL = 2_000
#: Serve: fitted points.
SERVE_N = 10_000
#: Generator seed of the one draw the serve points come from.
GEOMETRY_SEED = 0
#: Points per predict request and per insert or delete request.
PREDICT_BATCH = 64
UPDATE_BATCH = 4
#: The serve mix is synthetic.  Its target: each costly request kind (the
#: update, min_cluster_size recuts, epsilon cache misses, predicts) takes
#: about a quarter of the engine's time, so a round's time moves by the
#: same share whichever of them gets faster.  With one update per cycle
#: (about 500 ms on the reference machine) that is 7 min_cluster_size
#: recuts (about 65 ms each), 64 epsilon misses (about 8 ms) and 64
#: predicts (about 7.5 ms).  README.md lists the shares measured.
#:
#: Hot epsilon keys, quantiles of the fitted MST weights: each is asked
#: HOT_REPEATS times per cycle, so it misses once after the update and hits
#: after that.  Hits cost about 0.3 ms; they are under 1% of engine time.
HOT_QUANTILES = (0.45, 0.6, 0.75, 0.9)
HOT_REPEATS = 16
#: Cold epsilon keys are fresh quantiles from this range, one from each of
#: COLD_PER_CYCLE equal strata per cycle (the cost of a cut grows with
#: epsilon, so every run covers the range evenly): always misses.  With the
#: hot keys' first asks, a cycle has 64 epsilon misses.
COLD_QUANTILE_RANGE = (0.3, 0.9)
COLD_PER_CYCLE = 60
#: min_cluster_size recuts, each value once per cycle (their costs differ).
#: The fitted value 5 is left out: it reuses the cached condensed tree and
#: costs no more than an epsilon cut.
MCS_CHOICES = (8, 10, 12, 15, 20, 25, 30)
PREDICTS_PER_CYCLE = 64
#: A round is an insert cycle and then a delete cycle: the two updates cost
#: different amounts, and a median over single cycles would sit between them.
CYCLES_PER_ROUND = 2
#: Rounds of the serve sequence in the per-layer run.
TRACE_ROUNDS = 1
#: Direct calls per layer probe in the per-layer run.
LAYER_REPEATS = 5
#: Request kinds, each with its own latencies.
KINDS = ("hit", "eps", "mcs", "predict", "update")


def p50(values: List[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def split_draw(dataset: str, n: int, generator_seed: int, split_seed: int):
    """``n`` fitted and ``POOL`` held-out points of one draw, split by seed."""
    every = load_dataset(dataset, n=n + POOL, seed=generator_seed)
    order = np.random.default_rng(split_seed).permutation(every.shape[0])
    return every[order[:n]], every[order[n:]]


@dataclass
class Outcome:
    """What one run measured, attempted and found wrong."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def fail(self, reason: Optional[str], operations: int = 1) -> None:
        """Record a failed check, charging it to ``operations`` operations."""
        if reason is not None:
            self.problems.append(reason)
            self.failed = min(self.attempted, self.failed + operations)

    def set_ok_rate(self) -> None:
        ok = self.attempted - self.failed
        self.metrics["ok_rate"] = (ok / self.attempted, "ratio")


# -- fit layers ----------------------------------------------------------------


def fit(points: np.ndarray, threads: int) -> HDBSCANResult:
    return repro.hdbscan(points, min_pts=MIN_PTS, num_threads=threads)


def _fit_arrays(result: HDBSCANResult) -> Dict[str, np.ndarray]:
    """Every output array of a fit, for byte comparison between fits."""
    u, v, w = result.mst.edges.as_arrays()
    arrays = {"u": u, "v": v, "w": w, "core": result.core_distances}
    arrays.update(result.dendrogram.state_arrays())
    return arrays


def _same(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    return checks.check_same_state(a, b) is None


def check_fit(points: np.ndarray, result: HDBSCANResult, outcome: Outcome) -> None:
    """Oracle checks on one fit, charged to every operation of the run."""
    u, v, w = result.mst.edges.as_arrays()
    core = checks.oracle_core_distances(points, MIN_PTS)
    for reason in (
        checks.check_core_distances(points, result.core_distances, MIN_PTS),
        checks.check_spanning_tree(points.shape[0], u, v),
        checks.check_mst_weights(points, w, core),
        checks.check_dendrogram_heights(result.dendrogram.heights(), w),
    ):
        outcome.fail(reason, outcome.attempted)


def traced_fit(points: np.ndarray, tracer) -> HDBSCANResult:
    """The public ``hdbscan`` call, one public layer call at a time."""
    with tracer.span("core_distance.knn"):
        core = core_distances(points, MIN_PTS, num_threads=NUM_THREADS)
    with tracer.span("memogfk.mst") as span:
        mst = hdbscan_mst_memogfk(
            points, MIN_PTS, core_dists=core, num_threads=NUM_THREADS
        )
        span["args"].update(_counts(mst.stats))
    with tracer.span("dendrogram.topdown"):
        dendrogram = dendrogram_topdown(mst.edges, points.shape[0])
    return HDBSCANResult(
        mst=mst,
        core_distances=core,
        min_pts=MIN_PTS,
        dendrogram=dendrogram,
        method="memogfk",
        stats=dict(mst.stats),
    )


def trace_fit_layers(
    points: np.ndarray, tracer, outcome: Outcome, want: Optional[Dict] = None
) -> Tuple[Dict, HDBSCANResult]:
    """Time the fit layers on ``points``.

    ``want`` is the arrays of an earlier fit of ``points``; without it an
    untimed fit makes them first, so the timed fits are warm.  The
    untraced, traced and 1-thread fits must be byte-identical to it.
    Returns the metrics and the traced fit.
    """
    if want is None:
        want = _fit_arrays(fit(points, NUM_THREADS))
        outcome.attempted += 1

    def compare(result: HDBSCANResult, label: str) -> None:
        outcome.attempted += 1
        if not _same(_fit_arrays(result), want):
            outcome.fail(f"the {label} fit differs from the first fit")

    begin = time.perf_counter()
    result = fit(points, NUM_THREADS)
    untraced = time.perf_counter() - begin
    compare(result, "untraced")
    with tracer.span("fit", n=points.shape[0]) as root:
        result = traced_fit(points, tracer)
    compare(result, "traced")
    traced = root["end"] - root["start"]
    with tracer.span("parallel.fit_1thread"):
        one_thread_result = fit(points, 1)
    compare(one_thread_result, "1-thread")
    with tracer.span("spatial.kdtree_build"):
        KDTree(points, leaf_size=1)
    with tracer.span("yardstick.ckdtree_knn"):
        cKDTree(points).query(points, k=MIN_PTS)

    stats = result.mst.stats
    one_thread = tracer.durations("parallel.fit_1thread")[0]
    knn = tracer.durations("core_distance.knn")[0]
    children = sum(
        s["end"] - s["start"] for s in tracer.spans if s["parent"] == root["id"]
    )
    metrics = {
        "spatial.kdtree_build_s": (tracer.durations("spatial.kdtree_build")[0], "s"),
        "core_distance.knn_s": (knn, "s"),
        "core_distance.vs_ckdtree": (
            knn / tracer.durations("yardstick.ckdtree_knn")[0],
            "ratio",
        ),
        "memogfk.mst_s": (tracer.durations("memogfk.mst")[0], "s"),
        "wspd.rounds": (stats["rounds"], "count"),
        "wspd.pairs_materialized": (stats["pairs_materialized"], "count"),
        "wspd.max_pairs_materialized": (stats["max_pairs_materialized"], "count"),
        "bccp.calls": (stats["bccp_calls"], "count"),
        "bccp.distance_evaluations": (stats["distance_evaluations"], "count"),
        "dendrogram.topdown_s": (tracer.durations("dendrogram.topdown")[0], "s"),
        "parallel.fit_1thread_s": (one_thread, "s"),
        "parallel.speedup": (one_thread / untraced, "ratio"),
        "trace.coverage": (children / traced, "ratio"),
        "trace.overhead": (traced / untraced, "ratio"),
    }
    return metrics, result


def _counts(stats: Dict) -> Dict[str, int]:
    keys = (
        "rounds",
        "pairs_materialized",
        "max_pairs_materialized",
        "bccp_calls",
        "distance_evaluations",
    )
    return {key: int(stats[key]) for key in keys}


# -- serve and update layers ---------------------------------------------------


def serve_context(points: np.ndarray, pool: np.ndarray, seed: int) -> Dict:
    """``fit_dynamic`` on ``points`` behind a serving engine.

    ``pool`` holds the points predicts and inserts draw from; ``seed``
    drives the request sequence.
    """
    state = fit_dynamic(points, min_pts=MIN_PTS, num_threads=NUM_THREADS)
    weights = np.sort(state.mst_w)
    return {
        "rng": np.random.default_rng(seed + 1),
        "live": points,
        "pool": pool,
        "inserted": 0,
        "cycle": 0,
        "engine": ServingEngine(state, num_threads=NUM_THREADS),
        "weights": weights,
        "hot": [float(np.quantile(weights, q)) for q in HOT_QUANTILES],
    }


def plan_cycle(ctx: Dict) -> List[Dict]:
    """One cycle: an update, then the reads in a seeded order.

    Cycles insert ``UPDATE_BATCH`` held-out points and delete as many in
    turn, so a round (two cycles) leaves the number of points unchanged.
    """
    rng = ctx["rng"]
    pool = ctx["pool"]
    if ctx["cycle"] % 2 == 0:
        start = ctx["inserted"]
        update = {"op": "update", "insert": pool[start : start + UPDATE_BATCH].tolist()}
    else:
        doomed = rng.choice(ctx["live"].shape[0], UPDATE_BATCH, replace=False)
        update = {"op": "update", "delete": sorted(int(i) for i in doomed)}
    ctx["cycle"] += 1
    low, high = COLD_QUANTILE_RANGE
    strata = (np.arange(COLD_PER_CYCLE) + rng.random(COLD_PER_CYCLE)) / COLD_PER_CYCLE
    reads = [{"op": "recut", "epsilon": eps} for eps in ctx["hot"]] * HOT_REPEATS
    reads += [
        {"op": "recut", "epsilon": float(np.quantile(ctx["weights"], q))}
        for q in low + (high - low) * strata
    ]
    reads += [{"op": "recut", "min_cluster_size": mcs} for mcs in MCS_CHOICES]
    reads += [
        {"op": "predict", "points": pool[rows].tolist()}
        for rows in (
            rng.choice(pool.shape[0], PREDICT_BATCH, replace=False)
            for _ in range(PREDICTS_PER_CYCLE)
        )
    ]
    return [update] + [reads[i] for i in rng.permutation(len(reads))]


def _apply_update(ctx: Dict, request: Dict) -> None:
    if "insert" in request:
        ctx["live"] = np.concatenate([ctx["live"], np.asarray(request["insert"])])
        ctx["inserted"] += len(request["insert"])
    else:
        ctx["live"] = np.delete(ctx["live"], request["delete"], axis=0)


def request_kind(request: Dict, response: Dict) -> str:
    op = request["op"]
    if op != "recut":
        return op
    if response.get("cached"):
        return "hit"
    return "eps" if "epsilon" in request else "mcs"


def _answer_problem(ctx: Dict, request: Dict, response: Dict) -> Optional[str]:
    """Shape checks on one response (the oracles run after the loop)."""
    if not response.get("ok"):
        return f"{request['op']} failed: {response.get('error')}"
    if request["op"] == "recut" and len(response["labels"]) != ctx["live"].shape[0]:
        return "recut answered the wrong number of labels"
    if request["op"] == "predict" and len(response["labels"]) != PREDICT_BATCH:
        return "predict answered the wrong number of labels"
    if request["op"] == "update" and response["num_points"] != ctx["live"].shape[0]:
        return "update left the wrong number of points"
    return None


def run_rounds(
    ctx: Dict, outcome: Outcome, latency: Dict, stop, tracer=None
) -> List[float]:
    """Send whole rounds until ``stop(rounds, busy_seconds)`` is true.

    Appends each request's latency in ms to ``latency[kind]`` and returns
    each round's seconds spent waiting for answers.  One epsilon miss per
    cycle is kept (points and labels only) for the csgraph oracle.
    """
    engine = ctx["engine"]
    rounds: List[float] = []
    while not stop(len(rounds), sum(rounds)):
        busy = 0.0
        for _ in range(CYCLES_PER_ROUND):
            sampled = False
            for request in plan_cycle(ctx):
                if tracer is None:
                    begin = time.perf_counter()
                    response = engine.handle(request)
                    elapsed = time.perf_counter() - begin
                    kind = request_kind(request, response)
                else:
                    with tracer.span("serve.handle") as span:
                        response = engine.handle(request)
                    kind = request_kind(request, response)
                    span["name"] = f"serve.handle.{kind}"
                    elapsed = span["end"] - span["start"]
                busy += elapsed
                latency[kind].append(elapsed * 1e3)
                outcome.attempted += 1
                if request["op"] == "update" and response.get("ok"):
                    _apply_update(ctx, request)
                problem = _answer_problem(ctx, request, response)
                if problem is not None:
                    outcome.fail(problem)
                elif kind == "eps" and not sampled:
                    sampled = True
                    ctx.setdefault("eps_samples", []).append(
                        (ctx["live"].copy(), request["epsilon"], np.asarray(response["labels"]))
                    )
        rounds.append(busy)
    return rounds


def check_serve(ctx: Dict, outcome: Outcome) -> None:
    """Oracle checks on the served state and the sampled epsilon cuts."""
    state = ctx["engine"].state
    for live, epsilon, labels in ctx.pop("eps_samples", []):
        core = checks.oracle_core_distances(live, MIN_PTS)
        outcome.fail(
            checks.check_epsilon_cut(live, core, epsilon, state.min_cluster_size, labels)
        )
    predicted, _ = approximate_predict(state, state.points, num_threads=NUM_THREADS)
    outcome.fail(
        checks.check_training_predict(predicted, state.recut().labels),
        outcome.attempted,
    )
    cold = ctx.pop("cold", None)
    if cold is None:
        cold = fit_dynamic(ctx["live"], min_pts=MIN_PTS, num_threads=NUM_THREADS)
    outcome.fail(
        checks.check_same_state(state.state_arrays(), cold.state_arrays()),
        outcome.attempted,
    )


def trace_serve_layers(ctx: Dict, tracer, outcome: Outcome) -> Dict:
    """Time the serve and update layers on the served state of ``ctx``.

    First ``TRACE_ROUNDS`` rounds of the request sequence with a span per
    request, then direct calls into each layer, then a cold refit of the
    survivors, which ``check_serve`` compares the churned state with.
    """
    latency = {kind: [] for kind in KINDS}
    with tracer.span("serve.session", rounds=TRACE_ROUNDS):
        run_rounds(ctx, outcome, latency, lambda rounds, busy: rounds >= TRACE_ROUNDS, tracer)
    recuts = sum(len(latency[kind]) for kind in ("hit", "eps", "mcs"))

    engine = ctx["engine"]
    rng = ctx["rng"]
    hot = {"op": "recut", "epsilon": ctx["hot"][0]}
    engine.handle(hot)
    state = engine.state
    with tracer.span("serve.layers"):
        # A cut cache hit through handle() and directly: the difference
        # is dispatch plus tolist encoding.
        for _ in range(LAYER_REPEATS * 10):
            with tracer.span("serve.handle_hit"):
                engine.handle(hot)
            with tracer.span("serve.direct_hit"):
                state.recut_with_info(epsilon=hot["epsilon"])
        for q in rng.uniform(*COLD_QUANTILE_RANGE, LAYER_REPEATS):
            epsilon = float(np.quantile(ctx["weights"], q))
            with tracer.span("serve.compute_cut_eps"):
                compute_cut(state, epsilon=epsilon)
        for mcs in MCS_CHOICES[:LAYER_REPEATS]:
            with tracer.span("serve.compute_cut_mcs"):
                compute_cut(state, min_cluster_size=mcs)
            with tracer.span("dendrogram.condense"):
                condensed = condense_dendrogram(state.dendrogram, mcs)
            with tracer.span("dendrogram.extract_eom"):
                labels_and_probabilities_from_condensed(condensed)
        for _ in range(LAYER_REPEATS):
            rows = rng.choice(ctx["pool"].shape[0], PREDICT_BATCH, replace=False)
            with tracer.span("serve.predict"):
                approximate_predict(state, ctx["pool"][rows])
        for _ in range(2):
            start = ctx["inserted"]
            batch = ctx["pool"][start : start + UPDATE_BATCH]
            with tracer.span("dynamic.insert_batch"):
                engine.state = insert_batch(engine.state, batch, num_threads=NUM_THREADS)
            _apply_update(ctx, {"insert": batch.tolist()})
            doomed = sorted(
                int(i) for i in rng.choice(ctx["live"].shape[0], UPDATE_BATCH, replace=False)
            )
            with tracer.span("dynamic.delete_batch"):
                engine.state = delete_batch(
                    engine.state, np.array(doomed), num_threads=NUM_THREADS
                )
            _apply_update(ctx, {"delete": doomed})
    with tracer.span("dynamic.fit"):
        ctx["cold"] = fit_dynamic(ctx["live"], min_pts=MIN_PTS, num_threads=NUM_THREADS)

    def ms(name: str) -> float:
        return p50(tracer.durations(name)) * 1e3

    update_ms = p50(
        tracer.durations("dynamic.insert_batch") + tracer.durations("dynamic.delete_batch")
    ) * 1e3
    refit = tracer.durations("dynamic.fit")[0]
    return {
        "dendrogram.condense_s": (p50(tracer.durations("dendrogram.condense")), "s"),
        "dendrogram.extract_eom_s": (p50(tracer.durations("dendrogram.extract_eom")), "s"),
        "dynamic.fit_s": (refit, "s"),
        "dynamic.insert_batch_ms": (ms("dynamic.insert_batch"), "ms"),
        "dynamic.delete_batch_ms": (ms("dynamic.delete_batch"), "ms"),
        "dynamic.update_vs_refit": (refit * 1e3 / update_ms, "ratio"),
        "serve.compute_cut_eps_ms": (ms("serve.compute_cut_eps"), "ms"),
        "serve.compute_cut_mcs_ms": (ms("serve.compute_cut_mcs"), "ms"),
        "serve.predict_ms": (ms("serve.predict"), "ms"),
        "serve.handle_overhead_ms": (ms("serve.handle_hit") - ms("serve.direct_hit"), "ms"),
        "serve.cut_cache_hit_rate": (len(latency["hit"]) / recuts, "ratio"),
        "serve.hit_p50_ms": (p50(latency["hit"]), "ms"),
        "serve.eps_miss_p50_ms": (p50(latency["eps"]), "ms"),
        "serve.mcs_p50_ms": (p50(latency["mcs"]), "ms"),
        "serve.predict_p50_ms": (p50(latency["predict"]), "ms"),
        "serve.update_p50_ms": (p50(latency["update"]), "ms"),
    }


# -- the workloads -------------------------------------------------------------


class HdbscanWorkload:
    """The public ``repro.hdbscan`` call timed warm, repeatedly, on one input.

    A round is one fit.
    """

    name = "hdbscan-varden-2d"
    dataset = "2D-SS-varden"
    n = 20_000

    def setup(self, seed: int) -> Dict:
        points, pool = split_draw(self.dataset, self.n, seed, seed)
        reference = fit(points, NUM_THREADS)
        return {"seed": seed, "points": points, "pool": pool, "reference": reference}

    def measure(self, ctx: Dict, seconds: float, pauses=()) -> Outcome:
        """Warm fits for ``seconds`` of fit time, at least ``MIN_FITS``.

        The fits are split into ``len(pauses) + 1`` even shares with one
        pause between shares, so the samples spread over the whole run.
        """
        outcome = Outcome()
        points = ctx["points"]
        want = _fit_arrays(ctx["reference"])
        times: List[float] = []
        shares = len(pauses) + 1
        for share in range(shares):
            goal = seconds * (share + 1) / shares
            least = -(-MIN_FITS * (share + 1) // shares)
            while len(times) < least or sum(times) < goal:
                begin = time.perf_counter()
                result = fit(points, NUM_THREADS)
                times.append(time.perf_counter() - begin)
                outcome.attempted += 1
                if not _same(_fit_arrays(result), want):
                    outcome.fail(f"timed fit {len(times)} differs from the set-up fit")
                del result
            if share < len(pauses):
                pauses[share]()
        outcome.metrics["round_s"] = (sum(times) / len(times), "s")
        outcome.notes.append("round_s samples: " + " ".join(f"{t:.3f}" for t in times))
        return outcome

    def check(self, ctx: Dict, outcome: Outcome) -> None:
        """Oracle checks on the set-up fit (every timed fit matched it) and,
        after a traced run, on the served state."""
        check_fit(ctx["points"], ctx["reference"], outcome)
        if "serve" in ctx:
            check_serve(ctx["serve"], outcome)

    def traced(self, ctx: Dict, tracer) -> Outcome:
        outcome = Outcome()
        points = ctx["points"]
        metrics, _ = trace_fit_layers(
            points, tracer, outcome, want=_fit_arrays(ctx["reference"])
        )
        with tracer.span("serve.setup"):
            ctx["serve"] = serve_context(points, ctx["pool"], ctx["seed"])
        metrics.update(trace_serve_layers(ctx["serve"], tracer, outcome))
        outcome.metrics = metrics
        return outcome


class ServeChurnWorkload:
    """One closed-loop client sending a seeded request sequence.

    The sequence is built of cycles.  Each cycle starts with one update,
    inserting or deleting ``UPDATE_BATCH`` points in turn, which empties the
    cut cache.  Then come, in a seeded order: the hot epsilon keys (one miss
    each, then hits), cold epsilon keys (misses), ``min_cluster_size``
    recuts and 64-point predicts on held-out points.  Each request waits for
    the previous answer, as a ``repro serve`` JSONL caller would.  A round
    is an insert cycle and a delete cycle.
    """

    name = "serve-churn-varden-2d"
    dataset = "2D-SS-varden"

    def setup(self, seed: int) -> Dict:
        """One fixed draw of the data; the seed splits it into fitted and
        held-out points and drives the request sequence.

        The seed-spreader draws a new geometry per generator seed, and the
        peak resident set of ``fit_dynamic`` on it swings by a third between
        generator seeds (226-303 MB over four), against about 5% over
        splits of one draw.
        """
        points, pool = split_draw(self.dataset, SERVE_N, GEOMETRY_SEED, seed)
        return serve_context(points, pool, seed)

    def measure(self, ctx: Dict, seconds: float, pauses=()) -> Outcome:
        """Whole rounds for ``seconds`` of engine time, split into even
        shares with one pause between shares."""
        outcome = Outcome()
        latency = {kind: [] for kind in KINDS}
        rounds: List[float] = []
        shares = len(pauses) + 1
        for share in range(shares):
            left = seconds * (share + 1) / shares - sum(rounds)
            rounds += run_rounds(ctx, outcome, latency, lambda _, busy: busy >= left)
            if share < len(pauses):
                pauses[share]()
        busy = sum(rounds)
        outcome.metrics["round_s"] = (busy / len(rounds), "s")
        outcome.notes.append("round_s samples: " + " ".join(f"{t:.3f}" for t in rounds))
        outcome.notes.append(
            "p50 ms, samples and share of engine time per kind: "
            + " ".join(
                f"{kind}={p50(v):.3f}/{len(v)}/{sum(v) / 1e3 / busy:.3f}"
                for kind, v in latency.items()
            )
        )
        return outcome

    def check(self, ctx: Dict, outcome: Outcome) -> None:
        """Oracle checks on the served state and, after a traced run, on
        the traced fit of the live points."""
        check_serve(ctx, outcome)
        if "fit" in ctx:
            check_fit(*ctx["fit"], outcome)

    def traced(self, ctx: Dict, tracer) -> Outcome:
        outcome = Outcome()
        metrics = trace_serve_layers(ctx, tracer, outcome)
        points = ctx["live"]
        fit_metrics, result = trace_fit_layers(points, tracer, outcome)
        ctx["fit"] = (points, result)
        metrics.update(fit_metrics)
        outcome.metrics = metrics
        return outcome


WORKLOADS: Dict[str, object] = {
    "hdbscan-varden-2d": HdbscanWorkload(),
    "serve-churn-varden-2d": ServeChurnWorkload(),
}
