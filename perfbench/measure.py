"""The measured process: set up one workload cold, time it, and record it.

Started by ``run.py`` in a fresh interpreter with an empty compile
cache.  It never holds a reference output: it checks every timed
output against the same job's first (set-up) output, bit for bit, and
saves those first outputs for the reference checkers (``oracle.py``),
which run after this process has exited.

Writes ``result.json`` (metrics and counts) and ``manifest.json`` (the
saved outputs and their tolerance policy) into ``--out``.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up time counts from here: before numpy

import argparse
import dataclasses
import json
import resource
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from tracer import Tracer
from workloads import Job, Workload, make_inputs, workload

#: Longest timed phase, whatever the arguments: the run must end in 180 s.
MAX_PHASE_S = 100.0
#: Open loop: seconds of traffic sent before the timed phase.
WARMUP_S = 2.0


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-identical arrays (NaN payloads and signed zeros included)."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    unsigned = np.dtype(f"u{a.itemsize}")
    return bool(np.array_equal(a.view(unsigned), b.view(unsigned)))


def outputs_of(env: Dict[str, np.ndarray], inputs) -> Dict[str, np.ndarray]:
    """The images a call returns, without the inputs it was given."""
    return {name: np.asarray(a) for name, a in env.items() if name not in inputs}


def count_mismatches(env, inputs, first: Dict[str, np.ndarray]) -> int:
    got = outputs_of(env, inputs)
    if set(got) != set(first):
        return max(1, len(set(got) ^ set(first)))
    return sum(0 if same_bits(got[name], first[name]) else 1 for name in first)


def pct(values: List[float], q: float) -> float:
    """The ``q``-th percentile by the Harrell-Davis estimator.

    A Beta-weighted average of all order statistics instead of one or
    two of them.  With six equally frequent apps in a closed loop the
    pooled median falls on the gap between the third and fourth fastest
    app, and a plain order statistic jumps across it when a few calls
    move; this estimate moves smoothly.  Every percentile uses it.
    """
    if not values:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    a, b = q / 100.0 * (n + 1), (1.0 - q / 100.0) * (n + 1)
    # Beta(a, b) CDF at the rank edges i/n, by integrating the density
    # on a grid fine enough for every rank interval.
    grid = np.linspace(0.0, 1.0, 64 * n + 1)
    inner = grid[1:-1]
    log_pdf = (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf /= cdf[-1]
    weights = np.diff(cdf[::64])
    return float(np.dot(weights, ordered))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def input_names(registry, job: Job) -> List[str]:
    return list(registry.get(job.app).graph(job.width, job.height).pipeline_inputs())


# ---------------------------------------------------------------------------
# Closed loop: one caller, repro.api.run round-robin
# ---------------------------------------------------------------------------


class Bench:
    """Jobs in a seeded order, their inputs, and each job's first output.

    ``call(job, inputs)`` is the one call into the program a workload
    makes; ``setup`` makes it once per job.
    """

    def __init__(self, wl: Workload, seed: int, registry):
        self.wl = wl
        self.seed = seed
        order = np.random.default_rng([seed, 0]).permutation(len(wl.jobs))
        self.jobs = [wl.jobs[i] for i in order]
        self.names = {job.key: input_names(registry, job) for job in self.jobs}
        self.inputs = {job.key: make_inputs(seed, job, self.names[job.key]) for job in self.jobs}
        self.first: Dict[str, Dict[str, np.ndarray]] = {}
        self.errors: List[str] = []
        self.setup_failed = 0

    def setup(self) -> None:
        for job in self.jobs:
            inputs = self.inputs[job.key]
            try:
                env = self.call(job, inputs)
            except Exception as err:  # recorded and counted as failed
                self.setup_failed += 1
                self.errors.append(f"setup {job.key}: {err!r}")
                continue
            self.first[job.key] = outputs_of(env, inputs)


class Closed(Bench):
    def __init__(self, wl: Workload, seed: int):
        from repro.api import ExecutionOptions, run
        from repro.serve.registry import default_registry

        super().__init__(wl, seed, default_registry())
        self.run = run
        self.options = (
            ExecutionOptions(engine="native") if wl.engine == "native" else ExecutionOptions()
        )
        self.sent = 0  # request id of the next call, across phases

    def call(self, job: Job, inputs):
        return self.run(job.app, inputs, options=self.options)

    def phase(
        self, seconds: float, min_calls: int, tracer: Optional[Tracer] = None, rounds: int = 0
    ) -> Dict[str, Any]:
        """Timed calls in whole rounds: at least ``seconds`` busy and
        ``min_calls`` calls (or exactly ``rounds`` rounds when given)."""
        n = len(self.jobs)
        latencies: List[float] = []
        pixels = busy = round_pixels = round_busy = 0.0
        failed = mismatches = calls = slo_met = 0
        round_rates: List[float] = []
        wall = time.perf_counter()
        while True:
            if calls % n == 0:
                if calls:
                    round_rates.append(round_pixels / round_busy / 1e6)
                    round_pixels = round_busy = 0.0
                if rounds:
                    if calls >= rounds * n:
                        break
                elif busy >= seconds and calls >= min_calls:
                    break
                if time.perf_counter() - wall > MAX_PHASE_S:
                    break
            job = self.jobs[calls % n]
            inputs = self.inputs[job.key]
            env = None
            if tracer is not None:
                tracer.set_request(self.sent)
            self.sent += 1
            started = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("api.run"):
                        env = self.call(job, inputs)
                else:
                    env = self.call(job, inputs)
            except Exception as err:
                failed += 1
                self.errors.append(f"{job.key}: {err!r}")
            elapsed = time.perf_counter() - started
            calls += 1
            latencies.append(elapsed)
            busy += elapsed
            round_busy += elapsed
            if env is None:
                continue
            pixels += job.pixels
            round_pixels += job.pixels
            bad = count_mismatches(env, inputs, self.first.get(job.key, {}))
            mismatches += bad
            if not bad and 1e3 * elapsed <= self.wl.limit_ms:
                slo_met += 1
        return {
            "calls": calls,
            "rounds": calls // n,
            "failed": failed,
            "mismatches": mismatches,
            "latencies": latencies,
            "round_rates": round_rates,
            "busy_s": busy,
            "pixels": pixels,
            "slo_met": slo_met,
        }

    def end_to_end(self, phase: Dict[str, Any]) -> Dict[str, float]:
        lat_ms = [1e3 * v for v in phase["latencies"]]
        # One caller: each call is sent the moment the previous returns,
        # so its scheduled send time is its start and request latency
        # equals call latency.  A round calls every job once.
        p50 = pct(lat_ms, 50)
        return {
            "mpix_per_s": float(np.median(phase["round_rates"])),
            "call_ms_p50": p50,
            "call_ms_p90": pct(lat_ms, 90),
            "req_ms_p50": p50,
            "req_ms_p99": pct(lat_ms, 99),
            "slo_met_frac": phase["slo_met"] / max(1, phase["calls"]),
        }


def merge(phases: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One closed-loop phase record from several."""
    out: Dict[str, Any] = {"latencies": [], "round_rates": []}
    for phase in phases:
        for key, value in phase.items():
            if isinstance(value, list):
                out[key].extend(value)
            else:
                out[key] = out.get(key, 0) + value
    return out


# ---------------------------------------------------------------------------
# Open loop: one generator thread into a ServingRuntime
# ---------------------------------------------------------------------------


def _stamp_completions() -> None:
    """Record when each response completes, however it completes."""
    from repro.serve.scheduler import ResponseHandle

    if getattr(ResponseHandle, "_perfbench_stamped", False):
        return
    set_result, set_error = ResponseHandle.set_result, ResponseHandle.set_error

    def stamped_result(self, value):
        self.done_at = time.perf_counter()
        set_result(self, value)

    def stamped_error(self, error):
        self.done_at = time.perf_counter()
        set_error(self, error)

    ResponseHandle.set_result = stamped_result
    ResponseHandle.set_error = stamped_error
    ResponseHandle._perfbench_stamped = True


class Open(Bench):
    #: Check a completed response only when the next send is this far off:
    #: the check of a large image takes a few ms.
    CHECK_SLACK_S = 0.010

    def __init__(self, wl: Workload, seed: int):
        from repro.serve.runtime import ServingRuntime

        _stamp_completions()
        self.runtime = ServingRuntime(engine="native", cache_keying="structure", workers=2)
        super().__init__(wl, seed, self.runtime.registry)

    def call(self, job: Job, inputs):
        return self.runtime.execute(job.app, inputs)

    def schedule(self, seconds: float, stream: int):
        """Poisson arrivals at the offered rate, and the job of each.

        The number of arrivals is fixed (the expected count, rounded to
        whole rounds of the jobs) and their times are uniform, which is a
        Poisson process given its count.  The jobs are a seeded shuffle
        of equal shares: order and timing stay random, while the mix of
        sizes, which moves every latency percentile, is the same in
        every run.
        """
        rng = np.random.default_rng([self.seed, 1, stream])
        n = len(self.jobs)
        count = n * max(1, round(seconds * self.wl.rate_per_s / n))
        offsets = np.sort(rng.uniform(0.0, seconds, size=count))
        picks = rng.permutation(np.arange(count) % n)
        return offsets, picks

    def _check(self, entry: Dict[str, Any], stats: Dict[str, Any]) -> None:
        from repro.serve.errors import DeadlineExceeded

        handle = entry["handle"]
        error = handle.exception(timeout=0)
        done = handle.done_at
        if error is not None:
            stats["failed"] += 1
            if isinstance(error, DeadlineExceeded):
                stats["expired"] += 1
            else:
                self.errors.append(f"{entry['job'].key}: {error!r}")
            return
        job = entry["job"]
        bad = count_mismatches(handle.result(), entry["inputs"], self.first.get(job.key, {}))
        stats["mismatches"] += bad
        req_ms = 1e3 * (done - entry["due"])
        stats["req_ms"].append(req_ms)
        stats["call_ms"].append(1e3 * (done - entry["sent"]))
        stats["pixels"] += job.pixels
        if not bad and req_ms <= self.wl.limit_ms:
            stats["slo_met"] += 1

    def phase(self, seconds: float, stream: int, tracer: Optional[Tracer] = None) -> Dict[str, Any]:
        from repro.serve.errors import BackpressureError
        from repro.serve.metrics import Metrics

        offsets, picks = self.schedule(seconds, stream)
        # Fresh instruments: the snapshot at the end is the timed window's.
        self.runtime.metrics = Metrics()
        cache_before = self.runtime.metrics_snapshot()["plan_cache"]
        stats = {
            "sent": len(offsets), "failed": 0, "refused": 0, "expired": 0,
            "mismatches": 0, "slo_met": 0, "pixels": 0.0,
            "req_ms": [], "call_ms": [], "late_ms": [],
        }
        outstanding: List[Dict[str, Any]] = []
        start = time.perf_counter() + 0.02
        for k, (offset, pick) in enumerate(zip(offsets, picks)):
            due = start + float(offset)
            while True:
                slack = due - time.perf_counter()
                if slack <= 0:
                    break
                if slack > self.CHECK_SLACK_S:
                    done = next((e for e in outstanding if e["handle"].done()), None)
                    if done is not None:
                        outstanding.remove(done)
                        self._check(done, stats)
                        continue
                time.sleep(slack)
            job = self.jobs[int(pick)]
            inputs = dict(self.inputs[job.key])  # one dict per request
            sent = time.perf_counter()
            stats["late_ms"].append(1e3 * (sent - due))
            if tracer is not None:
                tracer.requests[id(inputs)] = k
                tracer.set_request(k)
            try:
                handle = self.runtime.submit(
                    job.app, inputs, deadline_s=self.wl.deadline_s, block=False
                )
            except BackpressureError:
                stats["failed"] += 1
                stats["refused"] += 1
                continue
            outstanding.append(
                {"k": k, "job": job, "inputs": inputs, "handle": handle, "due": due, "sent": sent}
            )
        limit = time.perf_counter() + self.wl.deadline_s + 30.0
        for entry in outstanding:
            try:
                entry["handle"].exception(timeout=max(0.0, limit - time.perf_counter()))
            except TimeoutError:
                stats["failed"] += 1
                self.errors.append(f"{entry['job'].key}: no response")
                continue
            self._check(entry, stats)
        snapshot = self.runtime.metrics_snapshot()
        stats["snapshot"] = snapshot
        cache_after = snapshot["plan_cache"]
        stats["cache_hits"] = cache_after["hits"] - cache_before["hits"]
        stats["cache_misses"] = cache_after["misses"] - cache_before["misses"]
        return stats

    def end_to_end(self, phase: Dict[str, Any]) -> Dict[str, float]:
        # Throughput of the runtime's own busy time: the offered load is
        # fixed, so pixels per wall-second would only show whether it
        # keeps up.
        execute_s = phase["snapshot"]["histograms"]["execute_ms"]["sum"] / 1e3
        return {
            "mpix_per_s": phase["pixels"] / execute_s / 1e6,
            "call_ms_p50": pct(phase["call_ms"], 50),
            "call_ms_p90": pct(phase["call_ms"], 90),
            "req_ms_p50": pct(phase["req_ms"], 50),
            "req_ms_p99": pct(phase["req_ms"], 99),
            "slo_met_frac": phase["slo_met"] / max(1, phase["sent"]),
        }

    def close(self) -> None:
        self.runtime.close()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


SERVE_LAYERS = (
    "serve.queue_wait_ms_p50", "serve.queue_wait_ms_p99", "serve.batch_size_mean",
    "serve.execute_ms_p50", "serve.execute_ms_p99", "serve.overhead_ms_mean",
    "serve.plan_cache_hit_rate", "serve.retries", "serve.degraded", "serve.rejected",
    "serve.timed_out", "gen.late_ms_p99", "gen.late_ms_max",
)


def serve_layers(phase: Dict[str, Any]) -> Dict[str, float]:
    snap = phase["snapshot"]
    hist, counters = snap["histograms"], snap["counters"]
    empty = {"p50": 0.0, "p99": 0.0, "mean": 0.0, "count": 0, "sum": 0.0}
    queue = hist.get("queue_wait_ms", empty)
    execute = hist.get("execute_ms", empty)
    total = hist.get("total_ms", empty)
    batch = hist.get("batch_size", empty)
    lookups = phase["cache_hits"] + phase["cache_misses"]
    late = phase["late_ms"]
    return {
        "serve.queue_wait_ms_p50": queue["p50"],
        "serve.queue_wait_ms_p99": queue["p99"],
        "serve.batch_size_mean": batch["mean"],
        "serve.execute_ms_p50": execute["p50"],
        "serve.execute_ms_p99": execute["p99"],
        "serve.overhead_ms_mean": total["mean"] - execute["mean"] - queue["mean"],
        "serve.plan_cache_hit_rate": phase["cache_hits"] / lookups if lookups else 0.0,
        "serve.retries": counters.get("request_retries", 0),
        "serve.degraded": sum(v for k, v in counters.items() if k.startswith("degraded_to_")),
        "serve.rejected": counters.get("requests_rejected", 0),
        "serve.timed_out": counters.get("requests_timed_out", 0),
        "gen.late_ms_p99": pct(late, 99),
        "gen.late_ms_max": max(late) if late else 0.0,
    }


def trace_layers(tracer: Tracer, ops: int, setup: Tracer, open_loop: bool, phase) -> Dict[str, float]:
    total, _own, calls = tracer.durations()
    counts = tracer.counts
    ops = max(1, ops)

    def ms(name: str) -> float:
        return 1e3 * total.get(name, 0.0) / ops

    block_s = total.get("native.block_exec", 0.0)
    layers = {
        "registry.build_ms": ms("registry.build"),
        "registry.graph_ms": ms("registry.graph"),
        "registry.graphs_built": counts["registry.graphs_built"] / ops,
        "model.benefit_ms": ms("model.benefit"),
        "fusion.partition_ms": ms("fusion.partition"),
        "fusion.mincut_ms": ms("fusion.mincut"),
        "fusion.calls": calls.get("fusion.partition", 0) / ops,
        "plan.build_ms": ms("plan.build"),
        "plan.builds": counts["plan.builds"] / ops,
        "plan.exec_ms": ms("plan.exec"),
        "plan.tape_instrs": counts["plan.tape_instrs"] / ops,
        "native.available_ms": ms("native.available"),
        "native.plan_ms": ms("native.plan"),
        "native.builds": counts["native.builds"] / ops,
        "native.lower_ms": ms("native.lower"),
        "native.exec_ms": ms("native.exec"),
        "native.cc_compiles": counts["native.cc_compiles"] + setup.counts["native.cc_compiles"],
        "native.computed_gb_per_s": counts["native.block_bytes"] / block_s / 1e9 if block_s else 0.0,
    }
    setup_total, _, _ = setup.durations()
    layers["setup.native_plan_ms"] = 1e3 * setup_total.get("native.plan", 0.0)
    layers["setup.native_lower_ms"] = 1e3 * setup_total.get("native.lower", 0.0)
    layers["setup.cc_ms"] = 1e3 * setup_total.get("cc.compile", 0.0)
    front = (
        "registry.build", "registry.graph", "native.available",
        "fusion.partition", "plan.build", "native.plan",
    )
    execute = ("plan.exec", "native.exec")
    if open_loop:
        # Request time covered by the program's traced layers: the
        # registry lookup on submit plus plan execution on a worker.
        covered: Dict[Any, float] = {}
        for span in tracer.spans:
            if span[3] is None and span[2] is not None and span[4] is not None:
                covered[span[4]] = covered.get(span[4], 0.0) + span[2] - span[1]
        request_s = sum(phase["call_ms"]) / 1e3
        layers["trace.coverage_frac"] = sum(covered.values()) / request_s if request_s else 0.0
        layers["trace.coverage_frac_min"] = layers["trace.coverage_frac"]
        layers["split.front_end_frac"] = total.get("registry.graph", 0.0) / request_s if request_s else 0.0
        layers["split.exec_frac"] = total.get("native.exec", 0.0) / request_s if request_s else 0.0
    else:
        runs = [s for s in tracer.spans if s[0] == "api.run" and s[2] is not None]
        run_s = sum(s[2] - s[1] for s in runs)
        below = tracer.children_of("api.run")
        child = tracer.child_seconds()
        per_call = [
            child[i] / (s[2] - s[1])
            for i, s in enumerate(tracer.spans)
            if s[0] == "api.run" and s[2] is not None and s[2] > s[1]
        ]
        layers["trace.coverage_frac"] = sum(below.values()) / run_s if run_s else 0.0
        layers["trace.coverage_frac_min"] = min(per_call) if per_call else 0.0
        layers["split.front_end_frac"] = sum(below.get(n, 0.0) for n in front) / run_s if run_s else 0.0
        layers["split.exec_frac"] = sum(below.get(n, 0.0) for n in execute) / run_s if run_s else 0.0
    return layers


def app_partitions(bench) -> Dict[str, tuple]:
    """(graph, fused partition) of each app, at its first job's geometry."""
    from repro.api import ExecutionOptions
    from repro.eval.runner import partition_for
    from repro.model.benefit import BenefitConfig
    from repro.serve.registry import default_registry

    registry = default_registry()
    gpu = ExecutionOptions().gpu_spec
    out: Dict[str, tuple] = {}
    for job in bench.jobs:
        if job.app not in out:
            graph = registry.get(job.app).graph(job.width, job.height)
            out[job.app] = (graph, partition_for(graph, gpu, "optimized", BenefitConfig()))
    return out


def structure_layers(bench, engine: str) -> Dict[str, float]:
    """Fusion and lowering structure of each app the workload runs.

    Reads the compile cache first: the plans looked up here are the
    ones the workload already compiled, so they add no library.
    """
    from repro.backend.cpu_exec import compile_cache_stats

    cache = compile_cache_stats()
    blocks = fallback = tile2d = 0
    for graph, partition in app_partitions(bench).values():
        blocks += len(partition.blocks)
        if engine == "native":
            from repro.backend.native_exec import native_plan_for_partition, tile2d_report

            # The serving runtime keys on structure: its plans are polymorphic.
            plan = native_plan_for_partition(graph, partition, polymorphic=not bench.wl.closed)
            fallback += plan.fallback_block_count
            tile2d += sum(1 for entry in tile2d_report(graph, partition) if "choice" in entry)
    return {
        "fusion.blocks": blocks,
        "native.fallback_blocks": fallback,
        "native.tile2d_blocks": tile2d,
        "cc.libraries": cache["libraries"],
        "cc.so_bytes": cache["bytes"],
    }


def tolerances(bench, engine: str) -> Dict[str, Optional[List[float]]]:
    """The pinned comparison policy for each job's outputs.

    Tape output must match the reference bit for bit; native output too,
    unless its tapes call libm beyond sqrt, where ``tolerance_for``
    pins ``(rtol, atol)``.
    """
    if engine != "native":
        return {job.key: None for job in bench.jobs}
    from repro.backend.native_exec import tolerance_for
    from repro.backend.plan import plan_for_partition

    by_app = {}
    for app, (graph, partition) in app_partitions(bench).items():
        policy = tolerance_for(plan_for_partition(graph, partition).plans)
        by_app[app] = None if policy is None else list(policy)
    return {job.key: by_app[job.app] for job in bench.jobs}


def save_outputs(bench, out_dir: Path, seed: int, policy, inject: bool) -> None:
    """First outputs to disk, plus the manifest the checkers read.

    ``inject`` (self-test only) corrupts one pixel of the first saved
    image, which only the reference checkers can catch.
    """
    files = out_dir / "outputs"
    files.mkdir(parents=True, exist_ok=True)
    jobs = []
    for job in bench.jobs:
        outputs = {}
        for name, array in bench.first.get(job.key, {}).items():
            path = files / f"{job.key}__{name}.npy"
            if inject:
                array = array.copy()
                array.flat[array.size // 2] += 1.0
                inject = False
            np.save(path, array)
            outputs[name] = path.name
        jobs.append({
            "key": job.key, "app": job.app, "height": job.height, "width": job.width,
            "variant": job.variant, "inputs": bench.names[job.key], "outputs": outputs,
            "tolerance": policy[job.key],
        })
    manifest = {"seed": seed, "jobs": jobs}
    (out_dir / "manifest.json").write_text(json.dumps(manifest))


def samples(phase: Dict[str, Any]) -> Dict[str, List[float]]:
    """The timed phase's raw latencies in ms, kept in the run's record."""
    keys = ("latencies", "req_ms", "call_ms", "late_ms")
    return {
        key: [round((1e3 if key == "latencies" else 1.0) * v, 4) for v in phase[key]]
        for key in keys if key in phase
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-mismatch", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="time one cold set-up and exit")
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    wl = workload(args.workload, tiny=args.tiny)
    from repro.backend.cpu_exec import compile_cache_stats

    cache_at_start = compile_cache_stats()["libraries"]
    setup_tracer = Tracer()
    if args.trace:
        setup_tracer.install()
    bench = Closed(wl, args.seed) if wl.closed else Open(wl, args.seed)
    bench.setup()
    setup_tracer.uninstall()
    setup_s = time.perf_counter() - START
    if args.setup_only:
        if not wl.closed:
            bench.close()
        setup = {"setup_s": setup_s, "attempted": len(bench.jobs), "failed": bench.setup_failed}
        (out_dir / "setup.json").write_text(json.dumps(setup))
        return 0

    # Warm-up, untimed and outside setup_s: the first calls after the
    # first one of each job still run measurably slower.
    warm = bench.phase(0, 0, rounds=1) if wl.closed else bench.phase(min(WARMUP_S, args.seconds), 9)
    result: Dict[str, Any] = {"setup_s": setup_s, "cc_libraries_at_start": cache_at_start}
    layers: Dict[str, float] = {}
    seconds = args.seconds / 2 if args.trace else args.seconds
    if wl.closed:
        if args.trace:
            # Alternate untraced and traced rounds, so warm-up and drift
            # fall on both sides of the overhead comparison alike.
            tracer = Tracer()
            plain_rounds, traced_rounds = [], []
            while sum(p["busy_s"] for p in plain_rounds) < seconds:
                plain_rounds.append(bench.phase(0, 0, rounds=1))
                with tracer:
                    traced_rounds.append(bench.phase(0, 0, tracer=tracer, rounds=1))
            main_phase, traced = merge(plain_rounds), merge(traced_rounds)
        else:
            main_phase = bench.phase(seconds, wl.min_calls)
        attempted = len(bench.jobs) + warm["calls"] + main_phase["calls"]
    else:
        window = seconds if args.trace else max(seconds, wl.min_calls / wl.rate_per_s)
        main_phase = bench.phase(window, 0)
        if args.trace:
            with Tracer() as tracer:
                traced = bench.phase(seconds, 1, tracer=tracer)
        attempted = len(bench.jobs) + warm["sent"] + main_phase["sent"]
        layers.update(serve_layers(main_phase))
    result["peak_rss_mb"] = peak_rss_mb()
    e2e = bench.end_to_end(main_phase)
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = result["peak_rss_mb"]
    failed = main_phase["failed"] + bench.setup_failed + warm["failed"]
    mismatches = main_phase["mismatches"] + warm["mismatches"]
    if args.trace:
        failed += traced["failed"]
        mismatches += traced["mismatches"]
        attempted += traced["calls"] if wl.closed else traced["sent"]
        ops = traced["calls"] if wl.closed else traced["sent"]
        layers.update(trace_layers(tracer, ops, setup_tracer, not wl.closed, traced))
        if wl.closed:
            plain_rate = e2e["mpix_per_s"]
            traced_rate = bench.end_to_end(traced)["mpix_per_s"]
            layers["trace.overhead_frac"] = (plain_rate - traced_rate) / plain_rate
        else:
            plain_p50 = e2e["req_ms_p50"]
            layers["trace.overhead_frac"] = (
                bench.end_to_end(traced)["req_ms_p50"] - plain_p50
            ) / plain_p50
        layers.update(structure_layers(bench, wl.engine))
        trace_dir = out_dir / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        _total, own, calls = tracer.durations()
        tracer.write(
            trace_dir / "spans.jsonl",
            summary={"self_ms": {k: 1e3 * v for k, v in own.items()}, "calls": calls},
        )
    if not wl.closed:
        bench.close()
        late, req = main_phase["late_ms"], main_phase["req_ms"]
        result["generator_valid"] = all(
            pct(late, q) <= wl.late_share_max * pct(req, q) for q in (50, 99)
        )
    else:
        # One caller sends each call when the last returns: nothing is
        # late, and no serving layer runs.
        result["generator_valid"] = True
        layers.update({name: 0.0 for name in SERVE_LAYERS})
    from repro.backend.cpu_exec import openmp_available
    from repro.model.hardware import detect_cpu_caches

    result["cpu_caches"] = dataclasses.asdict(detect_cpu_caches())
    result["openmp"] = openmp_available()
    save_outputs(bench, out_dir, args.seed, tolerances(bench, wl.engine), args.inject_mismatch)
    result.update({
        "end_to_end": e2e,
        "per_layer": layers,
        "attempted": attempted,
        "failed": failed,
        "timed_mismatches": mismatches,
        "errors": bench.errors[:20],
        "calls": main_phase.get("calls", main_phase.get("sent")),
        "samples": samples(main_phase),
    })
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
