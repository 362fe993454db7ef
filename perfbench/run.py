"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload run-small --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Each run:

1. starts the measured process (``measure.py``) fresh, with every
   ``REPRO_*`` knob unset and ``REPRO_CC_CACHE`` pointing at an empty
   directory, so ``setup_s`` includes the real cold compile;
2. after it exits, recomputes every output it saved with the unfused
   program on the recursive engine (``oracle.py``, one process per CPU,
   at most two) and counts mismatches;
3. prints every metric by name with its unit, the host key, and as the
   last line one JSON object: ``correct``, ``attempted``, ``failed`` and
   ``metrics`` -- the ``end_to_end`` metrics of ``BENCHMARK.json`` with
   ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.

Working files live under ``.perfbench/`` in the checkout; the span
trace of a ``--trace 1`` run is kept at
``.perfbench/traces/<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Wall-clock budget of one run, which must end within 180 s.
BUDGET_S = 170.0
#: Cold set-ups per untraced run; setup_s is their median.
SETUPS = 5


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def clean_env(run_dir: Path):
    """The child environment: no REPRO_* knob, a new empty compile cache
    and a private temp dir, both under ``run_dir``."""
    (run_dir / "cc-cache").mkdir(parents=True)
    (run_dir / "tmp").mkdir()
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    unset = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env["REPRO_CC_CACHE"] = str(run_dir / "cc-cache")
    env["TMPDIR"] = str(run_dir / "tmp")
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env, unset


def host_key(env, measured: dict) -> dict:
    try:
        cc = subprocess.run(
            ["cc", "--version"], capture_output=True, text=True, env=env, timeout=30
        ).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        cc = "unavailable"
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_caches": measured.get("cpu_caches"),
        "cc": cc,
        "openmp": measured.get("openmp"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_child(command, env, deadline: float) -> int:
    """Run one child to completion (killed at the deadline)."""
    with subprocess.Popen(command, cwd=ROOT, env=env) as child:
        try:
            return child.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            return -9


def main(argv=None) -> int:
    started = time.monotonic()
    deadline = started + BUDGET_S
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="few-second self-test sizes")
    parser.add_argument(
        "--inject-mismatch", action="store_true", help="self-test: corrupt one output"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program source under {ROOT / 'src'}; run from a source checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".perfbench"
    run_dir = work / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    env, unset = clean_env(run_dir)
    try:
        measure = [
            sys.executable, str(HERE / "measure.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.tiny:
            measure.append("--tiny")
        # Extra cold set-ups, each a fresh process with its own empty
        # cache; the measured process below makes the last one.
        setups = []
        for i in range(SETUPS - 1 if not args.trace else 0):
            setup_dir = run_dir / f"setup-{i}"
            setup_env, _ = clean_env(setup_dir)
            code = run_child(measure + ["--out", str(setup_dir), "--setup-only"], setup_env, deadline)
            if code != 0:
                return fail(f"set-up process failed (exit {code})", 1)
            setups.append(json.loads((setup_dir / "setup.json").read_text()))
        if args.inject_mismatch:
            measure.append("--inject-mismatch")
        code = run_child(measure + ["--out", str(run_dir)], env, deadline)
        if code != 0 or not (run_dir / "result.json").is_file():
            return fail(f"measured process failed (exit {code})", 1)
        measured = json.loads((run_dir / "result.json").read_text())
        setup_runs = [s["setup_s"] for s in setups] + [measured["setup_s"]]
        measured["end_to_end"]["setup_s"] = statistics.median(setup_runs)
        measured["attempted"] += sum(s["attempted"] for s in setups)
        measured["failed"] += sum(s["failed"] for s in setups)

        workers = 1 if args.tiny else max(1, min(2, len(os.sched_getaffinity(0))))
        checkers = [
            subprocess.Popen(
                [sys.executable, str(HERE / "oracle.py"), str(run_dir), str(i), str(workers)],
                cwd=ROOT, env=env,
            )
            for i in range(workers)
        ]
        codes = []
        for checker in checkers:
            try:
                codes.append(checker.wait(timeout=max(1.0, deadline - time.monotonic())))
            except subprocess.TimeoutExpired:
                checker.kill()
                checker.wait()
                codes.append(-9)
        if any(codes):
            return fail(f"reference checker failed (exits {codes})", 1)
        checks = [json.loads((run_dir / f"check-{i}.json").read_text()) for i in range(workers)]

        ref_mismatches = sum(c["mismatches"] for c in checks)
        checked = sum(c["checked"] for c in checks)
        mismatches = ref_mismatches + measured["timed_mismatches"]
        attempted, failed = measured["attempted"], measured["failed"]
        if not measured["generator_valid"]:
            return fail("load generator ran late past its bound: run invalid", 3)

        values = dict(measured["per_layer"] if args.trace else measured["end_to_end"])
        values.setdefault("bench.failed_frac", failed / max(1, attempted))
        values.setdefault("bench.mismatches", mismatches)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            return fail(f"metrics missing from the measurement: {missing}", 1)
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        }
        correct = mismatches == 0 and checked > 0

        host = host_key(env, measured)
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("host " + json.dumps(host, sort_keys=True))
        print("env REPRO_* unset: " + (", ".join(unset) or "none were set")
              + "; REPRO_CC_CACHE = fresh empty directory")
        print(f"calls {measured['calls']} attempted {attempted} failed {failed} "
              f"failed_frac {failed / max(1, attempted):.6f} ratio")
        print(f"mismatches {mismatches} count (reference: {ref_mismatches} of {checked} "
              f"images; timed vs first: {measured['timed_mismatches']})")
        for check in checks:
            for detail in check["details"][:10]:
                print(f"  mismatch {detail}")
        for error in measured["errors"][:10]:
            print(f"  error {error}")
        for name, metric in metrics.items():
            print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")

        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "host": host, "repro_env_unset": unset,
            "cc_libraries_at_start": measured["cc_libraries_at_start"],
            "setup_s_runs": setup_runs,
            "correct": correct, "attempted": attempted, "failed": failed,
            "mismatches": mismatches, "end_to_end": measured["end_to_end"],
            "per_layer": measured["per_layer"], "errors": measured["errors"],
            "samples": measured["samples"],
        }
        results = work / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
        spans = run_dir / "trace" / "spans.jsonl"
        if spans.is_file():
            traces = work / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            shutil.move(str(spans), traces / f"{args.workload}-seed{args.seed}.jsonl")

        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
