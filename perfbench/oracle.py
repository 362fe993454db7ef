"""Reference checker: the unfused program on the recursive engine.

Runs after the measured process has exited, in its own process, so no
reference is ever computed inside a timed region or held in the
measured process's memory.  For each job assigned to this worker it
rebuilds the inputs from the seed, computes
``repro.api.run(app, inputs, options=ExecutionOptions(engine="recursive",
fuse=False))`` and compares every image the fused call returned: bit
for bit, or within the tolerance the manifest pins for the job.

One exception keeps the checker's memory bounded: a job with more than
``RECURSIVE_MAX_ELEMENTS`` input elements (only Night at 1920x1200 RGB,
where the recursive walk peaks near 4 GB) is referenced by the unfused
program on the tape engine, which the repository's tests hold
bit-identical to the recursive engine.

Usage: ``oracle.py RUN_DIR WORKER WORKERS`` -- writes
``RUN_DIR/check-WORKER.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from measure import same_bits
from workloads import Job, make_inputs


#: Largest input (elements) whose reference uses the recursive engine.
RECURSIVE_MAX_ELEMENTS = 2048 * 2048


def reference_options(job: Job):
    from repro.api import ExecutionOptions

    engine = "recursive" if job.pixels * job.channels <= RECURSIVE_MAX_ELEMENTS else "tape"
    return ExecutionOptions(engine=engine, fuse=False)


def cost(job: dict) -> float:
    """Rough relative cost of a reference run, for balancing workers."""
    weight = {"Harris": 4.0, "ShiTomasi": 4.0, "Night": 9.0}.get(job["app"], 1.0)
    return weight * job["height"] * job["width"]


def assign(jobs, workers: int):
    """Longest-first greedy split of the jobs over the workers."""
    loads = [0.0] * workers
    shares = [[] for _ in range(workers)]
    for job in sorted(jobs, key=cost, reverse=True):
        target = loads.index(min(loads))
        loads[target] += cost(job)
        shares[target].append(job)
    return shares


def equal(got: np.ndarray, want: np.ndarray, tolerance) -> bool:
    if tolerance is None:
        return same_bits(got, want)
    rtol, atol = tolerance
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=rtol, atol=atol, equal_nan=True)
    )


def main(argv=None) -> int:
    run_dir, worker, workers = (argv or sys.argv[1:])[:3]
    run_dir, worker, workers = Path(run_dir), int(worker), int(workers)
    from repro.api import run

    manifest = json.loads((run_dir / "manifest.json").read_text())
    seed = manifest["seed"]
    checked = mismatches = 0
    details = []
    for entry in assign(manifest["jobs"], workers)[worker]:
        job = Job(entry["app"], entry["height"], entry["width"], entry["variant"])
        inputs = make_inputs(seed, job, entry["inputs"])
        reference = run(job.app, inputs, options=reference_options(job))
        for name, file in sorted(entry["outputs"].items()):
            checked += 1
            got = np.load(run_dir / "outputs" / file)
            want = reference.get(name)
            if want is None or not equal(got, np.asarray(want), entry["tolerance"]):
                mismatches += 1
                details.append(f"{job.key}:{name}")
        del reference
    report = {"checked": checked, "mismatches": mismatches, "details": details}
    (run_dir / f"check-{worker}.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
