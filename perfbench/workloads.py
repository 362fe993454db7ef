"""Workload definitions and seeded input generation.

Every process of a run (the measured process and the reference
checkers) rebuilds the same inputs from ``(seed, job)`` alone, so no
input array ever crosses a process boundary.  Importing this module
imports nothing from the program under test.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: The paper's six applications, in a fixed order.
APPS: Tuple[str, ...] = ("Harris", "Sobel", "Unsharp", "ShiTomasi", "Enhance", "Night")

#: Night is the only RGB app.
CHANNELS = {"Night": 3}


@dataclass(frozen=True)
class Job:
    """One (app, geometry, input variant) a workload calls."""

    app: str
    height: int
    width: int
    variant: int = 0

    @property
    def channels(self) -> int:
        return CHANNELS.get(self.app, 1)

    @property
    def shape(self) -> Tuple[int, ...]:
        if self.channels > 1:
            return (self.height, self.width, self.channels)
        return (self.height, self.width)

    @property
    def pixels(self) -> int:
        return self.height * self.width

    @property
    def key(self) -> str:
        return f"{self.app}-{self.height}x{self.width}-v{self.variant}"


@dataclass(frozen=True)
class Workload:
    """A workload: its jobs, engine and loop shape.

    ``closed`` workloads run one caller round-robin over ``jobs``
    through ``repro.api.run``; the open workload sends requests drawn
    from ``jobs`` into a serving runtime at ``rate_per_s``.
    """

    name: str
    engine: str  # "native" or "tape" (the default engine)
    jobs: Tuple[Job, ...]
    closed: bool = True
    #: Fewest timed calls: ten samples beyond p90 (closed), p99 (open).
    min_calls: int = 100
    #: Per-call (closed) or per-request (open) latency limit, in ms.
    limit_ms: float = 100.0
    #: Open loop only: offered load and per-request deadline.
    rate_per_s: float = 0.0
    deadline_s: float = 0.0
    #: Open loop only: request latency counts from the scheduled send, so
    #: a run whose generator's p50 or p99 lateness exceeds this share of
    #: the same percentile of request latency is invalid.
    late_share_max: float = 0.25


def _paper_jobs(gray: int, night: Tuple[int, int]) -> Tuple[Job, ...]:
    jobs = []
    for app in APPS:
        if app == "Night":
            jobs.append(Job(app, night[0], night[1]))
        else:
            jobs.append(Job(app, gray, gray))
    return tuple(jobs)


SERVE_SIZES = (96, 128, 192, 256, 320, 384)
SERVE_VARIANTS = 2


def _serve_jobs(sizes, variants: int) -> Tuple[Job, ...]:
    return tuple(
        Job(app, size, size, variant)
        for app in APPS
        for size in sizes
        for variant in range(variants)
    )


WORKLOADS: Dict[str, Workload] = {
    "run-small": Workload(
        "run-small", "native", _paper_jobs(256, (150, 240)), limit_ms=100.0
    ),
    "run-large": Workload(
        "run-large", "native", _paper_jobs(2048, (1200, 1920)), limit_ms=2000.0
    ),
    # About 1.8 times run-tape's p90 call (~280 ms, its slowest app).
    "run-tape": Workload(
        "run-tape", "tape", _paper_jobs(512, (300, 480)), limit_ms=500.0
    ),
    "serve-mixed": Workload(
        "serve-mixed",
        "native",
        _serve_jobs(SERVE_SIZES, SERVE_VARIANTS),
        closed=False,
        min_calls=1000,
        limit_ms=100.0,
        rate_per_s=25.0,
        deadline_s=1.0,
    ),
}

#: Few-second versions of every workload, for the benchmark's self-test.
TINY: Dict[str, Workload] = {
    "run-small": Workload("run-small", "native", _paper_jobs(48, (30, 48)), min_calls=12),
    "run-large": Workload("run-large", "native", _paper_jobs(96, (60, 96)), min_calls=12),
    "run-tape": Workload("run-tape", "tape", _paper_jobs(48, (30, 48)), min_calls=12),
    "serve-mixed": Workload(
        "serve-mixed",
        "native",
        _serve_jobs((32, 48), 1),
        closed=False,
        limit_ms=250.0,
        min_calls=0,
        rate_per_s=40.0,
        deadline_s=2.0,
        late_share_max=2.0,  # ~1-ms requests, 36 per run: lateness is a large share
    ),
}


def workload(name: str, tiny: bool = False) -> Workload:
    table = TINY if tiny else WORKLOADS
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; expected one of {sorted(table)}")
    return table[name]


def job_rng(seed: int, job: Job, stream: str) -> np.random.Generator:
    """A generator private to (seed, job, stream): stable across processes."""
    tag = zlib.crc32(f"{job.key}/{stream}".encode())
    return np.random.default_rng([seed, tag])


def make_inputs(seed: int, job: Job, names: List[str]) -> Dict[str, np.ndarray]:
    """The job's input images: uniform 8-bit-range values, as float64."""
    return {
        name: job_rng(seed, job, name).uniform(0.0, 255.0, size=job.shape)
        for name in names
    }
