"""Self-test of the benchmark on few-second workload sizes.

    python3 -m pytest perfbench/tests -q

Runs every workload at ``--tiny`` sizes, traced and untraced, through
the real oracle, and checks the result line against ``BENCHMARK.json``;
an injected mismatch must fail the run, and a directory without the
program must be refused.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402  (every workload, listed or not)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(out: subprocess.CompletedProcess) -> dict:
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_named_metric_is_reported(name, trace):
    out = bench("--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace, "--tiny")
    assert out.returncode == 0, out.stderr
    result = result_of(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_injected_mismatch_fails_the_run():
    out = bench(
        "--workload", "run-small", "--seed", "7", "--seconds", "1", "--tiny",
        "--inject-mismatch",
    )
    assert out.returncode == 1
    result = result_of(out)
    assert result["correct"] is False
    assert "reference: 1 of" in out.stdout  # caught by the oracle alone


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = bench("--workload", "run-small", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_inputs_depend_only_on_seed_and_job():
    from workloads import Job, make_inputs

    job = Job("Harris", 16, 24)
    a = make_inputs(3, job, ["input"])["input"]
    assert a.shape == (16, 24)
    assert (a == make_inputs(3, job, ["input"])["input"]).all()
    assert not (a == make_inputs(4, job, ["input"])["input"]).all()


def test_self_time_subtracts_nested_children():
    from tracer import Tracer

    tracer = Tracer()
    tracer.spans = [
        ["api.run", 0.0, 10.0, None, 0, 1],
        ["fusion.partition", 1.0, 4.0, 0, 0, 1],
        ["model.benefit", 1.5, 2.5, 1, 0, 1],
        ["native.exec", 5.0, 9.0, 0, 0, 1],
    ]
    total, own, calls = tracer.durations()
    assert total["api.run"] == 10.0 and own["api.run"] == 3.0
    assert own["fusion.partition"] == 2.0 and own["model.benefit"] == 1.0
    assert tracer.children_of("api.run") == {"fusion.partition": 3.0, "native.exec": 4.0}
    assert calls["api.run"] == 1


def test_oracle_tolerance_policy():
    import numpy as np
    from oracle import equal

    a = np.array([1.0, 2.0, np.nan])
    b = a.copy()
    b[0] = np.nextafter(1.0, 2.0)
    assert equal(a, a.copy(), None)
    assert not equal(a, b, None)
    assert equal(a, b, (1e-12, 1e-12))
    assert not equal(np.array([0.0]), np.array([-0.0]), None)
