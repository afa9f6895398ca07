"""Self-tests of the benchmark (not of the program).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

Each test drives ``perfbench/run.py`` as a subprocess, exactly as a caller
would, on short runs.  The file is not named ``test_*.py`` so the
repository's tier-1 suite does not collect it.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
BOUNDS = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}

#: A seed not used while the benchmark was written.
FRESH_SEED = 90017
SEED = 11
COUNTS = ("mapreduce.jobs", "mapreduce.shuffle_mb", "mapreduce.rows_in", "mapreduce.rows_out")


@functools.lru_cache(maxsize=None)
def bench(workload, seed=SEED, seconds=1, trace=0, inject=None, cwd=ROOT):
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    notes = {
        line[2:].split(": ", 1)[0]: json.loads(line[2:].split(": ", 1)[1])
        for line in lines
        if line.startswith("# ")
    }
    return done.returncode, result, notes


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_names_and_units(workload, trace):
    code, result, _ = bench(workload, trace=trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_injected_wrong_result_trips_the_gate():
    code, result, _ = bench("batch-serial", inject="wrong-result")
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_forced_shed_counts_in_error_rate():
    code, result, notes = bench("serve-mixed", inject="shed")
    assert code == 0 and result["correct"]
    assert result["failed"] > 0
    assert notes["error_rate"] == pytest.approx(result["failed"] / result["attempted"])
    assert notes["error_rate"] > 0


def test_batch_backends_agree_on_simulated_metrics_and_counts():
    _, serial, _ = bench("batch-serial")
    _, sharded, _ = bench("batch-sharded")
    for name in ("sim_net_time_s", "sim_total_time_s"):
        assert serial["metrics"][name] == sharded["metrics"][name]
    _, serial, _ = bench("batch-serial", trace=1)
    _, sharded, _ = bench("batch-sharded", trace=1)
    for name in COUNTS:
        assert serial["metrics"][name] == sharded["metrics"][name], name


def test_counts_repeat_exactly():
    for name in ("sim_net_time_s", "sim_total_time_s"):
        assert bench("batch-serial")[1]["metrics"][name] == bench(
            "batch-serial", seconds=2
        )[1]["metrics"][name]
    first = bench("batch-serial", trace=1)[1]["metrics"]
    again = bench("batch-serial", seconds=2, trace=1)[1]["metrics"]
    for name in COUNTS:
        assert first[name] == again[name], name


def test_fresh_seed_is_steady():
    known = bench("batch-serial", seconds=3)[1]["metrics"]
    fresh = bench("batch-serial", seed=FRESH_SEED, seconds=3)[1]["metrics"]
    for name in ("sim_net_time_s", "sim_total_time_s"):
        change = abs(fresh[name]["value"] - known[name]["value"]) / known[name]["value"]
        assert change <= BOUNDS[name] / 3, name
    for name in ("throughput_qps", "latency_p50_ms", "peak_rss_mb"):
        change = abs(fresh[name]["value"] - known[name]["value"]) / known[name]["value"]
        assert change <= 0.5, name  # a 3 s run; the bound holds for full runs


def _session_members(sid):
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue  # ended while listing
            if int(fields[3]) == sid:  # fields after the name: state, ppid, pgrp, session
                members.append(int(entry))
    return members


@pytest.mark.parametrize("workload", ["batch-sharded", "serve-mixed"])
def test_no_process_outlives_a_run(workload):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", "0"]
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, start_new_session=True)
    assert child.wait(timeout=300) == 0
    assert _session_members(child.pid) == []


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code, result, _ = bench("batch-serial", cwd=str(tmp_path))
    assert code != 0 and result is None
