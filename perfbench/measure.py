"""Measurement helpers: percentiles, latency summaries, host speed, memory,
and stopping the processes a run started."""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import signal
from multiprocessing import resource_tracker
from time import perf_counter, sleep
from typing import Dict, Iterable, List, Sequence

#: Candidate tail percentiles, highest first.  A timing's tail is the
#: highest of these with at least ``MIN_BEYOND`` samples beyond it; with
#: too few samples for any of them the tail is the median.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    if ordered[high] == ordered[low]:
        return ordered[low]  # also keeps two infinite samples from giving NaN
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: int) -> float:
    for pct in TAIL_PERCENTILES:
        if samples * (100.0 - pct) / 100.0 >= MIN_BEYOND:
            return pct
    return 50.0


def summarize(seconds: Iterable[float]) -> Dict[str, float]:
    """Median and tail of latencies given in seconds, reported in ms.

    Failed operations enter as ``math.inf`` so they count as missing any
    latency limit; the summary's values are then infinite where they reach.
    """
    ordered = sorted(seconds)
    if not ordered:
        return {"samples": 0, "p50_ms": math.nan, "tail_ms": math.nan, "tail_pct": 50.0}
    pct = tail_percentile(len(ordered))
    return {
        "samples": len(ordered),
        "p50_ms": percentile(ordered, 50.0) * 1e3,
        "tail_ms": percentile(ordered, pct) * 1e3,
        "tail_pct": pct,
    }


def median(values: Sequence[float]) -> float:
    return percentile(sorted(values), 50.0)


#: Seconds one calibration slice takes at the reference host speed: its
#: median, with the garbage collector off, on an idle 2-core VM.
REFERENCE_SLICE_S = 0.0035
_SLICES = 3


def _calibration_slice() -> int:
    """Fixed pure-Python work, independent of the program under test."""
    rows = [(i * 7919 % 1009, i % 13, i) for i in range(8000)]
    index = {}
    for row in rows:
        index.setdefault(row[0], []).append(row)
    common = set(rows[::2]) & set(rows[::3])
    return len(sorted(index)) + len(common)


def host_slowness() -> float:
    """How slow the host runs now, relative to the reference speed.

    The median time of three calibration slices, which run no program code,
    over ``REFERENCE_SLICE_S``.  The garbage collector is off during the
    slices, so the program's heap does not slow them.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(_SLICES):
            start = perf_counter()
            _calibration_slice()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return median(times) / REFERENCE_SLICE_S


def child_pids(pid: int = 0) -> List[int]:
    """Every live descendant of *pid* (this process by default), from /proc."""
    pid = pid or os.getpid()
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children = [int(child) for child in handle.read().split()]
        except OSError:
            continue
        for child in children:
            found.append(child)
            found.extend(child_pids(child))
    return found


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed peak resident set size (``VmHWM``) of *pids*, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # the process ended between listing and reading
    return total_kb / 1024.0


def _reap(pid: int) -> None:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass  # a grandchild, or reaped already


def stop_processes(grace_s: float = 5.0) -> int:
    """Stop every process this run started, and wait until each has ended.

    The program closes its shard workers itself; what can outlive a run is
    a worker it did not reap, and the ``multiprocessing`` resource tracker
    (started by the shared-memory data plane), which otherwise ends only
    after this process has exited.  Workers go first, because a forked
    worker holds the tracker's pipe open.  Returns how many processes
    besides the tracker were still running.
    """
    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)

    def others() -> List[int]:
        return [pid for pid in child_pids() if pid != tracker_pid]

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(grace_s)
    leftover = len(others())
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in others():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = perf_counter() + grace_s
        while others() and perf_counter() < deadline:
            for pid in others():
                _reap(pid)
            sleep(0.02)
    if tracker_pid is not None:
        # Closing the tracker's pipe ends it; ``_stop`` waits for it too.
        tracker._stop()
    return leftover
