"""The ``serve-mixed`` workload: the serving tier as shipped, under a read
ladder with a background write stream.

A seeded hot set of eight queries is materialized at set-up.  Reads pick
hot queries with Zipf skew and run open loop at deterministic spacing over
a ladder of fixed rates, timed from each request's due time; one writer
thread inserts a four-row batch every half second with incremental
refresh.  The ladder always runs up to the reference rate, then climbs
until the first rung that misses the latency limit, sheds, or builds a
backlog.  Before the ladder, a closed loop of two client connections
measures read throughput.  After each phase, with no request in flight, every hot
materialization is compared with a fresh reference evaluation of the
mutated database.

The closed loop and the reference rung run in segments, and each
segment's elapsed time is divided by the host's slowness sampled right
before and after it (see ``measure.host_slowness`` and
``perfbench/README.md``), so host drift during a phase cancels out of the
closed loop's rate.  The closed loop's segments are short, because its
rate follows the host's speed closely.
"""

from __future__ import annotations

import asyncio
import math
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from repro import obs
from repro.query.parser import parse_sgf
from repro.query.reference import evaluate_sgf
from repro.service.sharded import RequestTimeoutError, ServiceOverloadedError

import client as clients
import inputs
import measure
from layers import LayerProbe, Snapshot, Tagged, per_layer_record

RUNGS = (100, 200, 400, 800, 1200, 1600, 2000, 2400, 2800, 3200)
REFERENCE_RATE = 400
LATENCY_LIMIT_S = 0.25
WRITE_INTERVAL_S = 0.5
CLOSED_LOOP_CLIENTS = 2
#: Set-ups per run; setup_s is their median, in host time: set-up is mostly
#: process spawning and shard round trips, which do not follow the
#: calibration slice (dividing by it spread set-up medians 2.6-3.4 s over
#: five seeds, against 2.9-3.1 s uncorrected).  A run's set-ups vary less
#: than runs do, so three are enough.
SETUP_REPEATS = 3

#: The closed loop and the reference rung run in segments (about 0.25 s
#: each in the closed loop, and 1,000 reads each on the rung, so each
#: segment's p99 has 10 reads beyond it).
CLOSED_LOOP_SEGMENTS = 35
REFERENCE_SEGMENTS = 5

#: Completed traces are folded once this many wait (the collector keeps 256).
DRAIN_AT = 64

#: Shares of ``--seconds``: the closed loop and the reference rung; the
#: rest is split evenly over the other rungs.
CLOSED_LOOP_SHARE = 0.35
REFERENCE_SHARE = 0.5


@dataclass
class Phase:
    """One measured phase: a ladder rung, or the closed loop (rate 0).

    ``reads`` and ``writes`` are in host seconds; ``norm_writes`` and
    ``norm_elapsed_s`` are in reference-speed seconds, each divided by its
    segment's slowness.  Read latency stays in host seconds: at the
    reference rate about half of it is the event loop's timer wake-up,
    which does not follow the interpreter's speed, and dividing it by the
    slowness made it spread more, not less.  A failed read or write counts
    as ``math.inf``.
    """

    rate: int
    duration_s: float
    reads: List[float] = field(default_factory=list)
    shed: int = 0
    timeouts: int = 0
    errors: int = 0
    writes: List[float] = field(default_factory=list)
    norm_writes: List[float] = field(default_factory=list)
    write_failures: int = 0
    lateness: List[float] = field(default_factory=list)
    backlog_growing: bool = False
    drain_s: float = 0.0
    mismatches: int = 0
    elapsed_s: float = 0.0
    #: The phase's elapsed time in reference-speed seconds.
    norm_elapsed_s: float = 0.0
    slowness: float = 1.0
    #: Per segment: read latency summary.
    segment_latency: List[Dict[str, float]] = field(default_factory=list)

    @property
    def read_failures(self) -> int:
        return self.shed + self.timeouts + self.errors

    @property
    def latency(self) -> Dict[str, float]:
        """Read latency in ms: the median of every read, and the median of
        the segments' tails (robust to one slow segment)."""
        overall = measure.summarize(self.reads)
        tails = [segment["tail_ms"] for segment in self.segment_latency]
        overall["tail_ms"] = measure.median(tails)
        overall["tail_pct"] = min(s["tail_pct"] for s in self.segment_latency)
        return overall

    @property
    def throughput_qps(self) -> float:
        """Completed reads per reference-speed second of the whole phase."""
        return (len(self.reads) - self.read_failures) / self.norm_elapsed_s

    @property
    def passed(self) -> bool:
        """Whether the rung met the limits, in host time."""
        return (
            self.read_failures == 0
            and not self.backlog_growing
            and measure.summarize(self.reads)["tail_ms"] <= LATENCY_LIMIT_S * 1e3
        )

    def summary(self) -> Dict[str, object]:
        latency = self.latency
        return {
            "rate": self.rate,
            "host_slowness": round(self.slowness, 3),
            "reads": len(self.reads),
            "p50_ms": round(latency["p50_ms"], 3),
            "tail_ms": round(latency["tail_ms"], 3),
            "tail_pct": latency["tail_pct"],
            "shed": self.shed,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "writes": len(self.writes),
            "write_failures": self.write_failures,
            "late_max_ms": round(max(self.lateness, default=0.0) * 1e3, 3),
            "late_p99_ms": round(
                measure.percentile(sorted(self.lateness), 99.0) * 1e3
                if self.lateness
                else 0.0,
                3,
            ),
            "backlog_growing": self.backlog_growing,
            "drain_ms": round(self.drain_s * 1e3, 3),
            "mismatches": self.mismatches,
            "passed": self.passed if self.rate else None,
        }


class Session:
    """One open front-end with its hot set, read picker and write stream."""

    def __init__(self, database, seed: int, trace: bool, inject: Optional[str]):
        self.hot = inputs.hot_set(seed)
        self.parsed = {
            query.output_names[0]: query for query in map(parse_sgf, self.hot)
        }
        self.picker = inputs.ZipfPicker(seed)
        self.stream = inputs.WriteStream(seed + 1)
        self.probe: Optional[LayerProbe] = None
        start = perf_counter()
        self.client = clients.open_client(database, "frontend", trace=trace, inject=inject)
        self.materialized = [self.client.materialize(text) for text in self.hot]
        self.setup_s = perf_counter() - start
        self._writer = ThreadPoolExecutor(1, thread_name_prefix="perfbench-writer")

    def close(self) -> None:
        self._writer.shutdown(wait=True)
        self.client.close()

    @property
    def sims(self):
        return (
            sum(r.metrics.net_time for r in self.materialized),
            sum(r.metrics.total_time for r in self.materialized),
        )

    # -- requests ------------------------------------------------------------------

    def _text(self) -> str:
        text = self.hot[self.picker.pick()]
        return Tagged(text) if self.probe is not None else text

    async def _read(self, text: str, due: float, phase: Phase) -> None:
        try:
            await self.client.read(text)
            phase.reads.append(perf_counter() - due)
        except ServiceOverloadedError:
            phase.shed += 1
            phase.reads.append(math.inf)
        except RequestTimeoutError:
            phase.timeouts += 1
            phase.reads.append(math.inf)
        except Exception:
            phase.errors += 1
            phase.reads.append(math.inf)
            traceback.print_exc(file=sys.stderr)
        if self.probe is not None and len(obs.default_collector()) >= DRAIN_AT:
            self.probe.drain_spans()

    def _write(self) -> float:
        """Make and apply the next batch: seconds spent making it."""
        start = perf_counter()
        relation, rows = self.stream.next_batch(self.client.service.database)
        made = perf_counter() - start
        self.client.refresh(relation, rows)
        return made

    async def _write_stream(self, start: float, duration_s: float, phase: Phase) -> None:
        loop = asyncio.get_running_loop()
        due = start
        while due < start + duration_s:
            await asyncio.sleep(max(0.0, due - perf_counter()))
            try:
                made = await loop.run_in_executor(self._writer, self._write)
                # Timed from due, so lateness and queueing behind the
                # previous write count; making the batch does not.
                phase.writes.append(perf_counter() - due - made)
            except Exception:
                phase.write_failures += 1
                phase.writes.append(math.inf)
                traceback.print_exc(file=sys.stderr)
            due += WRITE_INTERVAL_S

    async def _open_loop(self, rate: int, duration_s: float, phase: Phase) -> None:
        """Open-loop reads at *rate* for *duration_s*, writes alongside."""
        count = max(1, int(rate * duration_s))
        pending = set()
        start = perf_counter() + 0.005
        writer = asyncio.create_task(self._write_stream(start, duration_s, phase))
        early = 0
        for index in range(count):
            due = start + index / rate
            # Always yield, so a generator running late still lets
            # completions run between its (then back-to-back) sends.
            await asyncio.sleep(max(0.0, due - perf_counter()))
            phase.lateness.append(max(0.0, perf_counter() - due))
            task = asyncio.create_task(self._read(self._text(), due, phase))
            pending.add(task)
            task.add_done_callback(pending.discard)
            if index == count // 4:
                early = len(pending)
        late = len(pending)
        last_due = start + (count - 1) / rate
        await asyncio.gather(*list(pending))
        phase.drain_s = max(phase.drain_s, perf_counter() - last_due)
        await writer
        # A growing backlog: many more requests outstanding at the end of
        # the schedule than a quarter into it.
        if late > early + max(8, 0.05 * rate):
            phase.backlog_growing = True

    async def _closed_loop(self, duration_s: float, phase: Phase) -> None:
        """Two client connections, each sending its next read on a reply."""
        deadline = perf_counter() + duration_s

        async def client_loop():
            while perf_counter() < deadline:
                await self._read(self._text(), perf_counter(), phase)

        await asyncio.gather(*(client_loop() for _ in range(CLOSED_LOOP_CLIENTS)))

    async def phase(self, rate: int, duration_s: float, segments: int) -> Phase:
        """One phase, in *segments* equal parts.

        Between segments nothing is in flight, and the host's slowness is
        sampled; an open-loop schedule restarts each segment.  A segment's
        elapsed time and writes are divided by the mean of the samples
        around it.
        """
        phase = Phase(rate, duration_s)
        samples = []
        after = measure.host_slowness()
        for _ in range(segments):
            reads, writes, before = len(phase.reads), len(phase.writes), after
            start = perf_counter()
            if rate:
                await self._open_loop(rate, duration_s / segments, phase)
            else:
                await self._closed_loop(duration_s / segments, phase)
            elapsed = perf_counter() - start
            after = measure.host_slowness()
            factor = (before + after) / 2
            samples.append(factor)
            phase.elapsed_s += elapsed
            phase.norm_elapsed_s += elapsed / factor
            phase.norm_writes.extend(write / factor for write in phase.writes[writes:])
            phase.segment_latency.append(measure.summarize(phase.reads[reads:]))
        phase.slowness = measure.median(samples)
        return phase

    def check(self) -> int:
        """Hot materializations that differ from a fresh reference evaluation."""
        recording = self.probe is not None and self.probe.recording
        if recording:
            self.probe.recording = False
        try:
            database = self.client.service.database
            served = self.client.materialized_answers()
            mismatches = len(set(self.parsed) ^ set(served))
            for name, query in self.parsed.items():
                expected = inputs.answers(evaluate_sgf(query, database))
                if served.get(name) != expected[name]:
                    mismatches += 1
            return mismatches
        finally:
            if recording:
                self.probe.recording = True

    async def ladder(self, seconds: float) -> List[Phase]:
        """The closed loop, then the rate ladder; a check after each phase."""
        other = seconds * (1 - CLOSED_LOOP_SHARE - REFERENCE_SHARE) / (len(RUNGS) - 1)
        plan = [(0, seconds * CLOSED_LOOP_SHARE, CLOSED_LOOP_SEGMENTS)] + [
            (rate, seconds * REFERENCE_SHARE, REFERENCE_SEGMENTS)
            if rate == REFERENCE_RATE
            else (rate, other, 1)
            for rate in RUNGS
        ]
        phases: List[Phase] = []
        for rate, duration, segments in plan:
            phase = await self.phase(rate, duration, segments)
            phase.mismatches = self.check()
            phases.append(phase)
            if rate > REFERENCE_RATE and not phase.passed:
                break
        return phases


def _figures(session: Session, phases: List[Phase]) -> Dict[str, object]:
    """Workload figures and operation accounting of one session's phases."""
    closed = phases[0]
    reference = next(p for p in phases if p.rate == REFERENCE_RATE)
    # Reads up to the reference rate and in the closed loop are the
    # workload's operations; rungs above it probe capacity, so what they
    # shed or time out decides max_rate_qps, not the error count.  Their
    # errors and every write and check still count.
    counted = [p for p in phases if p.rate <= REFERENCE_RATE]
    probes = [p for p in phases if p.rate > REFERENCE_RATE]
    attempted = failed = 0
    for phase in counted:
        attempted += len(phase.reads)
        failed += phase.read_failures
    for phase in phases:
        attempted += len(phase.writes) + len(session.hot)
        failed += phase.write_failures + phase.mismatches
    for phase in probes:
        failed += phase.errors
    passing = [p.rate for p in phases[1:] if p.passed]
    writes = measure.summarize(w for p in phases for w in p.norm_writes)
    return {
        "attempted": attempted + len(session.hot),
        "failed": failed,
        "wrong": sum(p.mismatches for p in phases),
        "throughput_qps": closed.throughput_qps,
        "raw_throughput_qps": (len(closed.reads) - closed.read_failures)
        / closed.elapsed_s,
        "latency": reference.latency,
        "write_p50_ms": writes["p50_ms"],
        "write_tail_ms": writes["tail_ms"],
        "write_tail_pct": writes["tail_pct"],
        "max_rate_qps": float(max(passing, default=0)),
        "phases": [p.summary() for p in phases],
    }


def _session(database, seed, trace=False, inject=None) -> Session:
    session = Session(database, seed, trace, inject)
    initial = session.check()
    if initial:
        session.close()
        raise RuntimeError(f"{initial} hot materializations wrong at set-up")
    return session


def run(seed: int, seconds: float, trace: bool = False, inject=None) -> Dict[str, object]:
    if trace:
        return _run_traced(seed, seconds)
    setups = []
    for index in range(SETUP_REPEATS):
        session = _session(inputs.serve_database(seed), seed, inject=inject)
        setups.append(session.setup_s)
        if index < SETUP_REPEATS - 1:
            session.close()
    try:
        phases = asyncio.run(session.ladder(seconds))
        rss = measure.peak_rss_mb([os.getpid(), *measure.child_pids()])
        sims = session.sims
        figures = _figures(session, phases)
    finally:
        session.close()
    latency = figures["latency"]
    return {
        "correct": figures["wrong"] == 0,
        "attempted": figures["attempted"],
        "failed": figures["failed"],
        "metrics": {
            "setup_s": measure.median(setups),
            "throughput_qps": figures["throughput_qps"],
            "latency_p50_ms": latency["p50_ms"],
            "sim_net_time_s": sims[0],
            "sim_total_time_s": sims[1],
            "peak_rss_mb": rss,
        },
        "notes": {
            "latency_tail_ms": latency["tail_ms"],
            "latency_samples": latency["samples"],
            "latency_tail_pct": latency["tail_pct"],
            "write_p50_ms": figures["write_p50_ms"],
            "write_tail_ms": figures["write_tail_ms"],
            "write_tail_pct": figures["write_tail_pct"],
            "max_rate_qps": figures["max_rate_qps"],
            "error_rate": figures["failed"] / figures["attempted"],
            "raw_throughput_qps": figures["raw_throughput_qps"],
            "closed_loop_slowness": phases[0].slowness,
            "setup_samples_s": setups,
            "phases": figures["phases"],
        },
    }


def _run_traced(seed: int, seconds: float) -> Dict[str, object]:
    """An untraced session for the overhead baseline, then the traced one.

    Each session's ladder gets half of *seconds*, so a traced run takes
    about as long as an untraced one.
    """
    seconds /= 2
    session = _session(inputs.serve_database(seed), seed)
    try:
        untraced = _figures(session, asyncio.run(session.ladder(seconds)))
    finally:
        session.close()

    probe = LayerProbe()
    with probe.installed():
        probe.recording = True
        session = _session(inputs.serve_database(seed), seed, trace=True)
        try:
            estimator_s = probe.busy_s["cost.estimator"]
            probe.drain_spans()
            probe.reset()
            session.probe = probe
            before = Snapshot.take(session.client)
            phases = asyncio.run(session.ladder(seconds))
            probe.drain_spans()
            after = Snapshot.take(session.client)
            probe.recording = False
            traced = _figures(session, phases)
        finally:
            session.close()
    reads = sum(len(p.reads) for p in phases)
    overhead = traced["latency"]["p50_ms"] / untraced["latency"]["p50_ms"] - 1.0
    metrics, record = per_layer_record(probe, reads, before, after, estimator_s, overhead)
    metrics.update(
        latency_tail_ms=untraced["latency"]["tail_ms"],
        write_p50_ms=untraced["write_p50_ms"],
        write_tail_ms=untraced["write_tail_ms"],
        max_rate_qps=untraced["max_rate_qps"],
        error_rate=untraced["failed"] / untraced["attempted"],
    )
    return {
        "correct": untraced["wrong"] + traced["wrong"] == 0,
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "metrics": metrics,
        "record": {
            "workload": "serve-mixed",
            "requests": reads,
            "latency_ms": traced["latency"],
            "phases": traced["phases"],
            "per_layer": record,
        },
    }
