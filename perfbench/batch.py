"""The ``batch-serial`` and ``batch-sharded`` workloads.

One closed-loop client sends the Section 5 queries A1, A3, B1, B2 and C1,
each once per round in a seeded order, every request under fresh output
names so it misses the plan cache like an ad-hoc query.  Both workloads use
the same database, mix and order for a seed; only the backend differs, so
their figures compare directly.  Rounds are whole, which keeps the mix's
proportions exact and makes per-pass counts repeat exactly.
"""

from __future__ import annotations

import math
import os
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.query.reference import evaluate_sgf

import client as clients
import inputs
import measure
from layers import LayerProbe, Snapshot, per_layer_record

SURFACE = {"batch-serial": "serial", "batch-sharded": "sharded"}

#: Set-ups per run (setup_s is their median): at least this many, and more
#: until they took SETUP_MIN_S in all, so a fast set-up is sampled enough.
SETUP_REPEATS = 7
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 40

#: The set-up's warm-up request: the cheapest query of the mix, so the
#: set-up measures connecting, statistics, shipping and a first plan.
WARMUP_QUERY = "A3"


@dataclass
class Expected:
    """What every response of one base query must equal."""

    answers: Dict[str, Dict[str, frozenset]]
    sims: Dict[str, Tuple[float, float]]


@dataclass
class Pass:
    """The measured window of one batch run, in reference-speed seconds.

    A request's host time is divided by the host's slowness sampled right
    before and after it (see ``measure.host_slowness``), so host drift
    cancels out of the comparison between two runs; ``raw_busy_s`` keeps
    the host time.
    """

    latencies: List[float] = field(default_factory=list)
    by_query: Dict[str, List[float]] = field(default_factory=dict)
    busy_s: float = 0.0
    raw_busy_s: float = 0.0
    slowness: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    rounds: int = 0
    sim_net_s: float = 0.0
    sim_total_s: float = 0.0

    @property
    def throughput_qps(self) -> float:
        """Queries completed per second of request time, over the whole pass.

        Whole rounds keep the mix's proportions exact.  A sharded run has
        only four or five rounds, too few for a median over rounds.
        """
        return (self.attempted - self.failed) / self.busy_s

    @property
    def latency_p50_ms(self) -> float:
        """Each query's median latency, geometric mean over the mix, in ms.

        Every query of the mix counts alike, so a change to any one of them
        shows; the p50 of all requests would be the middle query's alone
        (A1 on the sharded backend, four or five requests per run).
        """
        medians = [measure.median(times) for times in self.by_query.values()]
        return math.exp(sum(map(math.log, medians)) / len(medians)) * 1e3


def expected_results(database, mix: inputs.BatchMix) -> Expected:
    """Reference answers, and the serial backend's simulated metrics."""
    answers = {
        qid: inputs.answers(evaluate_sgf(query, database, keep_intermediates=False))
        for qid, query in mix.queries.items()
    }
    sims = {}
    reference = clients.open_client(database, "serial")
    try:
        for index, qid in enumerate(inputs.BATCH_QUERY_IDS):
            suffix = mix.suffix("x", index)
            result = reference.execute(mix.text(qid, suffix))
            if _base_names(reference.answer(result), suffix) != answers[qid]:
                raise RuntimeError(f"serial backend disagrees with the reference on {qid}")
            sims[qid] = (result.metrics.net_time, result.metrics.total_time)
    finally:
        reference.close()
    return Expected(answers, sims)


def _base_names(answer: Dict[str, frozenset], suffix: str) -> Dict[str, frozenset]:
    return {name[: -len(suffix)]: rows for name, rows in answer.items()}


def _correct(client, result, qid, suffix, expected: Expected) -> bool:
    sims = (result.metrics.net_time, result.metrics.total_time)
    return (
        _base_names(client.answer(result), suffix) == expected.answers[qid]
        and sims == expected.sims[qid]
    )


def set_up(database, surface, mix, expected, index, trace=False, inject=None):
    """Connect and serve the warm-up query: ``(client, seconds, correct)``.

    The seconds are reference-speed seconds, like a pass's timings.
    """
    before = measure.host_slowness()
    start = perf_counter()
    client = clients.open_client(database, surface, trace=trace, inject=inject)
    suffix = mix.suffix("w", index)
    result = client.execute(mix.text(WARMUP_QUERY, suffix))
    seconds = perf_counter() - start
    seconds /= (before + measure.host_slowness()) / 2
    return client, seconds, _correct(client, result, WARMUP_QUERY, suffix, expected)


def run_pass(client, mix, expected, seconds, probe: Optional[LayerProbe] = None) -> Pass:
    """Whole rounds of the mix until *seconds* of request time have passed."""
    measured = Pass()
    slowness = measure.host_slowness()
    while measured.raw_busy_s < seconds or measured.rounds == 0:
        round_net = round_total = 0.0
        for qid in mix.next_round():
            suffix = mix.suffix("q", measured.attempted)
            text = mix.text(qid, suffix)
            measured.attempted += 1
            start = perf_counter()
            try:
                result = client.execute(text)
            except Exception:
                result = None
                traceback.print_exc(file=sys.stderr)
            elapsed = perf_counter() - start
            after = measure.host_slowness()
            factor = (slowness + after) / 2
            slowness = after
            measured.slowness.append(factor)
            measured.raw_busy_s += elapsed
            measured.busy_s += elapsed / factor
            latency = elapsed / factor if result is not None else math.inf
            measured.latencies.append(latency)
            measured.by_query.setdefault(qid, []).append(latency)
            if result is None:
                measured.failed += 1
                continue
            if probe is not None:
                probe.drain_spans()
            if not _correct(client, result, qid, suffix, expected):
                measured.wrong += 1
            round_net += result.metrics.net_time
            round_total += result.metrics.total_time
        if measured.rounds == 0:
            measured.sim_net_s, measured.sim_total_s = round_net, round_total
        measured.rounds += 1
    return measured


def run(workload, seed, seconds, trace=False, inject=None) -> Dict[str, object]:
    surface = SURFACE[workload]
    database = inputs.batch_database(seed)
    mix = inputs.BatchMix(seed)
    expected = expected_results(database, mix)
    if trace:
        return _run_traced(workload, surface, database, mix, expected, seconds)

    setups, setup_ok, started = [], True, perf_counter()
    while True:
        client, setup_s, ok = set_up(
            database, surface, mix, expected, len(setups), inject=inject
        )
        setups.append(setup_s)
        setup_ok = setup_ok and ok
        enough = len(setups) >= SETUP_REPEATS and perf_counter() - started >= SETUP_MIN_S
        if enough or len(setups) == SETUP_MAX_REPEATS:
            break
        client.close()
    try:
        measured = run_pass(client, mix, expected, seconds)
        rss = measure.peak_rss_mb([os.getpid(), *measure.child_pids()])
    finally:
        client.close()
    latency = measure.summarize(measured.latencies)
    wrong = measured.wrong + (0 if setup_ok else 1)
    return {
        "correct": wrong == 0,
        "attempted": measured.attempted + len(setups),
        "failed": measured.failed + wrong,
        "metrics": {
            "setup_s": measure.median(setups),
            "throughput_qps": measured.throughput_qps,
            "latency_p50_ms": measured.latency_p50_ms,
            "sim_net_time_s": measured.sim_net_s,
            "sim_total_time_s": measured.sim_total_s,
            "peak_rss_mb": rss,
        },
        "notes": {
            "latency_all_p50_ms": latency["p50_ms"],
            "latency_tail_ms": latency["tail_ms"],
            "latency_samples": latency["samples"],
            "latency_tail_pct": latency["tail_pct"],
            "rounds": measured.rounds,
            "setup_samples_s": setups,
            "host_slowness_median": measure.median(measured.slowness),
            "raw_throughput_qps": (measured.attempted - measured.failed)
            / measured.raw_busy_s,
        },
    }


def _run_traced(workload, surface, database, mix, expected, seconds):
    """An untraced pass for the overhead baseline, then the traced pass.

    Each pass gets half of *seconds*, so a traced run takes about as long
    as an untraced one.
    """
    seconds /= 2
    client, _, ok_untraced = set_up(database, surface, mix, expected, 0)
    try:
        untraced = run_pass(client, mix, expected, seconds)
    finally:
        client.close()

    probe = LayerProbe()
    with probe.installed():
        probe.recording = True
        client, _, ok_traced = set_up(database, surface, mix, expected, 1, trace=True)
        try:
            estimator_s = probe.busy_s["cost.estimator"]
            probe.drain_spans()
            probe.reset()
            before = Snapshot.take(client)
            traced = run_pass(client, mix, expected, seconds, probe=probe)
            probe.drain_spans()
            after = Snapshot.take(client)
            probe.recording = False
        finally:
            client.close()
    overhead = untraced.throughput_qps / traced.throughput_qps - 1.0
    metrics, record = per_layer_record(
        probe, traced.attempted, before, after, estimator_s, overhead
    )
    wrong = untraced.wrong + traced.wrong + (not ok_untraced) + (not ok_traced)
    failed = untraced.failed + traced.failed + wrong
    # Figures of the untraced pass that are not end-to-end metrics; the
    # serving workload's write and capacity figures, which a closed-loop
    # batch does not have, are 0.
    metrics.update(
        latency_tail_ms=measure.summarize(untraced.latencies)["tail_ms"],
        write_p50_ms=0.0,
        write_tail_ms=0.0,
        max_rate_qps=0.0,
        error_rate=(untraced.failed + untraced.wrong) / untraced.attempted,
    )
    return {
        "correct": wrong == 0,
        "attempted": untraced.attempted + traced.attempted + 2,
        "failed": failed,
        "metrics": metrics,
        "record": {
            "workload": workload,
            "requests": traced.attempted,
            "rounds": traced.rounds,
            "latency_ms": measure.summarize(traced.latencies),
            "per_layer": record,
        },
    }
