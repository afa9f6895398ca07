"""The traced run's per-layer split.

:class:`LayerProbe` times calls into each layer's public functions by
wrapping them, from this file, for the duration of the traced run; nothing
inside ``src/`` is changed.  It also folds in what ``repro.obs`` already
emits: the spans of every completed trace (``map``/``reduce`` self time,
worker task spans, the request root's unattributed self time) and the
process-global and per-service registry counters, taken as differences
over the measured window because the registries are cumulative.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.gumbo import Gumbo
from repro.mapreduce.engine import MapReduceEngine
from repro.model.database import Database
from repro.model.relation import Relation
from repro.service import service as service_module
from repro.service.service import QueryService
from repro.service.sharded.backend import ShardedBackend
from repro.service.sharded.cluster import ShardCluster
from repro.service.sharded.frontend import ShardedService

_MB = 1024.0 * 1024.0

#: (timer key, owner, attribute): the public functions timed per layer.
TIMED = (
    ("query.parse", Gumbo, "as_sgf"),
    ("service.fingerprint", service_module, "query_fingerprint"),
    ("service.snapshot", QueryService, "_snapshot_result"),
    ("service.request", QueryService, "execute"),
    ("incremental.refresh", QueryService, "add_tuples"),
    ("frontend.request", ShardedService, "execute"),
    ("core.plan", Gumbo, "plan_with"),
    ("cost.estimator", Gumbo, "estimator"),
    ("model.db_copy", Database, "copy"),
    ("model.relation_copy", Relation, "copy"),
    ("mapreduce.account", MapReduceEngine, "finalise_job_metrics"),
    ("exec.ship", ShardedBackend, "ensure_loaded"),
    ("sharded.run_job", ShardedBackend, "run_job"),
    ("sharded.run_tasks", ShardCluster, "run_tasks"),
)

#: Timers whose call intervals are kept (reads overlapping writes).
_INTERVALS = ("service.request", "incremental.refresh")

_MAP_SPANS = ("map", "map_batch")
_REDUCE_SPANS = ("reduce", "reduce_batch")
_WORKER_SPANS = ("map_task", "reduce_task")


class Tagged(str):
    """Query text carrying the time it entered the front-end."""

    entered_s: Optional[float] = None


class LayerProbe:
    """Per-layer calls, busy time, waits and failures of one traced run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.recording = False
        self._restore: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a new measured window (wrappers stay installed)."""
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy_s: Dict[str, float] = defaultdict(float)
        self.failures: Dict[str, int] = defaultdict(int)
        self.intervals: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.frontend_wait_s = 0.0
        self.frontend_waits = 0
        self.in_flight_max = 0
        self.refreshed = 0
        self.spans: Dict[str, float] = defaultdict(float)
        self.span_count = 0

    # -- wrapping ------------------------------------------------------------------

    def install(self) -> None:
        for key, owner, attribute in TIMED:
            raw = vars(owner).get(attribute)
            if raw is None:
                raise AttributeError(f"{owner.__name__} defines no {attribute!r}")
            function = getattr(owner, attribute)
            wrapped = self._wrap(key, function)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._restore.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._restore):
            setattr(owner, attribute, raw)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _account(self, key: str, start: float, end: float, failed: bool) -> None:
        with self._lock:
            self.calls[key] += 1
            self.busy_s[key] += end - start
            if failed:
                self.failures[key] += 1
            if key in _INTERVALS:
                self.intervals[key].append((start, end))

    def _wrap(self, key: str, function):
        probe = self

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def timed_async(frontend, query, *args, **kwargs):
                if not probe.recording:
                    return await function(frontend, query, *args, **kwargs)
                start = perf_counter()
                if isinstance(query, Tagged):
                    query.entered_s = start
                with probe._lock:
                    probe.in_flight_max = max(
                        probe.in_flight_max, frontend.in_flight + 1
                    )
                failed = True
                try:
                    result = await function(frontend, query, *args, **kwargs)
                    failed = False
                    return result
                finally:
                    probe._account(key, start, perf_counter(), failed)

            return timed_async

        @functools.wraps(function)
        def timed(*args, **kwargs):
            if not probe.recording:
                return function(*args, **kwargs)
            start = perf_counter()
            if key == "service.request":
                query = args[1] if len(args) > 1 else kwargs.get("query")
                if isinstance(query, Tagged) and query.entered_s is not None:
                    with probe._lock:
                        probe.frontend_wait_s += start - query.entered_s
                        probe.frontend_waits += 1
            failed = True
            try:
                result = function(*args, **kwargs)
                failed = False
                if key == "incremental.refresh" and result is not None:
                    with probe._lock:
                        probe.refreshed += len(result)
                return result
            finally:
                probe._account(key, start, perf_counter(), failed)

        return timed

    # -- spans ---------------------------------------------------------------------

    def drain_spans(self) -> None:
        """Fold every completed trace into the span sums."""
        for tracer in obs.drain_traces():
            if self.recording:
                self._fold(tracer.spans)

    def _fold(self, spans) -> None:
        children: Dict[str, List] = defaultdict(list)
        for span in spans:
            if span.parent_id is not None:
                children[span.parent_id].append(span)
        sums = self.spans
        for span in spans:
            name = span.name
            if name in _WORKER_SPANS:
                sums["worker"] += span.duration_s
                continue
            if name in _MAP_SPANS:
                bucket = "map"
            elif name in _REDUCE_SPANS:
                bucket = "reduce"
            elif name == "service.request":
                bucket = "request"
                sums["request_total"] += span.duration_s
            else:
                continue
            sums[bucket] += _self_time(span, children.get(span.span_id, ()))
        self.span_count += len(spans)

    # -- derived -------------------------------------------------------------------

    def reads_during_writes(self) -> Tuple[int, float]:
        """(count, summed seconds) of requests overlapping a refresh call."""
        writes = sorted(self.intervals.get("incremental.refresh", ()))
        starts = [start for start, _ in writes]
        count, total = 0, 0.0
        for start, end in self.intervals.get("service.request", ()):
            # A write overlaps when it starts before the read ends and ends
            # after the read starts; writes never overlap each other.
            index = bisect.bisect_left(starts, end)
            if index and writes[index - 1][1] > start:
                count += 1
                total += end - start
        return count, total


def _self_time(span, children) -> float:
    """Span duration minus the part of it its children's union covers."""
    covered, cursor = 0.0, span.start_s
    for child in sorted(children, key=lambda c: c.start_s):
        begin = max(child.start_s, cursor)
        end = min(child.end_s, span.end_s)
        if end > begin:
            covered += end - begin
            cursor = end
    return max(0.0, span.duration_s - covered)


def counter_values(registry) -> Dict[Tuple[str, Tuple], float]:
    """Every counter of *registry* as ``(name, labels) -> value``."""
    return {
        (name, metric.labels): metric.value
        for name, kind, instruments in registry.collect()
        if kind == "counter"
        for metric in instruments
    }


@dataclass(frozen=True)
class Snapshot:
    """The cumulative counters one traced window is measured between."""

    registry: Dict[Tuple[str, Tuple], float]
    service: Dict[Tuple[str, Tuple], float]
    stats: object
    respawns: int
    retries: int

    @classmethod
    def take(cls, client) -> "Snapshot":
        cluster = getattr(client.service.gumbo.backend, "cluster", None)
        return cls(
            registry=counter_values(obs.default_registry()),
            service=counter_values(client.service.metrics),
            stats=client.service.stats(),
            respawns=cluster.respawns if cluster is not None else 0,
            retries=cluster.retries if cluster is not None else 0,
        )


def _delta(before, after, name: str, **labels) -> float:
    """Sum of counter *name* increments matching *labels*, after − before."""
    wanted = set(labels.items())
    total = 0.0
    for (metric, metric_labels), value in after.items():
        if metric == name and wanted <= set(metric_labels):
            total += value - before.get((metric, metric_labels), 0.0)
    return total


def per_layer_record(
    probe: LayerProbe,
    requests: int,
    before: Snapshot,
    after: Snapshot,
    estimator_setup_s: float,
    tracing_overhead: float,
) -> Tuple[Dict[str, float], List[Dict[str, object]]]:
    """The per_layer metrics and the SNIPPETS-shaped per-layer record.

    ``*_ms`` metrics and call counts are per request, except
    ``cost.estimator_ms`` (per set-up: statistics are built once per
    service).  Failure-like counts (shed, timeouts, respawns, retries) are
    totals of the traced window.
    """
    per = max(1, requests)
    busy = probe.busy_s
    calls = probe.calls

    def reg(name, **labels):
        return _delta(before.registry, after.registry, name, **labels)

    def svc(name, **labels):
        return _delta(before.service, after.service, name, **labels)

    def ms(seconds: float) -> float:
        return seconds * 1e3 / per

    jobs = reg("repro_jobs_total")
    plan_hits = svc("repro_service_plan_cache_total", outcome="hit")
    plan_lookups = plan_hits + svc("repro_service_plan_cache_total", outcome="miss")
    served = after.stats.queries_served - before.stats.queries_served
    materialized = after.stats.materialized_hits - before.stats.materialized_hits
    overlapping, overlap_s = probe.reads_during_writes()
    shed = svc("repro_sharded_shed_total")
    timeouts = svc("repro_sharded_timeouts_total")
    respawns = after.respawns - before.respawns
    retries = after.retries - before.retries
    parent_s = busy["sharded.run_job"] - busy["sharded.run_tasks"]
    spans = probe.spans
    metrics = {
        "query.parse_ms": ms(busy["query.parse"]),
        "query.parse_calls": calls["query.parse"] / per,
        "service.fingerprint_ms": ms(busy["service.fingerprint"]),
        "service.snapshot_ms": ms(busy["service.snapshot"]),
        "service.request_ms": ms(busy["service.request"]),
        "service.read_during_write_ms": (
            overlap_s * 1e3 / overlapping if overlapping else 0.0
        ),
        "service.plan_cache_hit_ratio": (
            plan_hits / plan_lookups if plan_lookups else 0.0
        ),
        "service.materialized_hit_ratio": materialized / served if served else 0.0,
        "frontend.wait_ms": (
            probe.frontend_wait_s * 1e3 / probe.frontend_waits
            if probe.frontend_waits
            else 0.0
        ),
        "frontend.shed": shed,
        "frontend.timeouts": timeouts,
        "frontend.in_flight_max": float(probe.in_flight_max),
        "core.plan_ms": ms(busy["core.plan"]),
        "core.plans": calls["core.plan"] / per,
        "cost.estimator_ms": estimator_setup_s * 1e3,
        "model.db_copy_ms": ms(busy["model.db_copy"]),
        "model.relation_copy_calls": calls["model.relation_copy"] / per,
        "mapreduce.map_ms": ms(spans["map"]),
        "mapreduce.reduce_ms": ms(spans["reduce"]),
        "mapreduce.account_ms": ms(busy["mapreduce.account"]),
        "mapreduce.jobs": jobs / per,
        "mapreduce.kernel_job_share": (
            reg("repro_jobs_total", path="kernel") / jobs if jobs else 0.0
        ),
        "mapreduce.shuffle_mb": reg("repro_shuffle_bytes_total") / (per * _MB),
        "mapreduce.rows_in": reg("repro_rows_total", dir="in") / per,
        "mapreduce.rows_out": reg("repro_rows_total", dir="out") / per,
        "exec.ship_ms": ms(busy["exec.ship"]),
        "exec.shipped_mb": reg("repro_bytes_shipped") / (per * _MB),
        "sharded.run_tasks_ms": ms(busy["sharded.run_tasks"]),
        "sharded.worker_compute_ms": ms(spans["worker"]),
        "sharded.parent_ms": ms(parent_s),
        "sharded.respawns": float(respawns),
        "sharded.retries": float(retries),
        "incremental.refresh_ms": ms(busy["incremental.refresh"]),
        "incremental.materializations_refreshed": probe.refreshed / per,
        "obs.tracing_overhead": tracing_overhead,
        "obs.unattributed_share": (
            spans["request"] / spans["request_total"] if spans["request_total"] else 0.0
        ),
    }

    def layer(layer_id, key, busy_s, wait_s=0.0, failures=0, **extra):
        entry = {
            "id": layer_id,
            "calls": calls[key],
            "busy_ms": round(busy_s * 1e3, 3),
            "wait_ms": round(wait_s * 1e3, 3),
            "failures": int(failures),
            "retries": 0,
        }
        entry.update(extra)
        return entry

    record = [
        layer("query", "query.parse", busy["query.parse"]),
        layer(
            "service",
            "service.request",
            busy["service.request"],
            failures=svc("repro_service_failures_total"),
        ),
        layer(
            "service.sharded.frontend",
            "frontend.request",
            busy["frontend.request"],
            probe.frontend_wait_s,
            failures=shed + timeouts,
        ),
        layer(
            "service.sharded.cluster",
            "sharded.run_job",
            parent_s,
            busy["sharded.run_tasks"],
            worker_compute_ms=round(spans["worker"] * 1e3, 3),
            respawns=respawns,
        ),
        layer("core", "core.plan", busy["core.plan"]),
        layer("cost", "cost.estimator", busy["cost.estimator"]),
        layer(
            "model",
            "model.db_copy",
            busy["model.db_copy"] + busy["model.relation_copy"],
        ),
        layer(
            "mapreduce",
            "mapreduce.account",
            spans["map"] + spans["reduce"] + busy["mapreduce.account"],
        ),
        layer("exec", "exec.ship", busy["exec.ship"]),
        layer("incremental", "incremental.refresh", busy["incremental.refresh"]),
        layer(
            "obs",
            "obs",
            0.0,
            spans=probe.span_count,
            unattributed_share=metrics["obs.unattributed_share"],
            tracing_overhead=tracing_overhead,
        ),
    ]
    record[3]["retries"] = retries
    return metrics, record
