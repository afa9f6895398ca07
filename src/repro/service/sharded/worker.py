"""The shard worker: a long-lived process owning one shard's warm state.

Each worker runs :func:`worker_main` — a blocking recv loop over the private
socket its parent handed it at spawn time.  It is the one worker runtime
of both multi-process backends (``"sharded"`` and ``"parallel"``), and this
module holds the one copy of their map/reduce task code.  A shard worker
keeps the :class:`~repro.model.relation.ColumnBlock` chunks it owns
resident across requests: a :class:`~repro.service.sharded.rpc.LoadRelation`
installs them once, and subsequent map tasks name ``(relation, chunk_index,
version)`` instead of shipping rows.  Chunks arrive as data-plane payloads
(:func:`repro.exec.shm.decode_payload`): on the shm plane a worker *attaches*
the cluster's shared-memory segments instead of unpickling row bytes, and a
respawned worker's resident reload is therefore a re-attach, not a re-ship.
The blocks' memoised key tuples and
the per-blob job cache stay warm with them, which is the entire point of the
tier — repeated queries pay neither serialisation nor cache-warmup cost.

The map/combine/size arithmetic is the serial engine's own recipe: the
workers change *where* tasks run and what stays warm, never what they
compute — outputs and simulated metrics must stay bit-identical to the
serial reference.
"""

from __future__ import annotations

import os
import pickle
import socket
import traceback
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ...exec.shm import decode_payload
from ...mapreduce.job import Key, MapReduceJob
from ...model.relation import ColumnBlock
from ...obs.trace import worker_payload
from .rpc import (
    Crash,
    Failure,
    LoadRelation,
    MapTask,
    Ok,
    Ping,
    ReduceTask,
    Shutdown,
    StatsRequest,
    TaskDone,
    WorkerStats,
    recv_frame,
    send_frame,
)


class _WorkerState:
    """Everything one shard worker keeps warm between requests."""

    def __init__(self, shard: int) -> None:
        self.shard = shard
        #: relation name -> (version, {global chunk index: resident block}).
        self.relations: Dict[str, Tuple[int, Dict[int, ColumnBlock]]] = {}
        #: Deserialised jobs keyed by their pickle blob (one decode per job
        #: run, not per task).
        self.jobs: Dict[bytes, MapReduceJob] = {}
        self.map_tasks = 0
        self.reduce_tasks = 0
        self.requests = 0

    def job_from_blob(self, blob: bytes) -> MapReduceJob:
        job = self.jobs.get(blob)
        if job is None:
            if len(self.jobs) >= 16:
                self.jobs.clear()
            job = pickle.loads(blob)
            self.jobs[blob] = job
        return job

    def chunk_for(self, task: MapTask) -> ColumnBlock:
        """The rows of one map task: inline payload or resident chunk."""
        if task.payload is not None:
            return decode_payload(task.payload)
        entry = self.relations.get(task.relation)
        if entry is None:
            raise LookupError(
                f"shard {self.shard} has no resident relation {task.relation!r}"
            )
        version, chunks = entry
        if version != task.version:
            raise LookupError(
                f"shard {self.shard} holds {task.relation!r} at version "
                f"{version}, task expects version {task.version}"
            )
        block = chunks.get(task.chunk_index)
        if block is None:
            raise LookupError(
                f"shard {self.shard} does not own chunk {task.chunk_index} "
                f"of {task.relation!r} (resident: {sorted(chunks)})"
            )
        return block

    def stats(self) -> WorkerStats:
        return WorkerStats(
            shard=self.shard,
            pid=os.getpid(),
            resident={
                name: (version, sorted(chunks))
                for name, (version, chunks) in sorted(self.relations.items())
            },
            map_tasks=self.map_tasks,
            reduce_tasks=self.reduce_tasks,
            requests=self.requests,
        )


def run_map_task(state: _WorkerState, task: MapTask) -> TaskDone:
    """Map, combine and size one chunk — the serial engine's exact recipe."""
    start_s = perf_counter() if task.traced else 0.0
    job = state.job_from_blob(task.job_blob)
    block = state.chunk_for(task)
    rows = block.rows()
    if task.payload is not None:
        block.release()  # transient chunk: detach its shm segment (if any)
    buffer: Dict[Key, List[object]] = {}
    for row in rows:
        for key, value in job.map(task.relation, row):
            buffer.setdefault(key, []).append(value)
    pairs: List[Tuple[Key, object]] = []
    intermediate_bytes = 0
    key_bytes: Dict[Key, int] = {}
    for key, values in buffer.items():
        if job.uses_combiner():
            values = job.combine(key, values)
        for value in values:
            pair_size = job.pair_bytes(key, value)
            intermediate_bytes += pair_size
            key_bytes[key] = key_bytes.get(key, 0) + pair_size
            pairs.append((key, value))
    state.map_tasks += 1
    span = (
        worker_payload(
            "map_task",
            start_s,
            perf_counter(),
            shard=state.shard,
            relation=task.relation,
            chunk=task.chunk_index,
            resident=task.payload is None,
            rows=len(rows),
            pairs=len(pairs),
        )
        if task.traced
        else None
    )
    return TaskDone(
        task_id=task.task_id,
        result=(pairs, intermediate_bytes, key_bytes),
        span=span,
    )


def run_reduce_task(state: _WorkerState, task: ReduceTask) -> TaskDone:
    """Reduce every key group of one shuffle partition, in shipped order."""
    start_s = perf_counter() if task.traced else 0.0
    job = state.job_from_blob(task.job_blob)
    facts: List[Tuple[str, Tuple[object, ...]]] = []
    for key, values in task.items:
        facts.extend(job.reduce(key, values))
    state.reduce_tasks += 1
    span = (
        worker_payload(
            "reduce_task",
            start_s,
            perf_counter(),
            shard=state.shard,
            groups=len(task.items),
            facts=len(facts),
        )
        if task.traced
        else None
    )
    return TaskDone(task_id=task.task_id, result=facts, span=span)


def _handle(state: _WorkerState, message: object) -> Optional[object]:
    """One request → one response (``None`` ends the loop after replying)."""
    if isinstance(message, MapTask):
        return run_map_task(state, message)
    if isinstance(message, ReduceTask):
        return run_reduce_task(state, message)
    if isinstance(message, LoadRelation):
        previous = state.relations.get(message.name)
        state.relations[message.name] = (
            message.version,
            {
                index: decode_payload(payload)
                for index, payload in message.chunks.items()
            },
        )
        if previous is not None:
            for block in previous[1].values():
                block.release()  # evicted version: drop its shm attachments
        return Ok(info=len(message.chunks))
    if isinstance(message, Ping):
        return Ok(info={"shard": state.shard, "pid": os.getpid()})
    if isinstance(message, StatsRequest):
        return Ok(info=state.stats())
    raise TypeError(f"shard worker got unknown message {type(message).__name__}")


def worker_main(shard: int, conn: socket.socket) -> None:
    """The worker process entry point: serve framed requests until told to stop.

    :class:`Crash` exits the process *without* replying — the parent's next
    read fails, exercising the death → respawn → retry path deterministically.
    Any other exception is caught and shipped back as a :class:`Failure`, so
    a bad task never kills the shard.
    """
    state = _WorkerState(shard)
    try:
        while True:
            try:
                message = recv_frame(conn)
            except (ConnectionError, OSError):
                break  # parent went away; nothing left to serve
            state.requests += 1
            if isinstance(message, Crash):
                os._exit(17)
            if isinstance(message, Shutdown):
                send_frame(conn, Ok())
                break
            task_id = getattr(message, "task_id", None)
            try:
                response = _handle(state, message)
            except Exception as exc:  # ship the failure, keep serving
                response = Failure(
                    message=f"{type(exc).__name__}: {exc}",
                    traceback=traceback.format_exc(),
                    task_id=task_id,
                )
            try:
                send_frame(conn, response)
            except (ConnectionError, OSError):
                break
    finally:
        for _, chunks in state.relations.values():
            for block in chunks.values():
                try:
                    block.release()
                except Exception:  # pragma: no cover - best-effort detach
                    pass
        state.relations.clear()
        conn.close()
