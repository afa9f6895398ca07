"""The multi-process execution backend: persistent workers, warm shards.

:class:`ShardedBackend` plugs the shard cluster into the execution-backend
seam.  It is the repo's one multi-process runtime: the ``"sharded"`` name
and the ``"parallel"`` name (:class:`~repro.exec.parallel.ParallelBackend`,
a subclass sized by ``workers``) both run here.  Chunk ``i`` of relation
``R`` permanently belongs to shard ``shard_for_chunk("R", i, shards)``
(a pure function of :func:`~repro.exec.partition.stable_hash`), the owning
worker keeps the chunk's :class:`~repro.model.relation.ColumnBlock` resident
across requests, and a map task names ``(relation, chunk, version)`` instead
of carrying rows.  Reduce buckets are placed the same way by bucket index.

Bit-identical parity with the serial reference is inherited, not re-proven:
the chunk boundaries are the serial engine's own strided chunks, the
map/combine/byte arithmetic on the worker is the serial engine's recipe,
results merge in task order, the shuffle sorts and partitions with the
shared helpers, programs run through the engine's own level loop, and all
simulated metrics funnel through
:meth:`~repro.mapreduce.engine.MapReduceEngine.finalise_job_metrics`.  Only
wall-clock metrics (and which process computed what) differ.

Warm-shard detection is copy-on-write identity: a relation's cached column
block survives :meth:`Database.copy`, so ``resident token is
relation.columns()`` means "these exact rows are already on the workers" —
repeated service requests over one database ship nothing, while any
mutation changes the block and forces a re-ship.  Relations that exist only
*inside* one program run (intermediates of later levels) are shipped inline
with their tasks and never become resident.

Both resident loads and inline payloads travel over the configured *data
plane* (:mod:`repro.exec.shm`): on the shm plane the RPC frames carry tiny
segment descriptors instead of pickled rows, and a respawned worker's
resident reload re-attaches the cluster-owned segments instead of
re-shipping them.
"""

from __future__ import annotations

import pickle
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ...exec.base import SHARDED, ExecutionBackend
from ...exec.partition import partition_index
from ...exec.shm import (
    SegmentPool,
    encode_block,
    normalise_data_plane,
    payload_segment,
)
from ...mapreduce.counters import PartitionMetrics, WallClockMetrics
from ...mapreduce.engine import (
    JobResult,
    MapReduceEngine,
    ProgramResult,
    add_output_fact,
    prepare_output_relations,
)
from ...mapreduce.job import Key, MapReduceJob
from ...mapreduce.kernels import use_kernel
from ...mapreduce.program import MRProgram
from ...model.database import Database
from ...model.relation import Relation, tuple_sort_key
from ...obs import metrics as obs_metrics
from ... import obs
from .cluster import ShardCluster
from .routing import shard_for_bucket, shard_for_chunk
from .rpc import MapTask, ReduceTask, TaskDone

_MB = 1024.0 * 1024.0

#: Jobs run through the worker fan-out (kernel-path jobs are counted by the
#: engine as ``path="kernel"``).
_JOBS_FANOUT = obs_metrics.default_registry().counter(
    "repro_jobs_total", path="fanout"
)


class ShardedBackend(ExecutionBackend):
    """Execute MR jobs on a persistent, hash-sharded worker cluster.

    Parameters
    ----------
    engine:
        The engine supplying cluster config, constants and the simulated
        metric accounting (paper-cluster default when omitted).
    shards:
        Number of long-lived worker processes (default 2).  This is a
        *placement* parameter: outputs and simulated metrics are identical
        for every value, but which worker holds which chunk — and therefore
        what stays warm — follows from it.
    cluster:
        An existing :class:`ShardCluster` to drive (it is then *not* owned:
        :meth:`close` leaves it running).  Mutually exclusive sizing with
        *shards*.
    data_plane:
        How chunk payloads cross the RPC boundary (``"shm"``/``"pickle"``/
        ``"auto"``, see :mod:`repro.exec.shm`).  With an external *cluster*
        the cluster's plane governs; passing a conflicting value raises.
    """

    name = SHARDED

    def __init__(
        self,
        engine: Optional[MapReduceEngine] = None,
        shards: Optional[int] = None,
        cluster: Optional[ShardCluster] = None,
        data_plane: Optional[str] = None,
    ) -> None:
        self.engine = engine or MapReduceEngine()
        if cluster is not None:
            if shards is not None and shards != cluster.shards:
                raise ValueError(
                    f"cluster has {cluster.shards} shards, shards={shards} given"
                )
            if (
                data_plane is not None
                and normalise_data_plane(data_plane) != cluster.data_plane
            ):
                raise ValueError(
                    f"cluster uses the {cluster.data_plane!r} data plane, "
                    f"data_plane={data_plane!r} given"
                )
            self._cluster = cluster
            self._owns_cluster = False
        else:
            self._cluster = ShardCluster(
                shards if shards is not None else 2,
                data_plane=normalise_data_plane(data_plane),
            )
            self._owns_cluster = True
        self.shards = self._cluster.shards
        self.data_plane = self._cluster.data_plane
        #: Shipping pool for *inline* task payloads (program intermediates);
        #: resident chunks live in the cluster's own pool.
        self._segments = SegmentPool()

    @property
    def cluster(self) -> ShardCluster:
        """The worker cluster (exposed for supervision and tests)."""
        return self._cluster

    def close(self) -> None:
        """Shut the owned cluster down (idempotent; a later run restarts it)."""
        if self._owns_cluster:
            self._cluster.close()
        self._segments.close_all()

    # -- shard loading ------------------------------------------------------------

    def ensure_loaded(self, database: Database) -> int:
        """Make every non-empty relation of *database* resident on its shards.

        Relations whose column block is already resident (identity check,
        safe across copy-on-write copies) cost nothing; changed or new ones
        are re-chunked with the engine's own mapper arithmetic and shipped.
        Returns the number of relations (re-)shipped.
        """
        shipped = 0
        for relation in database:
            if len(relation) == 0:
                continue  # empty chunks are synthesised locally, no shipping
            block = relation.columns()
            if self._cluster.resident_info(relation.name, block) is not None:
                continue
            mappers = self.engine.mappers_for(relation.size_mb())
            chunks = relation.column_chunks(mappers)
            self._cluster.load_relation(relation.name, chunks, token=block)
            shipped += 1
        return shipped

    # -- single job ---------------------------------------------------------------

    def run_job(self, job: MapReduceJob, database: Database) -> JobResult:
        """Execute one MapReduce job across the shard workers.

        ``kernel_mode="on"`` jobs run through the engine's in-process batch
        kernel instead of fanning out (the kernel is a single-process set
        algorithm and beats the fan-out by a wide margin); ``"auto"`` keeps
        the fan-out.  Outputs and simulated metrics are identical either way.
        """
        if use_kernel(job, fanout=True):
            start = perf_counter()
            result = self.engine.run_job_kernel(job, database)
            result.metrics.wall = WallClockMetrics(
                backend=self.name,
                workers=self.shards,
                elapsed_s=perf_counter() - start,
            )
            return result
        _JOBS_FANOUT.inc()
        with obs.span(
            "job", job_id=job.job_id, kind=type(job).__name__, path="fanout"
        ) as job_span:
            start = perf_counter()
            wall = WallClockMetrics(backend=self.name, workers=self.shards)
            job_blob = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
            groups, key_bytes, partition_metrics = self._map_phase(
                job, job_blob, database, wall
            )
            input_mb = sum(p.input_mb for p in partition_metrics)
            intermediate_mb = sum(p.intermediate_mb for p in partition_metrics)
            reducers = self.engine.reducers_for(job, input_mb, intermediate_mb)
            outputs = self._reduce_phase(job, job_blob, groups, reducers, wall)
            metrics = self.engine.finalise_job_metrics(
                job, partition_metrics, key_bytes, outputs
            )
            wall.elapsed_s = perf_counter() - start
            metrics.wall = wall
            job_span.set(reducers=reducers, shards=self.shards)
            return JobResult(job_id=job.job_id, outputs=outputs, metrics=metrics)

    def _dispatch(
        self, phase: str, tasks: List[Tuple[int, object]], wall: WallClockMetrics
    ) -> List[TaskDone]:
        """Fan one phase's tasks out to their shards as one wave.

        Worker-side span payloads are re-parented under the ``wave`` span,
        so the trace shows which worker process ran which task.
        """
        if not tasks:
            return []
        tracer = obs.current_tracer()
        begin = perf_counter()
        with obs.span(
            "wave", phase=phase, tasks=len(tasks), shards=self.shards
        ) as wave_span:
            responses = self._cluster.run_tasks(tasks)
            if tracer is not None:
                for response in responses:
                    if response.span is not None:
                        tracer.adopt_payload(response.span, wave_span.span_id)
        wall.record_wave(phase, len(tasks), perf_counter() - begin)
        return responses

    def _map_phase(
        self,
        job: MapReduceJob,
        job_blob: bytes,
        database: Database,
        wall: WallClockMetrics,
    ):
        """Fan the job's map chunks out to their owning shards, merge the shuffle.

        Chunk boundaries, task order and the merge order are exactly the
        serial engine's; resident chunks travel as ``(relation, chunk,
        version)`` references, others inline with their task.  Empty chunks
        (missing or empty input relations) produce no pairs by definition and
        are synthesised locally instead of crossing the wire.
        """
        traced = obs.tracing_enabled()
        parts: List[Tuple[str, float, int, int]] = []
        tasks: List[Tuple[int, object]] = []
        inline_segments: List[str] = []
        #: task_id -> part index, for remote tasks; local empties are merged
        #: directly (they contribute nothing, but keep the accounting exact).
        task_parts: Dict[int, int] = {}
        task_id = 0
        for relation_name in job.input_relations():
            relation = database.get(relation_name)
            input_records = len(relation) if relation is not None else 0
            input_mb = relation.size_mb() if relation is not None else 0.0
            mappers = self.engine.mappers_for(input_mb)
            part_index = len(parts)
            resident = (
                self._cluster.resident_info(relation_name, relation.columns())
                if relation is not None and input_records
                else None
            )
            if resident is not None:
                version, chunk_count = resident
                for index in range(chunk_count):
                    task_parts[task_id] = part_index
                    tasks.append(
                        (
                            shard_for_chunk(relation_name, index, self.shards),
                            MapTask(
                                task_id=task_id,
                                job_blob=job_blob,
                                relation=relation_name,
                                chunk_index=index,
                                version=version,
                                traced=traced,
                            ),
                        )
                    )
                    task_id += 1
            elif input_records:
                chunks = relation.column_chunks(mappers)
                for index, chunk in enumerate(chunks):
                    task_parts[task_id] = part_index
                    payload = encode_block(chunk, self._segments, self.data_plane)
                    segment = payload_segment(payload)
                    if segment is not None:
                        inline_segments.append(segment)
                    tasks.append(
                        (
                            shard_for_chunk(relation_name, index, self.shards),
                            MapTask(
                                task_id=task_id,
                                job_blob=job_blob,
                                relation=relation_name,
                                chunk_index=index,
                                payload=payload,
                                traced=traced,
                            ),
                        )
                    )
                    task_id += 1
            # Missing or empty relation: the serial engine still accounts one
            # mapper over zero rows; zero rows emit zero pairs, so the single
            # empty chunk needs no task at all.
            parts.append((relation_name, input_mb, input_records, mappers))

        try:
            # run_tasks handles the death → respawn → retry-once contract
            # internally, so segments may be freed as soon as it returns.
            responses = self._dispatch("map", tasks, wall)
        finally:
            for segment in inline_segments:
                self._segments.release(segment)

        groups: Dict[Key, List[object]] = defaultdict(list)
        key_bytes: Counter = Counter()
        part_bytes = [0] * len(parts)
        part_records = [0] * len(parts)
        # Merge in task order: chunks of the first relation first, then the
        # next relation's, exactly the order the serial engine processes them
        # (run_tasks returns responses sorted by task_id).
        for response in responses:
            pairs, chunk_bytes, chunk_key_bytes = response.result
            part_index = task_parts[response.task_id]
            part_bytes[part_index] += chunk_bytes
            part_records[part_index] += len(pairs)
            for key, value in pairs:
                groups[key].append(value)
            key_bytes.update(chunk_key_bytes)

        partition_metrics = [
            PartitionMetrics(
                relation=relation_name,
                input_mb=input_mb,
                input_records=input_records,
                intermediate_mb=part_bytes[index] / _MB,
                output_records=part_records[index],
                mappers=mappers,
            )
            for index, (relation_name, input_mb, input_records, mappers) in enumerate(
                parts
            )
        ]
        return groups, key_bytes, partition_metrics

    def _reduce_phase(
        self,
        job: MapReduceJob,
        job_blob: bytes,
        groups: Dict[Key, List[object]],
        reducers: int,
        wall: WallClockMetrics,
    ) -> Dict[str, Relation]:
        """Hash-partition the key groups and reduce each bucket on its shard."""
        buckets: List[List[Tuple[Key, List[object]]]] = [
            [] for _ in range(max(1, reducers))
        ]
        for key in sorted(groups, key=tuple_sort_key):
            buckets[partition_index(key, len(buckets))].append((key, groups[key]))
        traced = obs.tracing_enabled()
        tasks: List[Tuple[int, object]] = [
            (
                shard_for_bucket(bucket_index, self.shards),
                ReduceTask(
                    task_id=task_id,
                    job_blob=job_blob,
                    items=bucket,
                    traced=traced,
                ),
            )
            for task_id, (bucket_index, bucket) in enumerate(
                (index, bucket)
                for index, bucket in enumerate(buckets)
                if bucket
            )
        ]

        outputs = prepare_output_relations(job)
        for response in self._dispatch("reduce", tasks, wall):
            for relation_name, row in response.result:
                add_output_fact(job, outputs, relation_name, row)
        return outputs

    # -- programs -----------------------------------------------------------------

    def run_program(self, program: MRProgram, database: Database) -> ProgramResult:
        """Execute an MR program level by level on the engine's level loop.

        The base database is made resident up front (free when the workers
        are already warm from a previous request over the same data);
        intermediates produced between levels ship inline with their tasks.
        """
        start = perf_counter()
        with obs.span("ship") as ship_span:
            ship_span.set(relations=self.ensure_loaded(database))
        result = self.engine.run_program(program, database, _run_job=self.run_job)
        result.metrics.backend = self.name
        result.metrics.wall_elapsed_s = perf_counter() - start
        return result

    def __repr__(self) -> str:
        return f"ShardedBackend(shards={self.shards})"
