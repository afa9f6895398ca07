"""The ``"parallel"`` backend name, served by the shard cluster.

:class:`ParallelBackend` is
:class:`~repro.service.sharded.backend.ShardedBackend` under another name:
the same long-lived worker processes, the same RPC transport, the same
fan-out code and the same map/reduce task code
(:mod:`repro.service.sharded.worker`).  The only differences are the
backend name stamped on metrics and traces and the sizing knob: ``workers``
(default: the machine's CPU count) becomes the shard count.

Like ``"sharded"``, it keeps the base relations of a database resident on
its workers across runs, so repeated runs over one database ship nothing.
Outputs and simulated Hadoop metrics are bit-identical to
:class:`~repro.exec.simulated.SimulatedBackend`; only the measured
wall-clock metrics differ.
"""

from __future__ import annotations

import os
from typing import Optional

from ..mapreduce.engine import MapReduceEngine
from ..service.sharded.backend import ShardedBackend
from .base import PARALLEL


class ParallelBackend(ShardedBackend):
    """The shard cluster sized by a worker count.

    Parameters
    ----------
    engine:
        The engine supplying cluster config, constants and the simulated
        metric accounting (paper-cluster default when omitted).
    workers:
        Worker processes (one shard each); defaults to the machine's CPU
        count.  The workers start lazily on first use and are reused across
        jobs and runs; call :meth:`close` (or use the backend as a context
        manager) to stop them.
    data_plane:
        How chunk payloads cross the process boundary (``"shm"``/
        ``"pickle"``/``"auto"``, see :mod:`repro.exec.shm`).  Outputs and
        simulated metrics are bit-identical on every plane.
    """

    name = PARALLEL

    def __init__(
        self,
        engine: Optional[MapReduceEngine] = None,
        workers: Optional[int] = None,
        data_plane: Optional[str] = None,
    ) -> None:
        self.workers = max(1, int(workers or os.cpu_count() or 1))
        super().__init__(engine, shards=self.workers, data_plane=data_plane)

    def __repr__(self) -> str:
        return f"ParallelBackend(workers={self.workers})"
