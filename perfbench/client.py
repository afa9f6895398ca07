"""The one adapter between the benchmark and the client surfaces of ``repro``.

Every workload reaches the program through :func:`open_client`, so a change
of the client API (one entry point instead of ``repro.connect`` plus
``ShardedService``) touches this file only.  The adapter also hosts the
benchmark's self-test fault injection (``wrong-result``, ``shed``), because
it is the boundary where a response leaves the program.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import repro
from repro.core.config import ExecutionConfig
from repro.core.options import GumboOptions
from repro.service.sharded import ShardedService

#: ``serial`` and ``sharded`` are ``repro.connect`` connections (defaults
#: apart from the backend); ``frontend`` is the serving tier as shipped.
SURFACES = ("serial", "sharded", "frontend")
SHARDS = 2

#: With ``inject="wrong-result"`` the N-th answer is corrupted; with
#: ``inject="shed"`` every N-th front-end read is refused by admission.
_WRONG_RESULT_AT = 3
_SHED_EVERY = 10


class Client:
    """One open client: a connection or the front-end, behind one interface."""

    def __init__(self, handle, inject: Optional[str]) -> None:
        self._handle = handle
        self._inject = inject
        self._answers = 0
        self._reads = 0

    @property
    def service(self):
        """The query service under the surface (stats, registry, database)."""
        return self._handle.service

    def execute(self, text: str):
        """Serve one query synchronously (connection surfaces)."""
        return self._handle.execute(text)

    async def read(self, text: str):
        """Serve one query under front-end admission control."""
        self._reads += 1
        if self._inject == "shed" and self._reads % _SHED_EVERY == 0:
            # Admission is checked before the first await, so a zero limit
            # refuses exactly this request through the front-end's shed path.
            saved = self._handle.max_queue
            self._handle.max_queue = -self._handle.max_concurrency
            try:
                return await self._handle.execute(text)
            finally:
                self._handle.max_queue = saved
        return await self._handle.execute(text)

    def materialize(self, text: str):
        """Materialize one query (synchronous on every surface)."""
        return self.service.materialize(text)

    def refresh(self, relation: str, rows: Sequence[tuple]) -> int:
        """Insert *rows* with incremental refresh; returns refreshed count."""
        return len(self.service.add_tuples(relation, rows, incremental=True))

    def answer(self, result) -> Dict[str, frozenset]:
        """A response's outputs as ``name -> frozenset of tuples``."""
        answer = {
            name: frozenset(relation.tuples())
            for name, relation in result.outputs.items()
        }
        self._answers += 1
        if self._inject == "wrong-result" and self._answers == _WRONG_RESULT_AT:
            name = min(answer)
            answer[name] = answer[name] | {("injected-wrong-row",)}
        return answer

    def materialized_answers(self) -> Dict[str, frozenset]:
        """Every materialized output as ``name -> frozenset of tuples``."""
        return {
            name: frozenset(relation.tuples())
            for materialization in self.service.materializations().values()
            for name, relation in materialization.outputs.items()
        }

    def close(self) -> None:
        self._handle.close()


def open_client(
    database, surface: str, trace: bool = False, inject: Optional[str] = None
) -> Client:
    """Open *surface* over *database*; *trace* turns on ``repro.obs`` spans."""
    if surface == "frontend":
        handle = ShardedService.create(
            database, shards=SHARDS, options=GumboOptions(trace=trace)
        )
    elif surface in ("serial", "sharded"):
        handle = repro.connect(
            database,
            config=ExecutionConfig(
                backend=surface,
                shards=SHARDS if surface == "sharded" else None,
                trace=trace,
            ),
        )
    else:
        raise ValueError(f"unknown surface {surface!r}; expected one of {SURFACES}")
    return Client(handle, inject)
