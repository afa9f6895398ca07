"""Seeded inputs of the three workloads.

Everything a run feeds the program comes from here and depends only on the
``--seed`` argument: the databases, the order of the batch mix, the hot set
of the serving workload, its Zipf read picks and its write batches.  The
program under test receives only these generated inputs.
"""

from __future__ import annotations

import bisect
import random
import re
from typing import Dict, List, Tuple

from repro.model.database import Database
from repro.query.unparse import unparse_sgf
from repro.workloads.queries import database_for, workload_query

#: The Section 5 queries of the batch mix (one of each per round).
BATCH_QUERY_IDS = ("A1", "A3", "B1", "B2", "C1")
BATCH_GUARD_TUPLES = 4000

#: The serving workload: A3's schema (guard R, conditionals S, T, U, V).
SERVE_GUARD_TUPLES = 2000
HOT_SET_SIZE = 8
ZIPF_EXPONENT = 1.1
WRITE_ROWS = 4
WRITE_RELATIONS = ("R", "S", "T", "U", "V")
_CONDITIONALS = ("S", "T", "U", "V")

#: Request suffixes have one width, so byte-size accounting (and with it
#: every simulated metric and counter) is identical for every request of
#: the same base query.
_SUFFIX_DIGITS = 6


def batch_database(seed: int) -> Database:
    """One database covering the union schema of the batch mix."""
    subqueries = [
        sub for qid in BATCH_QUERY_IDS for sub in workload_query(qid).subqueries
    ]
    return database_for(subqueries, guard_tuples=BATCH_GUARD_TUPLES, seed=seed)


class BatchMix:
    """The batch queries as text, renamed per request.

    Each request gets a fresh output suffix, so its text and plan-cache key
    are new, as an ad-hoc query's would be.
    """

    def __init__(self, seed: int) -> None:
        self.queries = {qid: workload_query(qid) for qid in BATCH_QUERY_IDS}
        self._texts = {qid: unparse_sgf(q) for qid, q in self.queries.items()}
        self._patterns = {
            qid: re.compile(
                r"\b(%s)\b(?=\s*(?:\(|:=))" % "|".join(q.output_names)
            )
            for qid, q in self.queries.items()
        }
        self._rng = random.Random(seed)

    def next_round(self) -> List[str]:
        """The query ids of one round: every query once, in seeded order."""
        return self._rng.sample(BATCH_QUERY_IDS, len(BATCH_QUERY_IDS))

    @staticmethod
    def suffix(tag: str, index: int) -> str:
        return f"_{tag}{index:0{_SUFFIX_DIGITS}d}"

    def text(self, qid: str, suffix: str) -> str:
        """Query *qid* with every output renamed to ``<name><suffix>``."""
        return self._patterns[qid].sub(
            lambda match: match.group(1) + suffix, self._texts[qid]
        )


def serve_database(seed: int) -> Database:
    return database_for(
        workload_query("A3"), guard_tuples=SERVE_GUARD_TUPLES, seed=seed
    )


def hot_set(seed: int) -> List[str]:
    """Eight distinct Boolean queries over A3's schema.

    Each query combines the four conditionals on the guard's key ``x`` (A3's
    key sharing) as ``(a AND b) OR (c AND d)`` or ``(a OR b) AND (c OR d)``,
    in seeded atom order, with every atom negated or none.  A3's generated
    conditionals hold the same keys, so a query with mixed signs could keep
    none or all of the guard; these each keep about half, so what a read
    costs, and the simulated metrics summed over the set, hardly depend on
    the seed.
    """
    rng = random.Random(seed)
    conditions: List[str] = []
    while len(conditions) < HOT_SET_SIZE:
        sign = rng.choice(("", "NOT "))
        a, b, c, d = (
            f"{sign}{name}(x)"
            for name in rng.sample(_CONDITIONALS, len(_CONDITIONALS))
        )
        inner, outer = rng.choice((("AND", "OR"), ("OR", "AND")))
        condition = f"({a} {inner} {b}) {outer} ({c} {inner} {d})"
        if condition not in conditions:
            conditions.append(condition)
    return [
        f"H{index} := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE {condition};"
        for index, condition in enumerate(conditions)
    ]


class ZipfPicker:
    """Seeded Zipf-skewed picks over the hot set (rank 0 is hottest)."""

    def __init__(self, seed: int, size: int = HOT_SET_SIZE) -> None:
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(size)]
        total = sum(weights)
        running, self._cumulative = 0.0, []
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)
        self._rng = random.Random(seed)

    def pick(self) -> int:
        index = bisect.bisect_left(self._cumulative, self._rng.random())
        return min(index, len(self._cumulative) - 1)


class WriteStream:
    """Seeded insert batches of fresh rows into a guard or conditional.

    Target relations come in rounds, each a seeded order of R, S, T, U, V,
    so every run inserts into the (costlier to refresh) guard equally often.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._targets: List[str] = []

    def next_batch(
        self, database: Database
    ) -> Tuple[str, List[Tuple[int, ...]]]:
        """The next ``(relation, rows)`` batch; rows are absent from *database*.

        Conditional rows take guard keys the conditional lacks, so each one
        flips the materialized outputs for its key, and every batch brings
        a like amount of refresh work.  Guard rows reuse existing keys.
        """
        if not self._targets:
            self._targets = self._rng.sample(WRITE_RELATIONS, len(WRITE_RELATIONS))
        relation = self._targets.pop()
        existing = database[relation].tuples()
        keys = sorted({row[0] for row in database["R"].tuples()})
        if relation != "R":
            absent = [key for key in keys if (key,) not in existing]
            return relation, [(key,) for key in self._rng.sample(absent, WRITE_ROWS)]
        span = keys[-1] + 1
        rows: List[Tuple[int, ...]] = []
        while len(rows) < WRITE_ROWS:
            row = (self._rng.choice(keys),) + tuple(
                self._rng.randrange(span) for _ in range(3)
            )
            if row not in existing and row not in rows:
                rows.append(row)
        return relation, rows


def answers(outputs: Dict[str, object]) -> Dict[str, frozenset]:
    """Output relations as ``name -> frozenset of tuples``."""
    return {name: frozenset(relation.tuples()) for name, relation in outputs.items()}
