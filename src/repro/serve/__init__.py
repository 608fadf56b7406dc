"""Exploration-as-a-service: persistent results + async sweep serving.

The explore layer made design-space sweeps cheap; this package makes them
*durable* and *shared*.  It has four moving parts, each usable on its own:

``serve.store``
    :class:`ResultStore` — a content-addressed on-disk result store keyed
    by the explorer's memo keys (design hash × strategy × verify config),
    with atomic JSON-blob writes, schema versioning, corruption quarantine
    and an LRU size cap.  A warm store means a repeated sweep performs
    **zero** simulations (provable via the ``simulator_constructions``
    counter of :data:`repro.obs.metrics.REGISTRY`).

``serve.records``
    The serialization boundary: design/pipeline points and
    :class:`~repro.explore.runner.ExplorationResult`\\ s round-trip through
    plain JSON records, and every record's store key is the SHA-256 of its
    canonical identity payload.

``serve.jobs``
    :class:`JobManager` — the async job model (submitted → sharded →
    running → done/failed): a grid is diffed against the store
    (:func:`diff_points`, the incremental re-sweep), the missing points are
    split into shards, and shards are farmed to a worker-process pool with
    work-stealing dispatch, per-shard timeouts and bounded retry on worker
    death.

``serve.server`` / ``serve.client``
    A thin stdlib HTTP/JSON service (``POST /sweeps``, ``GET /sweeps/<id>``,
    streamed NDJSON events, ``GET /results/<key>`` straight from the store)
    and its urllib client.  ``python -m repro.explore --server URL`` is one
    client of the same API; ``python -m repro.serve`` runs the service.
    Neither is imported by this package: import :class:`SweepServer` from
    ``repro.serve.server`` and :class:`SweepClient` / :class:`ServiceError`
    from ``repro.serve.client``, so code that never speaks HTTP never loads
    the HTTP stack.

See ``docs/exploration.md`` for the operator's guide.
"""

from .jobs import (
    JobManager,
    SearchJob,
    SweepConfig,
    SweepJob,
    diff_points,
    split_shards,
)
from .records import (
    UnstorablePointError,
    exploration_key,
    point_from_dict,
    point_to_dict,
    result_from_record,
    result_to_record,
    verify_key,
    verify_record,
)
from .store import SCHEMA_VERSION, ResultStore

__all__ = [
    "ResultStore",
    "SCHEMA_VERSION",
    "JobManager",
    "SweepConfig",
    "SweepJob",
    "SearchJob",
    "diff_points",
    "split_shards",
    "UnstorablePointError",
    "point_to_dict",
    "point_from_dict",
    "result_to_record",
    "result_from_record",
    "exploration_key",
    "verify_key",
    "verify_record",
]
