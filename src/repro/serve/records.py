"""The serialization boundary between sweeps and the persistent store.

Everything the store holds is a plain-JSON *record* with a common envelope
(``schema``, ``kind``, ``key``) and a kind-specific payload.  This module
owns both directions:

* **identity → key**: a record's store key is the SHA-256 hex digest of a
  canonical JSON payload naming exactly what the cached computation
  depended on — the point's structural configuration, the resolved settle
  strategy and the verification configuration.  Same inputs, same key, on
  any machine; the explorer's in-process memo uses the same keys
  (:meth:`repro.serve.jobs.SweepConfig.key_for`).
* **object ↔ record**: design/pipeline points and
  :class:`~repro.explore.runner.ExplorationResult`\\ s round-trip through
  dicts, so worker processes, the HTTP service and the store all speak one
  format.  Verification sessions get the same treatment
  (:func:`verify_record`), which is what makes ``python -m repro.verify
  --store`` incremental.

Only point families this module knows how to *rebuild* are storable; a
point without a registered family raises :class:`UnstorablePointError`.
A new point family registers in :func:`point_to_dict` and
:func:`point_from_dict`, as :class:`~repro.flow.sweep.PipelinePoint` does.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Dict, Optional

from ..explore.grid import DesignPoint
from ..explore.runner import ExplorationResult
from ..flow.sweep import PipelinePoint
from .store import SCHEMA_VERSION


class UnstorablePointError(TypeError):
    """The point's family is unknown, so its results cannot be persisted."""


#: Scalar fields of :class:`ExplorationResult` that round-trip through the
#: record payload (everything except the point, which is stored separately).
RESULT_FIELDS = (
    "cycles", "outputs", "throughput", "ffs", "luts", "brams",
    "fmax_mhz", "power_mw", "verified", "coverage_pct",
    "coverage_violations",
)


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

def point_to_dict(point) -> Dict[str, object]:
    """A point as a JSON-safe dict tagged with its rebuildable family."""
    if isinstance(point, DesignPoint):
        return {"family": "design", **asdict(point)}
    if isinstance(point, PipelinePoint):
        return {"family": "pipeline", **asdict(point)}
    raise UnstorablePointError(
        f"point type {type(point).__name__} has no registered record "
        f"family (see repro.serve.records)")


def point_from_dict(data: Dict[str, object]):
    """Rebuild the concrete point a record describes."""
    fields = dict(data)
    family = fields.pop("family", None)
    if family == "design":
        return DesignPoint(**fields)
    if family == "pipeline":
        return PipelinePoint(**fields)
    raise UnstorablePointError(f"unknown point family {family!r}")


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

def _digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def exploration_config(strategy: str, verify: bool, verify_seed: int,
                       verify_cycles: int) -> Dict[str, object]:
    """Canonical config block entering exploration keys and records."""
    return {
        "strategy": str(strategy),
        "verify": bool(verify),
        "verify_seed": int(verify_seed),
        "verify_cycles": int(verify_cycles),
    }


def exploration_key(point, strategy: str, verify: bool,
                    verify_seed: int, verify_cycles: int) -> str:
    """Store key for one (point × strategy × verify config) identity."""
    payload = {
        "kind": "exploration",
        "point": point_to_dict(point),
        "config": exploration_config(strategy, verify, verify_seed,
                                     verify_cycles),
    }
    return _digest(payload)


def verify_key(target: str, seed: int, cycles: int, strategy: str) -> str:
    """Store key for one constrained-random verification session.

    ``cycles`` must be the *resolved* budget (the CLI's ``--cycles`` or the
    target's registered default), never ``None`` — two spellings of the
    same session must land on one key.
    """
    payload = {
        "kind": "verify",
        "target": str(target),
        "seed": int(seed),
        "cycles": int(cycles),
        "strategy": str(strategy),
    }
    return _digest(payload)


# ---------------------------------------------------------------------------
# Exploration records
# ---------------------------------------------------------------------------

def result_to_record(result: ExplorationResult, key: str,
                     config: Dict[str, object]) -> Dict[str, object]:
    """Wrap one exploration result in the store's record envelope."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "exploration",
        "key": key,
        "config": dict(config),
        "point": point_to_dict(result.point),
        "result": {name: getattr(result, name) for name in RESULT_FIELDS},
    }


def result_from_record(record: Dict[str, object]) -> ExplorationResult:
    """Rebuild the :class:`ExplorationResult` a record carries.

    The rebuilt object is indistinguishable from a freshly simulated one —
    same report row, same sort position, same verification verdict — which
    is exactly the cache-correctness claim the round-trip tests pin.
    """
    payload = record["result"]
    return ExplorationResult(
        point=point_from_dict(record["point"]),
        **{name: payload[name] for name in RESULT_FIELDS})


# ---------------------------------------------------------------------------
# Verification records
# ---------------------------------------------------------------------------

def verify_record(result, key: str) -> Dict[str, object]:
    """Wrap a :class:`~repro.verify.session.VerifyResult` for the store.

    The record keeps the covergroup's merged-dict form (the
    :class:`~repro.verify.coverage.CoverageDB` exchange format), the
    violation texts and the summary scalars — everything the CLI needs to
    reprint a session and regate ``--min-coverage`` without re-simulating.
    """
    return {
        "schema": SCHEMA_VERSION,
        "kind": "verify",
        "key": key,
        "config": {
            "target": result.target,
            "seed": result.seed,
            "cycles": result.cycles,
            "strategy": result.strategy,
        },
        "result": {
            "ok": result.ok,
            "coverage_percent": result.coverage_percent,
            "transactions": result.transactions,
            "violations": [str(v) for v in result.violations],
            "coverage_group": result.coverage.to_dict(),
        },
    }


def verify_summary_line(record: Dict[str, object],
                        suffix: str = "  [store]") -> str:
    """A :meth:`VerifyResult.summary`-shaped line for a cached session."""
    config = record["config"]
    payload = record["result"]
    status = ("ok" if payload["ok"]
              else f"{len(payload['violations'])} VIOLATION(S)")
    return (f"{config['target']:<24} seed={config['seed']:<3} "
            f"cycles={config['cycles']:<6} "
            f"cov={payload['coverage_percent']:5.1f}% "
            f"tx={payload['transactions']:<5} {status}{suffix}")


def record_matches(record: Optional[dict], kind: str) -> bool:
    """Envelope sanity check callers run on anything read from the store."""
    return (isinstance(record, dict) and record.get("kind") == kind
            and isinstance(record.get("result"), dict))
