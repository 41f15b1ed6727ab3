"""Lossless JSON codec for session analysis reports.

The session layer's result objects (:class:`~repro.session.AnalysisReport`,
:class:`~repro.session.AnalysisResult`, :class:`~repro.session.Provenance`,
:class:`~repro.session.NodeProvenance`) were designed as plain data — this
module is where they actually become JSON, and back, without loss:

* **Vertex IDs keep their types.**  Result values are keyed by *external*
  vertex IDs, which may be ints, strings or tuples; a naive ``json.dumps``
  would stringify dict keys and collapse tuples into lists.  Containers are
  therefore encoded *tagged*: every dict becomes ``{"$": "map", "items":
  [[key, value], ...]}`` (key types and insertion order preserved) and every
  tuple becomes ``{"$": "tuple", "items": [...]}``.  Plain JSON arrays are
  reserved for Python lists, so decoding is unambiguous — and because *all*
  dicts are tagged, a result value containing a literal ``"$"`` key can
  never be mistaken for a tag.

* **Floats round-trip bit-identically.**  Python's ``json`` emits
  ``repr(float)`` (shortest round-tripping form) and parses it back with
  ``float()``, so centrality scores decode to exactly the bits the kernel
  produced — the service's cached-vs-fresh bit-identity contract rests on
  this.

``decode_report(encode_report(report))`` reconstructs an equal report;
:func:`dumps` / :func:`loads` add the byte layer (sorted keys, compact
separators) the HTTP front-end ships.
"""

from __future__ import annotations

import json
from typing import Any

from repro.session.report import (
    AnalysisReport,
    AnalysisResult,
    NodeProvenance,
    Provenance,
)

#: scalar types that pass through the codec untouched (JSON natives)
_SCALARS = (bool, int, float, str)


def encode_value(value: Any) -> Any:
    """Lower an algorithm result value (or params dict) to tagged JSON."""
    if value is None or isinstance(value, _SCALARS):
        return value
    if isinstance(value, tuple):
        return {"$": "tuple", "items": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {
            "$": "map",
            "items": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    raise TypeError(f"cannot encode {type(value).__name__} value {value!r} as JSON")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if value is None or isinstance(value, _SCALARS):
        return value
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        tag = value.get("$")
        if tag == "tuple":
            return tuple(decode_value(item) for item in value["items"])
        if tag == "map":
            return {decode_value(k): decode_value(v) for k, v in value["items"]}
        raise ValueError(f"unknown codec tag {tag!r}")
    raise TypeError(f"cannot decode {type(value).__name__} value {value!r}")


# --------------------------------------------------------------------------- #
# report objects
# --------------------------------------------------------------------------- #
def encode_provenance(provenance: Provenance | None) -> dict | None:
    if provenance is None:
        return None
    return {
        "representation": provenance.representation,
        "backend": provenance.backend,
        "snapshot_source": provenance.snapshot_source,
        "parallelism": provenance.parallelism,
        "delta_edges": provenance.delta_edges,
    }


def decode_provenance(data: dict | None) -> Provenance | None:
    if data is None:
        return None
    return Provenance(
        representation=data["representation"],
        backend=data["backend"],
        snapshot_source=data["snapshot_source"],
        parallelism=data["parallelism"],
        # absent in payloads encoded before the delta journal existed
        delta_edges=data.get("delta_edges", 0),
    )


def encode_result(result: AnalysisResult) -> dict:
    return {
        "algorithm": result.algorithm,
        "label": result.label,
        "params": encode_value(result.params),
        "values": encode_value(result.values),
        "seconds": result.seconds,
        "engine": result.engine,
        "provenance": encode_provenance(result.provenance),
        "notes": list(result.notes),
        "scheduled": result.scheduled,
        "nodes": [
            {
                "key": node.key,
                "kind": node.kind,
                "status": node.status,
                "seconds": node.seconds,
            }
            for node in result.nodes
        ],
    }


def decode_result(data: dict) -> AnalysisResult:
    return AnalysisResult(
        algorithm=data["algorithm"],
        label=data["label"],
        params=decode_value(data["params"]),
        values=decode_value(data["values"]),
        seconds=data["seconds"],
        engine=data["engine"],
        provenance=decode_provenance(data["provenance"]),
        notes=tuple(data["notes"]),
        scheduled=data["scheduled"],
        nodes=tuple(
            NodeProvenance(
                key=node["key"],
                kind=node["kind"],
                status=node["status"],
                seconds=node["seconds"],
            )
            for node in data["nodes"]
        ),
    )


def encode_report(report: AnalysisReport) -> dict:
    return {
        "results": [encode_result(result) for result in report.results],
        "provenance": encode_provenance(report.provenance),
        "total_seconds": report.total_seconds,
        "snapshot_builds": report.snapshot_builds,
        "pool_starts": report.pool_starts,
        "snapshot_writes": report.snapshot_writes,
        "nodes_computed": report.nodes_computed,
        "nodes_reused": report.nodes_reused,
        "cache": dict(report.cache) if report.cache is not None else None,
        "journal": dict(report.journal) if report.journal is not None else None,
    }


def decode_report(data: dict) -> AnalysisReport:
    return AnalysisReport(
        results=[decode_result(result) for result in data["results"]],
        provenance=decode_provenance(data["provenance"]),
        total_seconds=data["total_seconds"],
        snapshot_builds=data["snapshot_builds"],
        pool_starts=data["pool_starts"],
        snapshot_writes=data["snapshot_writes"],
        nodes_computed=data["nodes_computed"],
        nodes_reused=data["nodes_reused"],
        cache=dict(data["cache"]) if data.get("cache") is not None else None,
        # absent in payloads encoded before the delta journal existed
        journal=dict(data["journal"]) if data.get("journal") is not None else None,
    )


# --------------------------------------------------------------------------- #
# bytes on the wire
# --------------------------------------------------------------------------- #
def dumps(payload: Any) -> bytes:
    """Serialize an already-encoded payload to compact UTF-8 JSON bytes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def loads(raw: bytes | str) -> Any:
    """Parse wire bytes back into the tagged-JSON structure."""
    return json.loads(raw)
