"""Event schema of the run-manifest JSONL stream, with validators.

A run manifest is a JSON-Lines file: one JSON object per line, each an
*event* with at least a ``type`` (one of :data:`EVENT_TYPES`) and ``t``
(seconds since the manifest opened, monotonic clock).  The stream is
framed by a ``manifest_start`` event (first line, carrying the schema
identifier :data:`OBS_SCHEMA`) and a ``manifest_end`` event (last line,
carrying the event count and the final metrics snapshot).

The schema is deliberately closed: :func:`validate_event` rejects
unknown event types and missing required fields, so the CI smoke step
(and :func:`validate_manifest`) fails loudly when an emitter drifts
from the documented contract instead of silently producing an
unreadable trace.  Field semantics are documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from repro.exceptions import ParameterError

__all__ = [
    "OBS_SCHEMA",
    "OBS_SCHEMA_V1",
    "OBS_SCHEMA_V2",
    "SUPPORTED_SCHEMAS",
    "EVENT_TYPES",
    "V2_EVENT_TYPES",
    "V3_EVENT_TYPES",
    "REQUIRED_FIELDS",
    "disallowed_event_types",
    "validate_event",
    "validate_manifest",
]

#: Schema identifier written into every ``manifest_start`` event.
#: Each version extends the previous one additively: ``repro-obs/2``
#: added the opt-in resource-profiling event types (``resource``,
#: ``profile``); ``repro-obs/3`` adds the live-health event types
#: (``health``, ``slo``).  Every older manifest is also a valid newer
#: manifest.
OBS_SCHEMA = "repro-obs/3"

#: Older schema identifiers; still accepted by the validators.
OBS_SCHEMA_V1 = "repro-obs/1"
OBS_SCHEMA_V2 = "repro-obs/2"

#: Schema identifiers :func:`validate_manifest` accepts.
SUPPORTED_SCHEMAS = frozenset({OBS_SCHEMA_V1, OBS_SCHEMA_V2, OBS_SCHEMA})

#: Required fields per event type (beyond the universal ``type``/``t``).
REQUIRED_FIELDS: dict[str, tuple[str, ...]] = {
    # Stream framing.
    "manifest_start": ("schema", "created_utc", "run"),
    "manifest_end": ("events", "wall_seconds", "metrics"),
    # Generic instruments.
    "span": ("name", "seconds"),
    "log": ("level", "event", "fields"),
    # Solver telemetry (scalar and batched integrators).
    "solver": ("solver", "dim", "nfev", "accepted", "rejected",
               "wall_seconds"),
    # FBSM iteration trace (control/pontryagin.py).
    "fbsm_iteration": ("iteration", "cost", "control_change",
                       "forward_seconds", "backward_seconds"),
    # Sweep/ensemble progress (repro.parallel executors).
    "task": ("name", "index", "seconds", "ok"),
    "worker": ("worker", "chunk", "tasks", "busy_seconds"),
    "progress_summary": ("name", "tasks", "errors", "wall_seconds",
                         "workers", "utilization", "slowest"),
    # Experiment run manifests (experiments.runner).
    "run_start": ("experiment",),
    "run_end": ("experiment", "summary", "artifacts", "seconds"),
    # Opt-in resource profiling (repro-obs/2; repro.obs.resources).
    "resource": ("name", "seconds", "tracemalloc_peak_bytes",
                 "ru_maxrss_kb"),
    "profile": ("name", "seconds", "top"),
    # Live numerical-health watchdogs (repro-obs/3; repro.obs.health).
    "health": ("check", "severity"),
    # Sliding-window serve SLO snapshots (repro-obs/3; repro.obs.slo).
    "slo": ("window_seconds", "requests"),
}

#: The closed set of event types a manifest may contain.
EVENT_TYPES = frozenset(REQUIRED_FIELDS)

#: Event types introduced by ``repro-obs/2``; invalid in a ``repro-obs/1``
#: manifest.
V2_EVENT_TYPES = frozenset({"resource", "profile"})

#: Event types introduced by ``repro-obs/3``; invalid in older manifests.
V3_EVENT_TYPES = frozenset({"health", "slo"})

#: Event types each schema version may NOT contain (additive versioning:
#: newer versions only ever remove entries from this map's sets).
_DISALLOWED_BY_SCHEMA: dict[str, frozenset[str]] = {
    OBS_SCHEMA_V1: V2_EVENT_TYPES | V3_EVENT_TYPES,
    OBS_SCHEMA_V2: V3_EVENT_TYPES,
    OBS_SCHEMA: frozenset(),
}


def disallowed_event_types(schema: str,
                           events: "list[dict[str, object]]") -> list[str]:
    """Event types present in ``events`` but newer than ``schema``."""
    banned = _DISALLOWED_BY_SCHEMA.get(str(schema), frozenset())
    return sorted({str(e["type"]) for e in events if e["type"] in banned})


def validate_event(event: Mapping[str, object]) -> None:
    """Check one event against the schema; raise ``ParameterError`` if bad."""
    event_type = event.get("type")
    if event_type not in EVENT_TYPES:
        raise ParameterError(
            f"unknown event type {event_type!r}; known types: "
            f"{sorted(EVENT_TYPES)}")
    if "t" not in event:
        raise ParameterError(f"event {event_type!r} is missing field 't'")
    missing = [field for field in REQUIRED_FIELDS[event_type]
               if field not in event]
    if missing:
        raise ParameterError(
            f"event {event_type!r} is missing required fields {missing}")


def validate_manifest(path: str | Path) -> list[dict[str, object]]:
    """Load and fully validate a manifest; return its events.

    Checks, in order: the file parses as JSONL, every event validates
    against :data:`REQUIRED_FIELDS` (unknown types fail), the first
    event is a ``manifest_start`` carrying a supported schema
    (``repro-obs/1``, ``/2`` or ``/3``), no event type is newer than the
    declared schema version, and the last event is a ``manifest_end``
    whose ``events`` count matches the stream.  This is
    :func:`repro.obs.reader.load_manifest` with ``strict=True``, the
    check the CI observability smoke step runs against a real
    ``--trace-out`` run.
    """
    from repro.obs.reader import load_manifest  # the reader imports us

    return load_manifest(path, strict=True).events
