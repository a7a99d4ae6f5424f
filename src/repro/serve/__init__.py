"""Scenario service layer: the ``repro serve`` query daemon.

The paper's payoff is answering countermeasure what-if questions —
"given this network and this (ε1, ε2) policy, how does the rumor evolve
and what does control cost?" — and this package turns that into a
long-running, cache-backed, micro-batched service:

* :mod:`repro.serve.spec` — :class:`ScenarioSpec`, the canonical typed
  description of one run, plus the model-family registry the CLI,
  experiments, and server all build runs through;
* :mod:`repro.serve.hashing` — deterministic canonical JSON and the
  content-address hash (spec-equality ⇒ hash-equality ⇒
  result-equality);
* :mod:`repro.serve.cache` — content-addressed result store (in-memory
  LRU + optional on-disk JSON blobs);
* :mod:`repro.serve.batcher` — micro-batching dispatcher that stacks
  concurrent compatible requests into one
  :class:`~repro.core.batched.BatchedHeterogeneousSIR` integration;
* :mod:`repro.serve.service` — :class:`ScenarioService`, the cache +
  in-flight dedupe + batcher pipeline behind every entry point;
* :mod:`repro.serve.http` — the zero-dependency HTTP daemon
  (``repro serve``): one ``selectors`` loop thread that parses every
  request, answers cache hits and every GET route inline and writes
  each miss's answer when its integration completes, with
  ``/scenario``, ``/presets``, ``/healthz`` and ``/metrics`` endpoints
  and graceful SIGTERM/SIGINT drain.

Protocol and semantics are documented in ``docs/SERVICE.md``.
"""

from repro.serve.cache import ResultCache
from repro.serve.hashing import canonical_json, content_hash
from repro.serve.service import ScenarioResponse, ScenarioService
from repro.serve.spec import (
    CalibrationSpec,
    ControlSpec,
    ModelFamily,
    ScenarioSpec,
    execute_scenario,
    execute_scenario_batch,
    get_family,
    register_family,
    resolve_network,
    scenario_parameters,
)

__all__ = [
    "CalibrationSpec",
    "ControlSpec",
    "ModelFamily",
    "ResultCache",
    "ScenarioResponse",
    "ScenarioService",
    "ScenarioSpec",
    "canonical_json",
    "content_hash",
    "execute_scenario",
    "execute_scenario_batch",
    "get_family",
    "register_family",
    "resolve_network",
    "scenario_parameters",
]
