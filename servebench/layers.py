"""Per-layer report of a traced run.

Combines three sources, all restricted to the timed phases:

* the spans ``traced_serve.py`` wrote (busy time per layer);
* deltas of the daemon's own ``/metrics`` counters across the timed
  phases (solver steps and evaluations, cache hits, batch sizes, FBSM
  iterations);
* the generator's records (round trips, the daemon's ``seconds`` field,
  response sizes, its own lateness and CPU).

The FBSM figures come from every control solve the daemon made after
the timed phases began: a ``control_plans`` run's own, or the control
probe a ``fresh_digg`` traced run sends after its timed phases.  A
metric that does not apply to a workload (FBSM figures on
``hot_replay``, say) is reported as 0.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from stats import percentile

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("http.overhead_ms_p50", "ms", "lower"),
    ("http.overhead_ms_p90", "ms", "lower"),
    ("http.response_kb", "kB", "lower"),
    ("spec.parse_us", "us", "lower"),
    ("spec.hash_us", "us", "lower"),
    ("spec.hash_calls_per_request", "count", "lower"),
    ("cache.get_us", "us", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.put_us", "us", "lower"),
    ("cache.evictions", "count", "lower"),
    ("service.seconds_p50", "ms", "lower"),
    ("batcher.wait_ms_p50", "ms", "lower"),
    ("batcher.rows_per_batch", "count", "higher"),
    ("batcher.stacked_ratio", "ratio", "higher"),
    ("family.busy_ms_per_request", "ms", "lower"),
    ("family.result_ms_per_request", "ms", "lower"),
    ("solver.nfev_per_request", "count", "lower"),
    ("solver.accept_ratio", "ratio", "higher"),
    ("solver.busy_ms_per_request", "ms", "lower"),
    ("solver.us_per_row_nfev", "us", "lower"),
    ("solver.computed_mb_per_request", "MB", "lower"),
    ("rhs.busy_share", "ratio", "lower"),
    ("fbsm.iterations_per_solve", "count", "lower"),
    ("fbsm.forward_ms_per_iter", "ms", "lower"),
    ("fbsm.backward_ms_per_iter", "ms", "lower"),
    ("fbsm.converged_ratio", "ratio", "higher"),
    ("setup.listen_s", "s", "lower"),
    ("setup.warm_s", "s", "lower"),
    ("loadgen.late_ms_p95", "ms", "lower"),
    ("loadgen.conn_wait_ms_p50", "ms", "lower"),
    ("loadgen.cpu_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: /metrics samples whose change across the timed phases is reported.
COUNTERS = ("serve_cache_hits", "serve_cache_misses",
            "serve_cache_evictions", "serve_batch_size_sum",
            "serve_batch_size_count", "solver_nfev", "solver_steps_accepted",
            "solver_steps_rejected", "fbsm_iterations", "fbsm_solves")

_SOLVER_SPANS = ("solver.integrate", "solver.integrate_batched",
                 "solver.dopri45")
_FAMILY_SPANS = ("family.run", "family.run_batch")
_BYTES_PER_VALUE = 8  # float64 state


def read_spans(path: Path) -> list[dict[str, object]]:
    """The JSON-lines span file ``traced_serve.py`` writes at shutdown."""
    with open(path, encoding="utf-8") as lines:
        return [json.loads(line) for line in lines if line.strip()]


def counter_deltas(before: dict[str, float],
                   after: dict[str, float]) -> dict[str, float]:
    return {name: after.get(name, 0.0) - before.get(name, 0.0)
            for name in COUNTERS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _duration(span: dict[str, object]) -> float:
    return float(span["end"]) - float(span["start"])


def _mean_us(spans: Sequence[dict[str, object]]) -> float:
    return _ratio(sum(map(_duration, spans)), len(spans)) * 1e6


def _p50(values: Sequence[float]) -> float:
    return percentile(values, 0.5) if values else 0.0


def report(*, spans: Iterable[dict[str, object]], window: tuple[float, float],
           answers: dict[int, dict[str, object]],
           latency_records: Sequence[object], attempted: Sequence[object],
           open_records: Sequence[object], deltas: dict[str, float],
           fbsm_deltas: dict[str, float], cpu_share: float,
           listen_s: float, warm_s: float,
           overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    ``answers`` maps the index of every correctly answered timed request
    to its parsed answer; ``attempted`` holds every timed request
    (``loadgen`` records), ``open_records`` the open-loop ones and
    ``latency_records`` those the end-to-end latency was taken from (the
    closed loop), so the HTTP overhead and service time split exactly
    that latency.  ``deltas`` are the counter changes across the timed
    phases and ``fbsm_deltas`` those up to the end of the control probe.
    """
    t0, t1 = window
    by_name: dict[str, list[dict[str, object]]] = {}
    solves: list[dict[str, object]] = []
    for span in spans:
        if span["name"] == "control.solve_optimal_control" \
                and float(span["start"]) >= t0:
            solves.append(span)
        elif t0 <= float(span["start"]) <= t1:
            by_name.setdefault(str(span["name"]), []).append(span)
    requests = len(answers)
    records = [r for r in attempted if r.index in answers]
    split = [(r.round_trip, float(answers[r.index]["seconds"]))
             for r in latency_records if r.index in answers]
    overhead_ms = [(trip - inside) * 1e3 for trip, inside in split]
    solver = [s for name in _SOLVER_SPANS for s in by_name.get(name, ())]
    family = [s for name in _FAMILY_SPANS for s in by_name.get(name, ())]
    solver_busy = sum(map(_duration, solver))
    family_busy = sum(map(_duration, family))
    row_nfev = sum(int(s["row_nfev"]) for s in solver)
    streamed = sum(int(s["width"]) * int(s["row_nfev"]) * _BYTES_PER_VALUE
                   for s in solver)
    waits = [float(w) for s in family for w in s.get("waits", ())]
    misses = [a for a in answers.values() if a.get("cache") == "miss"]
    iterations = sum(int(s["iterations"]) for s in solves)
    late = [r.late for r in attempted]
    return {
        "http.overhead_ms_p50": _p50(overhead_ms),
        "http.overhead_ms_p90": (percentile(overhead_ms, 0.9)
                                 if overhead_ms else 0.0),
        "http.response_kb": _ratio(sum(len(r.body) for r in records),
                                   len(records)) / 1e3,
        "spec.parse_us": _mean_us(by_name.get("spec.from_payload", [])),
        "spec.hash_us": _mean_us(by_name.get("spec.spec_hash", [])),
        "spec.hash_calls_per_request": _ratio(
            len(by_name.get("spec.spec_hash", [])), requests),
        "cache.get_us": _mean_us(by_name.get("cache.get", [])),
        "cache.hit_ratio": _ratio(
            deltas["serve_cache_hits"],
            deltas["serve_cache_hits"] + deltas["serve_cache_misses"]),
        "cache.put_us": _mean_us(by_name.get("cache.put", [])),
        "cache.evictions": deltas["serve_cache_evictions"],
        "service.seconds_p50": _p50([inside * 1e3 for _, inside in split]),
        "batcher.wait_ms_p50": _p50([w * 1e3 for w in waits]),
        "batcher.rows_per_batch": _ratio(deltas["serve_batch_size_sum"],
                                         deltas["serve_batch_size_count"]),
        "batcher.stacked_ratio": _ratio(
            sum(1 for a in misses if a.get("stacked")), len(misses)),
        "family.busy_ms_per_request": _ratio(family_busy, requests) * 1e3,
        "family.result_ms_per_request": _ratio(
            family_busy - solver_busy, requests) * 1e3,
        "solver.nfev_per_request": _ratio(deltas["solver_nfev"], requests),
        "solver.accept_ratio": _ratio(
            deltas["solver_steps_accepted"],
            deltas["solver_steps_accepted"] + deltas["solver_steps_rejected"]),
        "solver.busy_ms_per_request": _ratio(solver_busy, requests) * 1e3,
        "solver.us_per_row_nfev": _ratio(solver_busy, row_nfev) * 1e6,
        "solver.computed_mb_per_request": _ratio(streamed, requests) / 1e6,
        "rhs.busy_share": _ratio(sum(float(s["rhs_seconds"]) for s in solver),
                                 solver_busy),
        "fbsm.iterations_per_solve": _ratio(fbsm_deltas["fbsm_iterations"],
                                            fbsm_deltas["fbsm_solves"]),
        "fbsm.forward_ms_per_iter": _ratio(
            sum(float(s["forward_seconds"]) for s in solves),
            iterations) * 1e3,
        "fbsm.backward_ms_per_iter": _ratio(
            sum(float(s["backward_seconds"]) for s in solves),
            iterations) * 1e3,
        "fbsm.converged_ratio": _ratio(
            sum(1 for s in solves if s["converged"]), len(solves)),
        "setup.listen_s": listen_s,
        "setup.warm_s": warm_s,
        "loadgen.late_ms_p95": (percentile(late, 0.95) * 1e3
                                if late else 0.0),
        "loadgen.conn_wait_ms_p50": _p50([r.conn_wait * 1e3
                                          for r in open_records]),
        "loadgen.cpu_share": cpu_share,
        "trace.overhead_ratio": overhead_ratio,
    }
