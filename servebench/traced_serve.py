"""Start the scenario daemon with timing wrappers on its public entry points.

Usage::

    python servebench/traced_serve.py SPANS.jsonl serve --port 0

Runs ``repro.cli.main`` on the remaining arguments exactly like
``python -m repro``, after wrapping:

* ``ScenarioSpec.from_payload`` and ``ScenarioSpec.spec_hash``;
* ``ResultCache.get`` and ``ResultCache.put``;
* ``ScenarioService.query`` and ``MicroBatcher.submit_nowait``;
* the ``heterogeneous_sir`` family's ``run`` and ``run_batch``,
  re-registered wrapped through ``register_family``;
* ``repro.control.solve_optimal_control`` (which also records the FBSM
  history's per-iteration forward and backward pass times);
* the integrators ``core`` and ``control`` call — ``integrate`` in
  ``repro.core.model``, ``integrate_batched`` in ``repro.core.batched``
  and ``dopri45`` in ``repro.control.pontryagin`` — whose right-hand
  side is timed too.

Spans (name, start, end, thread, parent span, extra fields) are kept in
memory on the ``time.monotonic`` clock, which the generator shares, and
written as JSON lines once the daemon has drained after SIGTERM.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator


class Tracer:
    """In-memory span store with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: list[dict[str, object]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, object]]:
        """Record one span; the yielded dict collects extra fields."""
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        extra: dict[str, object] = {}
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield extra
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append({"id": span_id, "name": name, "start": start,
                               "end": end, "thread": threading.get_ident(),
                               "parent": parent, **extra})

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def wrap_integrator(self, name: str, fn: Callable) -> Callable:
        """Time an integrator and the right-hand side it evaluates."""
        @functools.wraps(fn)
        def traced(f, y0, *args, **kwargs):
            rhs = [0.0, 0]

            def timed_rhs(*rhs_args):
                start = time.monotonic()
                try:
                    return f(*rhs_args)
                finally:
                    rhs[0] += time.monotonic() - start
                    rhs[1] += 1

            with self.span(name) as extra:
                solution = fn(timed_rhs, y0, *args, **kwargs)
                shape = getattr(y0, "shape", (len(y0),))
                extra.update(rhs_seconds=rhs[0], rhs_calls=rhs[1],
                             width=int(shape[-1]),
                             rows=int(shape[0]) if len(shape) > 1 else 1,
                             row_nfev=int(solution.nfev))
            return solution
        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the daemon's public entry points (see module docstring)."""
    import repro.control
    import repro.control.pontryagin as pontryagin
    import repro.core.batched as core_batched
    import repro.core.model as core_model
    from repro.serve.batcher import MicroBatcher
    from repro.serve.cache import ResultCache
    from repro.serve.service import ScenarioService
    from repro.serve.spec import MODEL_FAMILIES, ScenarioSpec, register_family

    from_payload = ScenarioSpec.from_payload.__func__
    ScenarioSpec.from_payload = classmethod(
        tracer.wrap("spec.from_payload", from_payload))
    ScenarioSpec.spec_hash = tracer.wrap("spec.spec_hash",
                                         ScenarioSpec.spec_hash)
    ResultCache.get = tracer.wrap("cache.get", ResultCache.get)
    ResultCache.put = tracer.wrap("cache.put", ResultCache.put)
    ScenarioService.query = tracer.wrap("service.query",
                                        ScenarioService.query)

    # Batcher wait = submit to integration start; the dispatcher hands
    # the very spec object to the family, so its id joins the two.
    submitted: dict[int, float] = {}
    submit_nowait = MicroBatcher.submit_nowait

    @functools.wraps(submit_nowait)
    def traced_submit(self, spec):
        submitted[id(spec)] = time.monotonic()
        return submit_nowait(self, spec)

    MicroBatcher.submit_nowait = traced_submit

    def family_span(name: str, fn: Callable, batched: bool) -> Callable:
        @functools.wraps(fn)
        def traced(arg):
            specs = arg if batched else [arg]
            start = time.monotonic()
            waits = [start - submitted.pop(id(spec), start)
                     for spec in specs]
            with tracer.span(name) as extra:
                extra.update(rows=len(specs), waits=waits)
                return fn(arg)
        return traced

    family = MODEL_FAMILIES["heterogeneous_sir"]
    register_family(dataclasses.replace(
        family,
        run=family_span("family.run", family.run, False),
        run_batch=family_span("family.run_batch", family.run_batch, True)))

    solve = repro.control.solve_optimal_control

    @functools.wraps(solve)
    def traced_solve(*args, **kwargs):
        with tracer.span("control.solve_optimal_control") as extra:
            result = solve(*args, **kwargs)
            extra.update(
                iterations=int(result.iterations),
                converged=bool(result.converged),
                forward_seconds=sum(h.forward_seconds
                                    for h in result.history),
                backward_seconds=sum(h.backward_seconds
                                     for h in result.history))
        return result

    repro.control.solve_optimal_control = traced_solve
    core_model.integrate = tracer.wrap_integrator("solver.integrate",
                                                  core_model.integrate)
    core_batched.integrate_batched = tracer.wrap_integrator(
        "solver.integrate_batched", core_batched.integrate_batched)
    pontryagin.dopri45 = tracer.wrap_integrator("solver.dopri45",
                                                pontryagin.dopri45)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_serve.py SPANS.jsonl serve [serve options]",
              file=sys.stderr)
        return 2
    spans_path = Path(argv[0])
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
