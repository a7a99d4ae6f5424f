"""Micro-batching dispatcher: stack on arrivals, integrate once, fan out.

Concurrent what-if queries are highly batchable: they usually share the
network and horizon and differ only in the (ε1, ε2) policy — exactly the
per-row fields :class:`~repro.core.batched.BatchedHeterogeneousSIR`
stacks.  The :class:`MicroBatcher` runs two lanes, each one queue and
one daemon thread:

1. the **stacking lane** takes every spec with a
   :meth:`~repro.serve.spec.ScenarioSpec.batch_key`.  The first request
   opens a window, which closes once the queue has been quiet for a gap
   of ``window_seconds / 10``, or at the latest ``window_seconds`` after
   it opened, or at ``max_batch`` requests.  Requests released together
   (by one stacked answer, one ``query_many`` or concurrent clients)
   arrive well inside the gap and still stack, while a lone miss waits
   only the gap.  Distinct specs sharing a batch key **stack** into one
   integration of B rows (under dopri45 the compiled System (1) kernel
   integrates each row on its own, so a stacked answer equals the solo
   one bit for bit); a group of one runs the scalar path, which keeps a
   lone request bitwise identical to calling the model directly;
2. the **solo lane** takes every spec without one (control plans,
   families without a batched implementation) and runs each at once on
   the scalar path, so no trajectory miss waits behind a multi-second
   FBSM solve.

The batcher does not coalesce: :class:`~repro.serve.service.ScenarioService`
joins identical in-flight specs before they reach it, so the same spec
submitted here twice integrates twice.

Each submission returns a :class:`PendingResult`, a
:class:`concurrent.futures.Future` whose result is the answer's JSON
bytes (:func:`~repro.serve.cache.encode_result`), encoded once, here,
before the future completes: its waiters, the service's coalesced
waiters and every later cache hit serve those same bytes.  Each
request's wait, from submission to the start of its integration, feeds
the ``serve.batch.wait.seconds`` histogram.

Failures propagate: if a group's integration (or encoding) raises,
every future in that group is completed with the original exception;
other groups in the window are unaffected.

The batcher adds no threads per request and shuts down cleanly by
draining both queues (:meth:`MicroBatcher.close`).
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, Sequence

from repro.exceptions import ServiceClosedError
from repro.obs.trace import current_trace_ids, get_observer, tracing
from repro.serve.cache import encode_result
from repro.serve.spec import (
    ScenarioSpec,
    execute_scenario,
    execute_scenario_batch,
)

__all__ = ["MicroBatcher", "PendingResult"]

#: Idle poll period of a lane's thread when no window is open.
_POLL_SECONDS = 0.05

#: Quiet gap that closes a stacking window, as a fraction of its cap.
_GAP_FRACTION = 0.1


class PendingResult(Future):
    """One submitted spec's future: its result is the answer's JSON bytes.

    The dispatcher completes it with the bytes, or with the exception
    its group's integration raised, after setting :attr:`stacked`.  It
    is running from submission on, so it cannot be cancelled: the
    dispatcher owns every queued spec until it completes.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        super().__init__()
        self.set_running_or_notify_cancel()
        self.spec = spec
        self.batch_key = spec.batch_key()
        self.stacked = False
        self.submitted = time.perf_counter()
        # Trace ids are context-local and the dispatcher runs on its own
        # thread, so capture them at submission time; the dispatcher
        # re-establishes the group's union around the integration.
        self.trace_ids = current_trace_ids()


class _Lane:
    """A queue and the one thread that dispatches it."""

    def __init__(self, name: str, window_seconds: float,
                 dispatch_loop: Callable[["_Lane"], None]) -> None:
        self.queue: queue.Queue[PendingResult] = queue.Queue()
        self.window_seconds = window_seconds
        self.in_flight = 0
        self.thread = threading.Thread(target=dispatch_loop, args=(self,),
                                       name=name, daemon=True)


class MicroBatcher:
    """Arrival-driven request batcher in front of the scenario executors.

    Parameters
    ----------
    window_seconds:
        The longest a stacking window stays open.  It closes earlier,
        once no request has arrived for ``window_seconds / 10``, so a
        lone cache miss waits about a tenth of it (1 ms at the default
        10 ms); ``0`` dispatches every request at once.
    max_batch:
        Dispatch early once a window holds this many requests.
    run_one, run_batch:
        Execution hooks (overridable for tests); default to
        :func:`~repro.serve.spec.execute_scenario` and
        :func:`~repro.serve.spec.execute_scenario_batch`.
    """

    def __init__(self, window_seconds: float = 0.01, max_batch: int = 64, *,
                 run_one: Callable[[ScenarioSpec],
                                   dict[str, object]] = execute_scenario,
                 run_batch: Callable[[Sequence[ScenarioSpec]],
                                     list[dict[str, object]]
                                     ] = execute_scenario_batch) -> None:
        if window_seconds < 0:
            raise ValueError("window_seconds must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.window_seconds = float(window_seconds)
        self.max_batch = int(max_batch)
        self._run_one = run_one
        self._run_batch = run_batch
        self._closed = threading.Event()
        self._stacking = _Lane("repro-serve-batcher", self.window_seconds,
                               self._dispatch_loop)
        self._solo = _Lane("repro-serve-solo", 0.0, self._dispatch_loop)
        self._lanes = (self._stacking, self._solo)
        for lane in self._lanes:
            lane.thread.start()

    # -- submission --------------------------------------------------------
    def submit_nowait(self, spec: ScenarioSpec) -> PendingResult:
        """Enqueue a spec and return its future without blocking.

        Submitting several specs before waiting on any of them lands
        them all in one window — how ``query_many`` turns a sweep into
        a single stacked integration.
        """
        if self._closed.is_set():
            raise ServiceClosedError("batcher is closed")
        pending = PendingResult(spec)
        lane = self._solo if pending.batch_key is None else self._stacking
        lane.queue.put(pending)
        return pending

    def depth(self) -> int:
        """Requests queued or dispatching in either lane (SLO queue depth)."""
        return sum(lane.queue.qsize() + lane.in_flight
                   for lane in self._lanes)

    # -- dispatcher threads ------------------------------------------------
    def _dispatch_loop(self, lane: _Lane) -> None:
        gap = lane.window_seconds * _GAP_FRACTION
        while True:
            try:
                first = lane.queue.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                if self._closed.is_set():
                    return
                continue
            window = [first]
            deadline = time.monotonic() + lane.window_seconds
            while len(window) < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    window.append(lane.queue.get(
                        timeout=min(gap, remaining)))
                except queue.Empty:
                    break  # quiet for the gap
            lane.in_flight = len(window)
            try:
                self._dispatch(window)
            finally:
                lane.in_flight = 0

    def _dispatch(self, window: list[PendingResult]) -> None:
        """Partition one window by batch key and run each group."""
        # A solo-lane window holds one request, so the ``None`` key of
        # unbatchable specs never groups two of them.
        groups: dict[str | None, list[PendingResult]] = {}
        for pending in window:
            groups.setdefault(pending.batch_key, []).append(pending)
        observer = get_observer()
        for group in groups.values():
            stacked = len(group) > 1
            try:
                if observer is not None:
                    waits = observer.metrics.histogram(
                        "serve.batch.wait.seconds")
                    started = time.perf_counter()
                    for pending in group:
                        waits.observe(started - pending.submitted)
                    # Union of the members' trace ids (submission
                    # order): the batch span, the solver events under
                    # it and any health events are stamped with every
                    # request they served.  tracing() wraps the span
                    # so the span event, emitted when the block exits,
                    # is stamped too.
                    group_ids = list(dict.fromkeys(
                        trace_id for pending in group
                        for trace_id in pending.trace_ids))
                    with tracing(*group_ids):
                        with observer.span("serve.batch", size=len(group),
                                           stacked=stacked):
                            results = self._run_group(group, stacked)
                    observer.metrics.inc("serve.batch.dispatches")
                    observer.metrics.observe("serve.batch.size", len(group))
                else:
                    results = self._run_group(group, stacked)
                bodies = [encode_result(result) for result in results]
            except BaseException as error:  # propagate to every waiter
                for pending in group:
                    pending.set_exception(error)
                continue
            for pending, body in zip(group, bodies):
                pending.stacked = stacked
                pending.set_result(body)

    def _run_group(self, group: list[PendingResult],
                   stacked: bool) -> list[dict[str, object]]:
        if stacked:
            return self._run_batch([pending.spec for pending in group])
        return [self._run_one(group[0].spec)]

    # -- lifecycle ---------------------------------------------------------
    def close(self, timeout: float = 30.0) -> None:
        """Stop accepting work, drain both lanes, join their threads.

        Already-queued requests still complete (graceful shutdown
        drains rather than drops); only *new* submissions are refused.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        for lane in self._lanes:
            lane.thread.join(timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
