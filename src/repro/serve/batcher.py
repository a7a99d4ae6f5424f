"""Micro-batching dispatcher: coalesce, stack, integrate once, fan out.

Concurrent what-if queries are highly batchable: they usually share the
network and horizon and differ only in the (ε1, ε2) policy — exactly the
per-row fields :class:`~repro.core.batched.BatchedHeterogeneousSIR`
stacks.  The :class:`MicroBatcher` exploits that with the classic
micro-batching trade: the first request to arrive opens a short window
(``window_seconds``); everything submitted before the deadline joins the
batch; then the whole window dispatches at once —

1. requests with the same spec hash **coalesce** (one integration, every
   waiter gets the shared result);
2. distinct specs sharing a :meth:`~repro.serve.spec.ScenarioSpec.batch_key`
   **stack** into one ``(B, 3n)`` integration;
3. everything else (control requests, incompatible networks) runs on
   the scalar path — as does any group of size 1, which keeps a lone
   request bitwise identical to calling the model directly.

Each result is encoded to its JSON bytes
(:func:`~repro.serve.cache.encode_result`) once, here, before any waiter
wakes: the owner, its coalesced followers and every later cache hit
serve those same bytes.

Failures propagate: if a group's integration (or encoding) raises,
every waiter in that group re-raises the original exception; other
groups in the window are unaffected.

The dispatcher is one daemon thread; waiters block on per-request
events (:class:`PendingResult`), so the batcher adds no threads per
request and shuts down cleanly by draining its queue
(:meth:`MicroBatcher.close`).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Sequence

from repro.obs.trace import current_trace_ids, get_observer, tracing
from repro.serve.cache import encode_result
from repro.serve.spec import (
    ScenarioSpec,
    execute_scenario,
    execute_scenario_batch,
)

__all__ = ["MicroBatcher", "PendingResult"]

#: Idle poll period of the dispatcher thread when no window is open.
_POLL_SECONDS = 0.05


class PendingResult:
    """One submitted spec's future result.

    Waiters block on :meth:`wait`; the dispatcher completes the pending
    with :meth:`resolve` (carrying the result's JSON bytes as
    :attr:`body` and whether it came from a stacked integration) or
    :meth:`fail` (the waiter re-raises the original exception).
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.spec_hash = spec.spec_hash()
        self.stacked = False
        # Trace ids are context-local and the dispatcher runs on its own
        # thread, so capture them at submission time; the dispatcher
        # re-establishes the window's union around the integration.
        self.trace_ids = current_trace_ids()
        self._done = threading.Event()
        self._result: dict[str, object] | None = None
        self.body: bytes | None = None
        self._error: BaseException | None = None

    def resolve(self, result: dict[str, object], body: bytes, *,
                stacked: bool = False) -> None:
        """Complete with the result and its encoding; wakes every waiter."""
        self._result = result
        self.body = body
        self.stacked = stacked
        self._done.set()

    def fail(self, error: BaseException) -> None:
        """Complete with an error; waiters re-raise it."""
        self._error = error
        self._done.set()

    @property
    def done(self) -> bool:
        """Whether the pending has been resolved or failed."""
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> dict[str, object]:
        """Block until completion and return (or re-raise) the outcome."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"scenario {self.spec_hash[:12]} not completed within "
                f"{timeout}s")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class MicroBatcher:
    """Window-based request batcher in front of the scenario executors.

    Parameters
    ----------
    window_seconds:
        How long the first request of a window waits for company.  The
        window is a latency *floor* for cache-missing requests, so keep
        it well under a single integration's cost (default 10 ms vs
        ~100 ms+ integrations).
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
        self._queue: queue.Queue[PendingResult] = queue.Queue()
        self._in_flight = 0
        self._closed = threading.Event()
        self._thread = threading.Thread(target=self._dispatch_loop,
                                        name="repro-serve-batcher",
                                        daemon=True)
        self._thread.start()

    # -- submission --------------------------------------------------------
    def submit_nowait(self, spec: ScenarioSpec) -> PendingResult:
        """Enqueue a spec and return its pending without blocking.

        Submitting several specs before waiting on any of them lands
        them all in one window — how ``query_many`` turns a sweep into
        a single stacked integration.
        """
        if self._closed.is_set():
            raise RuntimeError("batcher is closed")
        pending = PendingResult(spec)
        self._queue.put(pending)
        return pending

    def submit(self, spec: ScenarioSpec,
               timeout: float | None = None) -> dict[str, object]:
        """Enqueue a spec and block until its result is ready."""
        return self.submit_nowait(spec).wait(timeout)

    def depth(self) -> int:
        """Requests queued or currently dispatching (SLO queue depth)."""
        return self._queue.qsize() + self._in_flight

    # -- dispatcher thread -------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                if self._closed.is_set():
                    return
                continue
            window = [first]
            deadline = time.monotonic() + self.window_seconds
            while len(window) < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    window.append(self._queue.get(timeout=remaining))
                except queue.Empty:
                    break
            self._in_flight = len(window)
            try:
                self._dispatch(window)
            finally:
                self._in_flight = 0

    def _dispatch(self, window: list[PendingResult]) -> None:
        """Coalesce + partition one window and run each group."""
        # 1. coalesce identical specs: first pending per hash is the owner.
        owners: dict[str, PendingResult] = {}
        followers: dict[str, list[PendingResult]] = {}
        for pending in window:
            if pending.spec_hash in owners:
                followers[pending.spec_hash].append(pending)
            else:
                owners[pending.spec_hash] = pending
                followers[pending.spec_hash] = []
        # 2. partition distinct specs by stacking compatibility.
        groups: dict[object, list[PendingResult]] = {}
        for spec_hash, owner in owners.items():
            key = owner.spec.batch_key()
            if key is None:
                key = ("solo", spec_hash)  # unbatchable: group of one
            groups.setdefault(key, []).append(owner)
        # 3. integrate each group, fanning results to owner + followers.
        observer = get_observer()
        for group in groups.values():
            stacked = len(group) > 1
            # Union of the group's member trace ids (owners + coalesced
            # followers, submission order): the batch span, the solver
            # events under it, and any health events all get stamped
            # with every request they served.
            group_ids: list[str] = []
            for owner in group:
                for member in (owner, *followers[owner.spec_hash]):
                    for trace_id in member.trace_ids:
                        if trace_id not in group_ids:
                            group_ids.append(trace_id)
            try:
                if observer is not None:
                    # tracing() wraps the span so the span event —
                    # emitted when the block exits — is stamped too.
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
                for owner in group:
                    owner.fail(error)
                    for follower in followers[owner.spec_hash]:
                        follower.fail(error)
                continue
            for owner, result, body in zip(group, results, bodies):
                for pending in (owner, *followers[owner.spec_hash]):
                    pending.resolve(result, body, stacked=stacked)

    def _run_group(self, group: list[PendingResult],
                   stacked: bool) -> list[dict[str, object]]:
        if stacked:
            return self._run_batch([pending.spec for pending in group])
        return [self._run_one(group[0].spec)]

    # -- lifecycle ---------------------------------------------------------
    def close(self, timeout: float = 30.0) -> None:
        """Stop accepting work, drain in-flight windows, join the thread.

        Already-queued requests still complete (graceful shutdown
        drains rather than drops); only *new* submissions are refused.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        self._thread.join(timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
