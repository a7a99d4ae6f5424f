"""Pluggable task executors: serial, thread pool, process pool.

The parameter sweeps behind the threshold studies (Fig. 4(c), the
eps1 × eps2 severity maps, stochastic ensembles) are embarrassingly
parallel: hundreds of independent ``run(point)`` calls with no shared
state.  This module provides one abstraction — :class:`ParallelExecutor`
— with three interchangeable backends:

* :class:`SerialExecutor` — plain loop, zero overhead, the reference;
* :class:`ThreadExecutor` — ``ThreadPoolExecutor``; helps when the
  workload releases the GIL (numpy-heavy right-hand sides) or blocks on
  I/O;
* :class:`ProcessExecutor` — ``ProcessPoolExecutor``; true multi-core
  scaling for the CPU-bound sweeps (callables and tasks must pickle);
* :class:`VectorizedExecutor` — single-process SIMD-style batching: a
  sweep whose point callable advertises a batched implementation (a
  ``batch`` attribute, see :mod:`repro.analysis.sweep`) is evaluated in
  stacked chunks through the batched ODE engine
  (:mod:`repro.numerics.ode_batched`) instead of one point at a time.
  For generic task mapping it degrades to the serial loop, so ensembles
  and non-batchable sweeps still run correctly under ``--backend
  vectorized``.

All backends share the exact same semantics:

* **deterministic ordering** — results come back in task-submission
  order regardless of which worker finished first;
* **chunked dispatch** — tasks are grouped into contiguous chunks so
  per-task IPC overhead amortizes (chunk size is tunable);
* **structured failures** — a worker exception is captured worker-side
  (type, message, formatted traceback) and re-raised in the parent as
  :class:`~repro.exceptions.SweepError` carrying the failing task's
  parameter point, never as a bare pickled traceback;
* **fail fast** — a chunk stops at its first failing task and no later
  chunk is dispatched (pool backends cancel the chunks that have not
  started), so the lowest-index failure is raised without running the
  rest of the sweep.

Because every backend runs the same per-task code on the same inputs in
the same order, a sweep produces **bitwise-identical** results under any
backend and any worker count.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
import time
import traceback
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Sequence

from repro.exceptions import ParameterError, SweepError
from repro.obs.progress import ProgressAggregator
from repro.obs.trace import get_observer

__all__ = [
    "ParallelExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "VectorizedExecutor",
    "resolve_executor",
    "available_cpus",
    "BACKENDS",
]

#: Outcome tags used by the worker-side chunk runner.
_OK, _ERR = "ok", "err"


def available_cpus() -> int:
    """Usable CPU count (>= 1) for default worker counts."""
    return max(1, os.cpu_count() or 1)


def _worker_tag() -> str:
    """Stable worker identity: owning PID plus thread for thread pools."""
    thread = threading.current_thread()
    if thread is threading.main_thread():
        return f"pid-{os.getpid()}"
    return f"pid-{os.getpid()}/{thread.name}"


def _run_chunk(fn: Callable[[object], object],
               chunk: Sequence[object]) -> tuple[str, float, list[tuple]]:
    """Run one chunk of tasks, capturing per-task failures structurally.

    Runs inside the worker (thread, process, or the caller for the
    serial backend).  Never raises and stops at the first failing task:
    the return value is ``(worker_tag, busy_seconds, outcomes)`` where
    every outcome is either ``("ok", value, seconds)`` or — last —
    ``("err", type_name, message, traceback, seconds)`` so process
    workers ship failures back as plain strings instead of pickled
    exception objects, and per-task wall times travel structurally
    (worker clocks are not comparable across processes, so only
    durations cross the boundary).
    """
    chunk_start = time.perf_counter()
    outcomes: list[tuple] = []
    for task in chunk:
        task_start = time.perf_counter()
        try:
            value = fn(task)
            outcomes.append((_OK, value, time.perf_counter() - task_start))
        except BaseException as exc:  # noqa: BLE001 - reported structurally
            outcomes.append((_ERR, type(exc).__name__, str(exc),
                             traceback.format_exc(),
                             time.perf_counter() - task_start))
            break
    return _worker_tag(), time.perf_counter() - chunk_start, outcomes


def _failed(chunk_result: tuple[str, float, list[tuple]]) -> bool:
    """Whether a chunk stopped on a failing task (always its last)."""
    outcomes = chunk_result[2]
    return bool(outcomes) and outcomes[-1][0] == _ERR


def _gather(pool, futures: list, on_chunk,
            result: Callable = lambda _index, future: future.result(),
            ) -> list[tuple[str, float, list[tuple]]]:
    """Collect pool chunk results in order, up to the first failure.

    On a failing chunk, the chunks that have not started are cancelled;
    any already running are left to finish when the pool shuts down.
    """
    chunk_results = []
    for chunk_index, future in enumerate(futures):
        chunk_result = result(chunk_index, future)
        if on_chunk is not None:
            on_chunk(chunk_index, chunk_result)
        chunk_results.append(chunk_result)
        if _failed(chunk_result):
            pool.shutdown(wait=False, cancel_futures=True)
            break
    return chunk_results


def _make_chunks(n_tasks: int, n_chunks: int) -> list[range]:
    """Split ``range(n_tasks)`` into at most ``n_chunks`` contiguous runs."""
    n_chunks = max(1, min(n_chunks, n_tasks))
    base, extra = divmod(n_tasks, n_chunks)
    chunks, start = [], 0
    for j in range(n_chunks):
        size = base + (1 if j < extra else 0)
        chunks.append(range(start, start + size))
        start += size
    return chunks


class ParallelExecutor(ABC):
    """Maps a callable over tasks with deterministic result ordering."""

    #: backend name used by the CLI/config selector
    backend: str = "abstract"

    def __init__(self, workers: int = 1) -> None:
        workers = int(workers)
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"

    # -- public API --------------------------------------------------------
    def map_tasks(self, fn: Callable[[object], object],
                  tasks: Sequence[object], *,
                  chunk_size: int | None = None,
                  describe: Callable[[int, object], object] | None = None,
                  label: str = "map",
                  ) -> list[object]:
        """Apply ``fn`` to every task; results in task order.

        Parameters
        ----------
        fn:
            Single-task callable (must be picklable for the process
            backend — module-level functions, not lambdas).
        tasks:
            Task payloads, one per call.
        chunk_size:
            Tasks per dispatched chunk; default splits the task list
            into ~4 chunks per worker so stragglers balance.
        describe:
            Maps ``(task_index, task)`` to the parameter point reported
            on failure; defaults to the task payload itself.
        label:
            Name stamped on per-task/worker telemetry events when an
            observer is installed (e.g. ``"sweep"``, ``"ensemble"``).
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if chunk_size is not None and chunk_size < 1:
            raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
        if chunk_size is None:
            n_chunks = min(len(tasks), self.workers * 4)
        else:
            n_chunks = math.ceil(len(tasks) / chunk_size)
        chunks = _make_chunks(len(tasks), n_chunks)

        observer = get_observer()
        aggregator: ProgressAggregator | None = None
        if observer is not None:
            aggregator = ProgressAggregator(
                label, len(tasks), self.workers, live=observer.progress)

        def on_chunk(chunk_index: int,
                     chunk_result: tuple[str, float, list[tuple]]) -> None:
            # Runs in the parent as chunk results arrive (submission
            # order), so live progress shows up during the sweep instead
            # of after it.
            if observer is None or aggregator is None:
                return
            worker, busy_seconds, outcomes = chunk_result
            observer.emit("worker", worker=worker, chunk=chunk_index,
                          tasks=len(outcomes),
                          busy_seconds=round(busy_seconds, 6))
            aggregator.chunk_done(worker, busy_seconds)
            for index, outcome in zip(chunks[chunk_index], outcomes):
                ok = outcome[0] == _OK
                seconds = outcome[-1]
                point = describe(index, tasks[index]) if describe else None
                observer.emit("task", name=label, index=index,
                              seconds=round(seconds, 6), ok=ok)
                aggregator.task_done(index, seconds, ok, point=point)
                observer.metrics.inc("parallel.tasks")
                if not ok:
                    observer.metrics.inc("parallel.task_errors")
                observer.metrics.observe("parallel.task_seconds", seconds)

        outcome_chunks = self._execute(
            fn, [[tasks[i] for i in chunk] for chunk in chunks], on_chunk)

        if observer is not None and aggregator is not None:
            summary = aggregator.finish()
            observer.emit("progress_summary", **summary)

        results: list[object] = [None] * len(tasks)
        for chunk, (_worker, _busy, outcomes) in zip(chunks, outcome_chunks):
            for index, outcome in zip(chunk, outcomes):
                if outcome[0] == _OK:
                    results[index] = outcome[1]
                    continue
                _tag, error_type, message, worker_tb = outcome[:4]
                point = describe(index, tasks[index]) if describe else tasks[index]
                raise SweepError(
                    f"sweep task {index} failed at point {point!r}: "
                    f"{error_type}: {message}",
                    point=point, task_index=index, error_type=error_type,
                    worker_traceback=worker_tb,
                )
        return results

    # -- backend hook ------------------------------------------------------
    @abstractmethod
    def _execute(self, fn: Callable[[object], object],
                 chunks: list[list[object]],
                 on_chunk: Callable[[int, tuple], None] | None = None,
                 ) -> list[tuple[str, float, list[tuple]]]:
        """Run the chunks in order up to the first that fails.

        Returns the chunk results aligned with a prefix of ``chunks``;
        when a chunk fails, it is the last one returned.
        ``on_chunk(chunk_index, chunk_result)`` — when given — must be
        invoked in the parent, in submission order, as results arrive.
        """


class SerialExecutor(ParallelExecutor):
    """In-process loop — the reference backend every other one must match."""

    backend = "serial"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(1)

    def _execute(self, fn, chunks, on_chunk=None):
        chunk_results = []
        for chunk_index, chunk in enumerate(chunks):
            result = _run_chunk(fn, chunk)
            if on_chunk is not None:
                on_chunk(chunk_index, result)
            chunk_results.append(result)
            if _failed(result):
                break
        return chunk_results


class ThreadExecutor(ParallelExecutor):
    """Thread-pool backend (shared memory; best for GIL-releasing work)."""

    backend = "thread"

    def _execute(self, fn, chunks, on_chunk=None):
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [pool.submit(_run_chunk, fn, chunk) for chunk in chunks]
            return _gather(pool, futures, on_chunk)


class ProcessExecutor(ParallelExecutor):
    """Process-pool backend (true multi-core; tasks must pickle)."""

    backend = "process"

    def _execute(self, fn, chunks, on_chunk=None):
        try:
            pickle.dumps(fn)
        except Exception as exc:
            raise SweepError(
                "process backend requires a picklable task callable "
                f"(module-level function, not a lambda/closure): {exc}",
                error_type=type(exc).__name__,
            ) from None
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = [pool.submit(_run_chunk, fn, chunk) for chunk in chunks]
            return _gather(pool, futures, on_chunk, _process_result)


def _process_result(chunk_index: int, future) -> tuple:
    """A process chunk's result; pool-level failures (unpicklable task
    payload, dead worker, ...) still surface structurally."""
    try:
        return future.result()
    except SweepError:
        raise
    except BaseException as exc:
        hint = ""
        if "pickle" in f"{type(exc).__name__} {exc}".lower():
            hint = (" — the process backend requires picklable "
                    "task payloads (module-level callables, no "
                    "lambdas/closures); use the thread or "
                    "serial backend otherwise")
        raise SweepError(
            f"process pool failed on chunk {chunk_index}: "
            f"{type(exc).__name__}: {exc}{hint}",
            error_type=type(exc).__name__,
        ) from None


class VectorizedExecutor(ParallelExecutor):
    """Single-process batched execution for vectorizable sweeps.

    The vectorized backend does not parallelize the generic
    ``map_tasks`` protocol — arbitrary per-point callables cannot be
    stacked — so its task mapping is the serial loop.  Its value is the
    contract it declares: sweep drivers (:func:`repro.analysis.sweep.sweep_1d`
    / ``sweep_grid``) check ``executor.backend == "vectorized"`` and
    route point callables that advertise a ``batch`` implementation
    through the stacked ODE engine in chunks of ``chunk_size`` points.

    ``chunk_size`` bounds the rows integrated per stacked system call
    (working-set control); ``None`` leaves the choice to the sweep
    driver.
    """

    backend = "vectorized"

    #: Default rows per stacked integration when the sweep driver does
    #: not override it.  Throughput is flat for 8–64 rows on the digg
    #: workload (the batch is memory-bandwidth-bound), so the default
    #: just keeps the working set modest.
    DEFAULT_CHUNK = 16

    def __init__(self, workers: int = 1, *,
                 chunk_size: int | None = None) -> None:
        super().__init__(1)
        if chunk_size is not None and chunk_size < 1:
            raise ParameterError(
                f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size

    def batch_chunk_size(self, n_points: int) -> int:
        """Rows per stacked integration for an ``n_points`` sweep."""
        chunk = self.chunk_size or self.DEFAULT_CHUNK
        return max(1, min(chunk, n_points))

    def _execute(self, fn, chunks, on_chunk=None):
        return SerialExecutor._execute(self, fn, chunks, on_chunk)


BACKENDS: dict[str, type[ParallelExecutor]] = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
    "vectorized": VectorizedExecutor,
}


def resolve_executor(backend: str | int | ParallelExecutor | None = None,
                     workers: int | None = None) -> ParallelExecutor:
    """Build an executor from a config/CLI-style specification.

    ``backend`` may be an executor instance (returned as-is), a backend
    name from :data:`BACKENDS`, a bare worker count, or ``None``.  With
    ``backend=None`` the worker count decides: ``workers`` in
    ``{None, 1}`` gives the serial backend, anything larger the process
    backend — so ``--workers N`` alone enables multi-core execution.
    """
    if isinstance(backend, ParallelExecutor):
        if workers is not None and workers != backend.workers:
            raise ParameterError(
                f"workers={workers} conflicts with executor {backend!r}")
        return backend
    if isinstance(backend, bool):
        raise ParameterError(f"invalid backend specification {backend!r}")
    if isinstance(backend, int):
        if workers is not None and workers != backend:
            raise ParameterError(
                f"workers={workers} conflicts with backend={backend}")
        backend, workers = None, backend
    if workers is not None and workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    if backend is None:
        if workers is None or workers == 1:
            return SerialExecutor()
        return ProcessExecutor(workers)
    try:
        cls = BACKENDS[str(backend).lower()]
    except KeyError:
        raise ParameterError(
            f"unknown parallel backend {backend!r}; choose from "
            f"{sorted(BACKENDS)}"
        ) from None
    if cls is SerialExecutor:
        return SerialExecutor()
    if cls is VectorizedExecutor:
        return VectorizedExecutor()
    return cls(workers if workers is not None else available_cpus())
