"""Serial-vs-batched (vectorized) sweep benchmark → ``BENCH_batched.json``.

Times the same eps1 × eps2 threshold sweep under the serial point loop
and under the :class:`~repro.parallel.VectorizedExecutor`, which stacks
each chunk of parameter points into one ``(B, 3n)`` System (1) solve
(:class:`~repro.core.batched.BatchedHeterogeneousSIR`; under dopri45
the compiled kernel of :mod:`repro.numerics.system1` integrates each
row, as it does each serial point).  Verifies the batched metrics agree
with the serial reference within ``rtol = 1e-8`` and writes the
measurements to ``BENCH_batched.json`` at the repository root.

Two workloads are recorded:

* ``digg_threshold_sweep`` — the full 848-group Digg2009-compatible
  network (1696 carried values per point).  A point costs the same
  kernel work serial or stacked, so stacking saves only the per-call
  Python cost around it.
* ``cache_resident_sweep`` — a 30-group network, where that per-call
  Python cost is a larger share of a point.

Usage::

    python benchmarks/bench_batched.py              # both workloads, 8x8
    python benchmarks/bench_batched.py --smoke      # seconds, CI
    python benchmarks/bench_batched.py --chunk 32 --points 64

Also collectable by pytest (``test_bench_batched_smoke``) so the
benchmark suite exercises the harness end to end.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if "repro" not in sys.modules:  # allow `python benchmarks/bench_batched.py`
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.sweep import SweepResult, sweep_grid  # noqa: E402
from repro.bench.timing import (  # noqa: E402
    BenchRecord,
    time_call_samples,
    write_bench_json,
)
from repro.bench.workloads import (  # noqa: E402
    digg_threshold_point,
    severity_axes,
    smoke_threshold_point,
)
from repro.obs.trace import observing  # noqa: E402
from repro.parallel.executor import VectorizedExecutor  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_batched.json"

#: Batched results must match the serial reference this tightly.
ACCURACY_RTOL = 1e-8

WORKLOADS: dict[str, Callable[..., dict[str, float]]] = {
    "digg_threshold_sweep": digg_threshold_point,
    "cache_resident_sweep": smoke_threshold_point,
}


def _grid_shape(points: int) -> tuple[int, int]:
    """Nearest n1 × n2 factorization of the requested point count."""
    n1 = max(2, int(round(points ** 0.5)))
    n2 = max(2, -(-points // n1))
    return n1, n2


def _max_rel_diff(reference: SweepResult, other: SweepResult) -> float:
    """Largest relative metric deviation between two sweep results."""
    worst = 0.0
    for name in sorted(reference.rows[0]):
        ref = np.asarray(reference.column(name), dtype=float)
        got = np.asarray(other.column(name), dtype=float)
        denom = np.maximum(np.abs(ref), 1e-30)
        worst = max(worst, float(np.max(np.abs(got - ref) / denom)))
    return worst


def _bench_workload(name: str, axes: dict, chunk_size: int | None,
                    records: list[BenchRecord],
                    derived: dict[str, object], *,
                    repeat: int = 1) -> None:
    """Time one workload serially and batched; append records in place."""
    point_fn = WORKLOADS[name]
    executor = VectorizedExecutor(chunk_size=chunk_size)
    n_points = len(axes["eps1"]) * len(axes["eps2"])
    chunk = executor.batch_chunk_size(n_points)

    serial, serial_raw = time_call_samples(
        lambda: sweep_grid(axes, point_fn, executor="serial"),
        repeat=repeat)
    batched, batched_raw = time_call_samples(
        lambda: sweep_grid(axes, point_fn, executor=executor),
        repeat=repeat)
    serial_seconds, batched_seconds = min(serial_raw), min(batched_raw)
    assert isinstance(serial, SweepResult)
    assert isinstance(batched, SweepResult)

    rel = _max_rel_diff(serial, batched)
    speedup = serial_seconds / batched_seconds
    records.append(BenchRecord(f"{name}/serial", serial_seconds, {
        "backend": "serial", "workers": 1, "points": len(serial),
        "points_per_second": len(serial) / serial_seconds,
        "repeat": repeat,
        "raw_seconds": [round(s, 6) for s in serial_raw],
    }))
    records.append(BenchRecord(f"{name}/vectorized", batched_seconds, {
        "backend": "vectorized", "workers": 1, "points": len(batched),
        "chunk_size": chunk,
        "points_per_second": len(batched) / batched_seconds,
        "speedup_vs_serial": speedup,
        "max_rel_diff_vs_serial": rel,
        "repeat": repeat,
        "raw_seconds": [round(s, 6) for s in batched_raw],
    }))
    derived.setdefault("speedup_vs_serial", {})[name] = speedup
    derived.setdefault("max_rel_diff_vs_serial", {})[name] = rel


def run_benchmark(*, points: int = 64, chunk_size: int | None = None,
                  workloads: Sequence[str] = tuple(WORKLOADS),
                  smoke: bool = False, repeat: int = 3,
                  out: str | Path | None = DEFAULT_OUT) -> dict[str, object]:
    """Time each workload serial vs batched; return the written payload."""
    if smoke:
        points = min(points, 4)
        workloads = ["cache_resident_sweep"]
        repeat = min(repeat, 2)
    n1, n2 = _grid_shape(points)
    axes = severity_axes(n1, n2)
    workload_meta = {
        "name": "+".join(workloads),
        "points": n1 * n2,
        "axes": {"eps1": n1, "eps2": n2},
        "accuracy_rtol": ACCURACY_RTOL,
        "repeat": repeat,
    }

    records: list[BenchRecord] = []
    derived: dict[str, object] = {}
    # Run under an observer so solver/sweep counters accumulate and
    # write_bench_json stamps a populated metrics snapshot into the
    # payload (the BENCH_batched.json CI check requires the block).
    with observing(run={"bench": "batched", "points": n1 * n2}) as observer:
        for name in workloads:
            _bench_workload(name, axes, chunk_size, records, derived,
                            repeat=repeat)
        metrics_snapshot = observer.metrics.snapshot()
    derived["note"] = (
        "serial points and stacked rows run the same compiled System (1) "
        "kernel row by row, so metrics agree bit for bit up to the "
        "population reductions' summation order; stacking saves only "
        "the per-call Python cost around each solve"
    )

    if out is not None:
        path = write_bench_json(out, records, workload=workload_meta,
                                derived=derived, metrics=metrics_snapshot)
        print(f"wrote {path}")
    for record in records:
        extra = (f"  speedup {record.meta['speedup_vs_serial']:.2f}x"
                 if "speedup_vs_serial" in record.meta else "")
        print(f"{record.name:32s} {record.wall_seconds:8.3f}s"
              f"  ({record.meta['points_per_second']:.1f} pts/s){extra}")

    diverged = {name: rel
                for name, rel in derived["max_rel_diff_vs_serial"].items()
                if rel > ACCURACY_RTOL}
    if diverged:
        raise SystemExit(
            f"batched sweeps diverged from serial beyond "
            f"rtol={ACCURACY_RTOL}: {diverged}")
    return {"workload": workload_meta,
            "records": [record.as_dict() for record in records],
            "derived": derived,
            "metrics": metrics_snapshot}


def test_bench_batched_smoke(tmp_path) -> None:
    """Pytest hook: harness runs end to end and batched matches serial."""
    import pytest

    from repro.bench.timing import read_bench_json

    out = tmp_path / "BENCH_batched.json"
    payload = run_benchmark(smoke=True, out=out)
    assert all(rel <= ACCURACY_RTOL for rel in
               payload["derived"]["max_rel_diff_vs_serial"].values())
    on_disk = read_bench_json(out)  # validates the repro-bench/1 schema
    assert on_disk["records"]
    # Metrics snapshot block: required and populated (the bench runs
    # under an observer, so solver counters must have accumulated).
    assert set(on_disk["metrics"]) == {"counters", "gauges", "histograms"}
    assert on_disk["metrics"]["counters"].get("solver.runs", 0) > 0
    # Raw per-repeat timings: the noise-floor input of obs compare.
    for record in on_disk["records"]:
        raw = record["meta"]["raw_seconds"]
        assert len(raw) == record["meta"]["repeat"] >= 2
        assert min(raw) == pytest.approx(record["wall_seconds"],
                                         abs=1e-6)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Serial vs batched-vectorized sweep benchmark "
                    "(writes BENCH_batched.json)")
    parser.add_argument("--points", type=int, default=64,
                        help="sweep grid size (default 64 = 8x8)")
    parser.add_argument("--chunk", type=int, default=None,
                        help="batch chunk size (default "
                             f"{VectorizedExecutor.DEFAULT_CHUNK})")
    parser.add_argument("--workloads", nargs="+",
                        default=list(WORKLOADS), choices=list(WORKLOADS),
                        help="workloads to time (default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cache-resident workload for CI")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repeats per measurement; raw "
                             "per-repeat times are recorded (default 3)")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)
    run_benchmark(points=args.points, chunk_size=args.chunk,
                  workloads=args.workloads, smoke=args.smoke,
                  repeat=args.repeat, out=args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
