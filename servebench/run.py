"""Serving benchmark: the shipped ``repro serve`` daemon under seeded load.

Usage (from the root of a checkout)::

    python3 servebench/run.py --workload hot_replay --seed 1 \\
        --seconds 30 --trace 0

One run starts the daemon (``python -m repro serve --port 0``, with its
always-on metrics observer) in its own process several times to time
set-up, keeps the last one, warms it, and drives the timed phases from
this one generator process over ``nproc`` keep-alive connections: an
open-loop phase of seeded Poisson arrivals at the workload's frozen rate
(skipped by ``control_plans``), then a closed-loop phase.  Every answer
is checked (see ``checks.py``) and each workload's shape is asserted
(see ``workloads.check_shape``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice with the same seed, untraced for half the seconds and
then for all of them under ``traced_serve.py``, and prints the
per-layer metrics of the traced run (``layers.py``) with
``trace.overhead_ratio``, the traced over the untraced
``latency_p50_ms``.

The last line of standard output is the result JSON; the line before it
(``{"servebench": ...}``) records the environment, sample counts and
generator-validity figures.  The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import os

# Pin BLAS before NumPy loads: the generator and the daemon together
# must not run more threads than the host has cores.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".servebench"

#: Daemon starts per run; set-up time is the median over them.
SETUP_STARTS = 3

#: A traced run first measures the untraced daemon for this share of the
#: seconds, as the base of ``trace.overhead_ratio``.
TRACE_BASELINE_SHARE = 0.5

#: Generator-validity limits: above either, the generator, not the
#: daemon, may have limited the run.
GENERATOR_CPU_LIMIT = 0.9
GENERATOR_SLIP_LIMIT_MS = 5.0

END_TO_END_UNITS = {"setup_s": "s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "capacity_rps": "1/s",
                    "peak_rss_mb": "MB"}


@dataclass
class SetUp:
    """Timings of the cold starts; the last daemon is left running."""

    daemon: "Daemon"  # noqa: F821 (daemon.Daemon, imported lazily)
    listen: list[float] = field(default_factory=list)
    ready: list[float] = field(default_factory=list)
    probe: list[float] = field(default_factory=list)
    warm_seconds: float = 0.0


@dataclass
class Measurement:
    """Everything one (untraced or traced) pass over a workload yields."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    detail: dict[str, object]
    layers: dict[str, float] = field(default_factory=dict)


def _set_up(workload, inputs, spans_path: Path | None,
            log_path: Path) -> SetUp:
    """Start the daemon ``SETUP_STARTS`` times; keep and warm the last.

    Each start is timed from spawn until the daemon has answered a probe
    on the workload's network, which makes it build and calibrate that
    network.  Warming the replay pool follows on the kept daemon.
    """
    import loadgen
    import workloads
    from checks import expected_hash
    from daemon import Daemon, nproc

    setup = SetUp(None)
    for start in range(SETUP_STARTS):
        daemon = Daemon(ROOT, log_path, spans_path)
        try:
            port = daemon.wait_listening()
            status, _ = loadgen.post_once(port,
                                          workloads.probe_spec(workload.name))
            if status != 200:
                raise RuntimeError(f"set-up probe answered {status}")
            answered = time.monotonic()
            if start == SETUP_STARTS - 1:
                warm = loadgen.open_loop(port, nproc(),
                                         [0.0] * len(inputs.warm),
                                         inputs.warm.__getitem__)
                if inputs.warm:
                    setup.warm_seconds = time.monotonic() - answered
                for record in warm.records:
                    if not record.ok or json.loads(record.body)[
                            "spec_hash"] != expected_hash(record.payload):
                        raise RuntimeError(
                            f"warm-up request {record.index} failed: "
                            f"{record.status} {record.error}")
        except BaseException:
            daemon.stop()
            raise
        setup.listen.append(daemon.listening - daemon.spawned)
        setup.ready.append(answered - daemon.spawned)
        setup.probe.append(answered - daemon.listening)
        if start < SETUP_STARTS - 1:
            daemon.stop()
    setup.daemon = daemon
    return setup


def _check_answers(workload, seed: int, timed) -> tuple[dict, list[str]]:
    """Parse and check every timed answer; drop the wrong ones.

    Returns the correct answers by request index and the problems found.
    """
    import checks
    import workloads

    answers: dict[int, dict[str, object]] = {}
    for record in timed:
        if record.ok:
            answer = json.loads(record.body)
            if answer.get("spec_hash") == checks.expected_hash(
                    record.payload):
                answers[record.index] = answer
    answered = [record for record in timed if record.index in answers]
    sample = [answered[i] for i in checks.sample_indices(
        len(answered), workload.recompute, seed)]
    # Stacked rows carry the widest tolerance; always check a few.
    sample += [record for record in answered
               if answers[record.index].get("stacked")
               and record not in sample][:2]
    verdicts = checks.recompute(
        [record.payload for record in sample],
        [answers[record.index]["result"] for record in sample])
    problems = []
    for record, verdict in zip(sample, verdicts):
        if verdict is not None:
            problems.append(f"request {record.index}: {verdict}")
            del answers[record.index]
    failed = len(timed) - len(answers)
    if failed:
        problems.append(f"{failed} of {len(timed)} timed requests failed")
    problems += workloads.check_shape(
        workload, [answers[record.index] for record in timed
                   if record.index in answers])
    return answers, problems


def measure(workload_name: str, seed: int, seconds: float,
            traced: bool) -> Measurement:
    """One pass: set up, drive the timed phases, check, summarize."""
    import layers
    import loadgen
    import workloads
    from daemon import nproc, parse_metrics
    from stats import percentile, summarize

    workload = workloads.WORKLOADS[workload_name]
    inputs = workloads.inputs(workload, seed, seconds)
    label = f"{workload.name}-{seed}-{'traced' if traced else 'plain'}"
    WORK_DIR.mkdir(exist_ok=True)
    spans_path = WORK_DIR / f"{label}.spans.jsonl"
    setup = _set_up(workload, inputs, spans_path if traced else None,
                    WORK_DIR / f"{label}.log")
    daemon, connections = setup.daemon, nproc()
    try:
        before = parse_metrics(
            loadgen.fetch(daemon.port, "/metrics")[1].decode())
        window_start = time.monotonic()
        open_phase = loadgen.open_loop(
            daemon.port, connections, list(inputs.schedule), inputs.request)
        closed_phase = loadgen.closed_loop(
            daemon.port, connections, seconds * (1.0 - workload.open_share),
            len(inputs.schedule), inputs.length, inputs.request)
        window_end = time.monotonic()
        after = parse_metrics(
            loadgen.fetch(daemon.port, "/metrics")[1].decode())
        peak_rss_mb = daemon.peak_rss_mb()
        probe = loadgen.open_loop(
            daemon.port, 1, [0.0] * (workload.control_probe if traced else 0),
            workloads.control_specs(seed).__getitem__)
        probe_after = parse_metrics(
            loadgen.fetch(daemon.port, "/metrics")[1].decode())
    finally:
        code = daemon.stop()
    timed = open_phase.records + closed_phase.records
    answers, problems = _check_answers(workload, seed, timed)
    if code != 0:
        problems.append(f"daemon exited with code {code}")
    problems += [f"control probe {record.index} failed: {record.status} "
                 f"{record.error}" for record in probe.records
                 if not record.ok]

    # End-to-end latency comes from the closed loop: on a shared host
    # the open loop's quantiles spread too widely across seeds to gate
    # on, so they are recorded in the detail line instead.
    def latencies(phase):
        return summarize([record.latency * 1e3 for record in phase.records
                          if record.index in answers],
                         (0.5, workload.tail))

    tail_key = f"p{round(workload.tail * 100)}"
    latency = latencies(closed_phase)
    closed_ok = sum(1 for record in closed_phase.records
                    if record.index in answers)
    metrics = {
        "setup_s": statistics.median(setup.ready) + setup.warm_seconds,
        "latency_p50_ms": latency["p50"] or 0.0,
        "latency_tail_ms": latency[tail_key] or 0.0,
        "capacity_rps": (closed_ok / closed_phase.wall_seconds
                         if closed_phase.wall_seconds > 0 else 0.0),
        "peak_rss_mb": peak_rss_mb,
    }

    wall = open_phase.wall_seconds + closed_phase.wall_seconds
    slip = [(record.late - record.conn_wait) * 1e3
            for record in open_phase.records]
    generator = {
        "cpu_share": (open_phase.cpu_seconds + closed_phase.cpu_seconds)
        / wall if wall > 0 else 0.0,
        "slip_ms_p95": percentile(slip, 0.95) if slip else 0.0,
    }
    generator["limited"] = (generator["cpu_share"] > GENERATOR_CPU_LIMIT
                            or generator["slip_ms_p95"]
                            > GENERATOR_SLIP_LIMIT_MS)
    detail = {
        "connections": connections,
        "offered_rps": workload.offered_rps,
        "tail_quantile": workload.tail,
        "closed_latency_ms": latency,
        "open_latency_ms": latencies(open_phase),
        "open_requests": len(open_phase.records),
        "closed_requests": len(closed_phase.records),
        "error_rate": (len(timed) - len(answers)) / len(timed)
        if timed else 1.0,
        "setup": {"listen_s": setup.listen, "ready_s": setup.ready,
                  "probe_s": setup.probe, "warm_s": setup.warm_seconds},
        "generator": generator,
    }
    measurement = Measurement(metrics, len(timed), len(timed) - len(answers),
                              problems, detail)
    if traced:
        measurement.layers = layers.report(
            spans=layers.read_spans(spans_path),
            window=(window_start, window_end), answers=answers,
            latency_records=closed_phase.records, attempted=timed,
            open_records=open_phase.records,
            deltas=layers.counter_deltas(before, after),
            fbsm_deltas=layers.counter_deltas(before, probe_after),
            cpu_share=generator["cpu_share"],
            listen_s=statistics.median(setup.listen),
            warm_s=statistics.median(setup.probe) + setup.warm_seconds,
            overhead_ratio=0.0)  # set by main() from both passes
    return measurement


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"servebench: no repro sources under {ROOT / 'src'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("servebench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from daemon import environment_stamp
    from layers import PER_LAYER

    if args.workload not in workloads.WORKLOADS:
        print(f"servebench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    runs = [measure(args.workload, args.seed,
                    args.seconds * (TRACE_BASELINE_SHARE if args.trace else 1),
                    traced=False)]
    if args.trace:
        plain, traced = runs[0], measure(args.workload, args.seed,
                                         args.seconds, traced=True)
        untraced_p50 = plain.metrics["latency_p50_ms"]
        traced.layers["trace.overhead_ratio"] = (
            traced.metrics["latency_p50_ms"] / untraced_p50
            if untraced_p50 > 0 else 0.0)
        runs.append(traced)
    problems = [problem for run in runs for problem in run.problems]
    for problem in problems:
        print(f"servebench: {args.workload}: {problem}", file=sys.stderr)
    for run in runs:
        if run.detail["generator"]["limited"]:
            print(f"servebench: {args.workload}: the generator may have "
                  f"limited this run: {run.detail['generator']}",
                  file=sys.stderr)
    print(json.dumps({"servebench": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment_stamp(),
        "runs": [{"end_to_end": run.metrics, **run.detail} for run in runs],
        "problems": problems}}))
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = {name: runs[-1].layers[name] for name in units}
    else:
        units, values = END_TO_END_UNITS, runs[0].metrics
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
