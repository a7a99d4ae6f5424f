"""Tests of the serving benchmark itself (not of the daemon).

Run from the repository root::

    python -m pytest servebench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import loadgen
import workloads
from daemon import Daemon, parse_metrics
from stats import percentile, samples_beyond, summarize

ROOT = Path(__file__).resolve().parents[2]

SMALL_NETWORK = {"kind": "power_law", "k_min": 1, "k_max": 8,
                 "exponent": 2.0}


def test_percentile_matches_numpy_linear_method():
    values = list(np.random.default_rng(0).exponential(size=257))
    for q in (0.0, 0.1, 0.5, 0.9, 0.95, 1.0):
        assert math.isclose(percentile(values, q),
                            float(np.percentile(values, 100 * q)),
                            rel_tol=1e-12)
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_summary_reports_sample_count_and_tail_support():
    assert samples_beyond(200, 0.95) == 10
    assert samples_beyond(199, 0.95) == 9
    assert samples_beyond(100, 0.9) == 10
    summary = summarize([float(v) for v in range(199)], (0.5, 0.95))
    assert summary["n"] == 199
    assert summary["p50"] == 99.0
    assert summary["p50_supported"] and not summary["p95_supported"]
    assert summarize([float(v) for v in range(200)],
                     (0.95,))["p95_supported"]
    assert summarize([], (0.5,)) == {"n": 0, "p50": None,
                                     "p50_supported": False}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_specs_and_schedule(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.inputs(workload, 11, 30.0)
    again = workloads.inputs(workload, 11, 30.0)
    other = workloads.inputs(workload, 12, 30.0)
    count = min(first.length, 64)
    assert list(first.schedule) == list(again.schedule)
    assert list(first.warm) == list(again.warm)
    assert [first.request(i) for i in range(count)] == \
        [again.request(i) for i in range(count)]
    assert [first.request(i) for i in range(count)] != \
        [other.request(i) for i in range(count)]
    if workload.offered_rps:
        assert list(first.schedule) != list(other.schedule)


def test_arrivals_are_poisson_at_the_offered_rate():
    due = workloads.arrival_schedule(3, 20.0, 500.0)
    assert due == sorted(due) and 0.0 < due[0] and due[-1] < 500.0
    assert len(due) == 10_000
    gaps = np.diff(due)
    assert abs(gaps.std() / gaps.mean() - 1.0) < 0.1  # exponential: CV 1


def test_fresh_and_control_requests_never_repeat():
    fresh = workloads.inputs(workloads.WORKLOADS["fresh_digg"], 4, 30.0)
    seen = {json.dumps(fresh.request(i), sort_keys=True)
            for i in range(5000)}
    assert len(seen) == 5000
    plans = workloads.control_specs(4)
    assert len({json.dumps(p, sort_keys=True) for p in plans}) == len(plans)
    low, high = workloads.EPS1_RANGE
    assert all(low <= fresh.request(i)["eps1"] < high for i in range(5000))


def test_hot_pool_is_replayed_with_zipf_popularity():
    order = workloads.zipf_order(2, 20000)
    counts = np.bincount(order, minlength=workloads.HOT_POOL)
    ranked = np.sort(counts)[::-1]
    assert ranked[0] > 5 * ranked[workloads.HOT_POOL // 2]
    assert (counts > 0).sum() > workloads.HOT_POOL * 0.9


def _trajectory_answer():
    payload = {"network": SMALL_NETWORK, "eps1": 0.3, "eps2": 0.05,
               "t_final": 10.0, "n_samples": 11}
    encoded = loadgen.encode(payload)
    served = checks.execute_scenario(
        checks.ScenarioSpec.from_payload(payload))
    return encoded, served


def test_checker_accepts_an_exact_answer_and_rejects_a_perturbed_one():
    encoded, served = _trajectory_answer()
    assert checks.recompute([encoded], [served]) == [None]
    perturbed = copy.deepcopy(served)
    perturbed["infected"][5] *= 1.0 + 1e-6
    verdict = checks.recompute([encoded], [perturbed])[0]
    assert verdict is not None and "infected" in verdict
    within = copy.deepcopy(served)
    within["infected"][5] *= 1.0 + 1e-10  # inside the rtol=1e-8 contract
    assert checks.recompute([encoded], [within]) == [None]
    assert checks.expected_hash(encoded) == checks.ScenarioSpec.from_payload(
        json.loads(encoded)).spec_hash()


def test_checker_compares_control_plans_on_outcome_and_cost():
    plan = {"kind": "control", "converged": True, "iterations": 48,
            "cost_total": 1.25, "t": [0.0, 1.0], "eps1": [0.5, 0.25],
            "eps2": [0.1, 0.2], "infected": [0.05, 0.04]}
    assert checks.compare_result(plan, copy.deepcopy(plan)) is None
    for key, value in (("iterations", 49), ("converged", False),
                       ("cost_total", 1.25 * (1 + 1e-6))):
        wrong = {**plan, key: value}
        assert key in checks.compare_result(plan, wrong)
    assert "kind" in checks.compare_result(plan, {"kind": "trajectory"})


def test_shape_checks_fail_each_workload_loudly():
    hit = {"cache": "hit", "stacked": False}
    miss = {"cache": "miss", "stacked": False}
    stacked = {"cache": "miss", "stacked": True}
    shape = workloads.check_shape
    hot = workloads.WORKLOADS["hot_replay"]
    fresh = workloads.WORKLOADS["fresh_digg"]
    control = workloads.WORKLOADS["control_plans"]
    assert shape(hot, [hit, hit]) == []
    assert "below 1.0" in shape(hot, [hit, miss])[0]
    assert shape(fresh, [miss, stacked]) == []
    assert shape(fresh, [miss, miss]) != []
    assert shape(fresh, [stacked, {"cache": "coalesced",
                                   "stacked": True}]) != []
    assert shape(control, [miss, miss]) == []
    assert shape(control, [miss, stacked]) != []
    assert shape(control, [hit]) != []
    assert shape(hot, []) != []


def test_parse_metrics_reads_counters_and_summaries():
    text = ("# HELP solver_nfev x\n# TYPE solver_nfev counter\n"
            "solver_nfev 1234\n"
            'serve_batch_size{quantile="0.5"} 2\n'
            "serve_batch_size_sum 30\nserve_batch_size_count 12\n")
    parsed = parse_metrics(text)
    assert parsed["solver_nfev"] == 1234.0
    assert parsed['serve_batch_size{quantile="0.5"}'] == 2.0
    deltas = layers.counter_deltas({"solver_nfev": 1000.0}, parsed)
    assert deltas["solver_nfev"] == 234.0
    assert deltas["fbsm_iterations"] == 0.0


def test_per_layer_report_parses_a_traced_run(tmp_path):
    """Drive the traced daemon for real and report every layer metric."""
    daemon = Daemon(ROOT, tmp_path / "daemon.log", tmp_path / "spans.jsonl")
    try:
        port = daemon.wait_listening()
        request = [{"network": SMALL_NETWORK, "eps1": 0.1 + 0.05 * i,
                    "eps2": 0.05, "t_final": 10.0, "n_samples": 11}
                   for i in range(4)] + [{"network": SMALL_NETWORK,
                                          "eps1": 0.1, "eps2": 0.05,
                                          "t_final": 10.0, "n_samples": 11}]
        before = parse_metrics(loadgen.fetch(port, "/metrics")[1].decode())
        started = time.monotonic()
        phase = loadgen.open_loop(port, 2, [0.0] * len(request),
                                  request.__getitem__)
        ended = time.monotonic()
        after = parse_metrics(loadgen.fetch(port, "/metrics")[1].decode())
    finally:
        assert daemon.stop() == 0
    answers = {r.index: json.loads(r.body) for r in phase.records if r.ok}
    assert len(answers) == len(request)
    report = layers.report(
        spans=layers.read_spans(tmp_path / "spans.jsonl"),
        window=(started, ended), answers=answers,
        latency_records=phase.records, attempted=phase.records,
        open_records=phase.records,
        deltas=layers.counter_deltas(before, after),
        fbsm_deltas=layers.counter_deltas(before, after), cpu_share=0.1,
        listen_s=0.3, warm_s=0.1, overhead_ratio=1.0)
    assert [name for name, _, _ in layers.PER_LAYER] == list(report)
    assert all(math.isfinite(value) and value >= 0
               for value in report.values())
    assert report["spec.hash_calls_per_request"] > 0
    assert report["spec.parse_us"] > 0
    assert report["solver.busy_ms_per_request"] > 0
    assert 0 < report["rhs.busy_share"] < 1
    assert report["solver.nfev_per_request"] > 0
    assert report["family.busy_ms_per_request"] >= \
        report["solver.busy_ms_per_request"]
    assert report["http.response_kb"] > 0
    assert report["fbsm.iterations_per_solve"] == 0.0  # no control request


def test_benchmark_json_names_what_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == ["hot_replay", "fresh_digg"]
    assert set(names) < set(workloads.WORKLOADS)
    assert any(workloads.WORKLOADS[name].control_probe for name in names)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(entry) for entry in layers.PER_LAYER]
    import run

    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END_UNITS.items())
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "servebench", tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "hot_replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no repro sources" in done.stderr
