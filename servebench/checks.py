"""Answer checking: content addresses, then a recomputed seeded sample.

Every timed answer must carry the ``spec_hash`` the generator computes
locally for the payload it sent.  After the timed phases, a fixed seeded
sample of answered specs is recomputed in this process on the scalar
path (:func:`repro.serve.spec.execute_scenario`) and compared:

* trajectories within the batched engine's documented contract,
  ``rtol = 1e-8`` (stacked rows may differ from the scalar path in the
  last digits, never more);
* control plans on ``converged`` and ``iterations`` exactly and on
  ``cost_total`` within ``CONTROL_COST_RTOL`` (both sides run the same
  scalar FBSM; the margin only absorbs BLAS summation order).

A mismatch marks that request failed, so it counts in the error rate.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from repro.serve.spec import ScenarioSpec, execute_scenario

TRAJECTORY_RTOL = 1e-8
TRAJECTORY_ATOL = 1e-12
CONTROL_COST_RTOL = 1e-9

_TRAJECTORY_KEYS = ("t", "susceptible", "infected", "recovered")
_CONTROL_KEYS = ("t", "eps1", "eps2", "infected")


def expected_hash(payload: bytes) -> str:
    """The content address of a payload, computed by the generator."""
    return ScenarioSpec.from_payload(json.loads(payload)).spec_hash()


def compare_result(expected: dict[str, object],
                   served: dict[str, object]) -> str | None:
    """``None`` when ``served`` matches ``expected``, else the reason."""
    kind = expected.get("kind")
    if served.get("kind") != kind:
        return f"kind {served.get('kind')!r} != {kind!r}"
    if kind == "control":
        for key in ("converged", "iterations"):
            if served.get(key) != expected.get(key):
                return f"{key} {served.get(key)!r} != {expected.get(key)!r}"
        cost, want = float(served["cost_total"]), float(expected["cost_total"])
        if not np.isclose(cost, want, rtol=CONTROL_COST_RTOL, atol=0.0):
            return f"cost_total {cost!r} != {want!r}"
        keys = _CONTROL_KEYS
        rtol = CONTROL_COST_RTOL
    else:
        keys = _TRAJECTORY_KEYS
        rtol = TRAJECTORY_RTOL
    for key in keys:
        got = np.asarray(served.get(key, ()), dtype=float)
        want = np.asarray(expected[key], dtype=float)
        if got.shape != want.shape:
            return f"{key} has shape {got.shape}, expected {want.shape}"
        if not np.allclose(got, want, rtol=rtol, atol=TRAJECTORY_ATOL):
            worst = float(np.max(np.abs(got - want)))
            return f"{key} differs by up to {worst:.3e}"
    return None


def sample_indices(n: int, k: int, seed: int) -> list[int]:
    """A fixed seeded choice of ``k`` of ``n`` positions, sorted."""
    rng = np.random.default_rng([5, seed])
    return sorted(int(i) for i in rng.choice(n, size=min(k, n),
                                             replace=False))


def recompute(payloads: Sequence[bytes],
              results: Sequence[dict[str, object]]) -> list[str | None]:
    """Recompute each payload in-process; one verdict per result."""
    verdicts: list[str | None] = []
    for payload, served in zip(payloads, results):
        spec = ScenarioSpec.from_payload(json.loads(payload))
        verdicts.append(compare_result(execute_scenario(spec), served))
    return verdicts
