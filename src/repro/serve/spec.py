"""``ScenarioSpec``: the canonical typed description of one run.

Every entry point — the CLI ``threshold``/``report``/``serve``
commands, the figure experiments, the benchmarks, and the HTTP daemon —
describes the run it wants as a :class:`ScenarioSpec` and executes it
through the model-family registry in this module.  Because the spec is
the *only* input to execution, spec-equality means result-equality, and
the content hash of the canonical spec JSON
(:func:`ScenarioSpec.spec_hash`) is a sound cache key.

A spec names:

* a **network** — a preset (``digg2009`` or a
  :mod:`repro.datasets.presets` name), an analytic ``power_law``, or an
  explicit ``(degrees, pmf)`` table;
* a **model family** — registered in :data:`MODEL_FAMILIES`
  (``heterogeneous_sir`` is the paper's System (1));
* the **(ε1, ε2) policy** and structural rates, or a **control**
  request (:class:`ControlSpec`) asking for the Pontryagin-optimized
  campaign instead of a fixed policy;
* the **horizon/grid** (``t_final``, ``n_samples``, solver ``method``).

Execution guarantees:

* :func:`execute_scenario` runs the exact scalar path
  (:class:`~repro.core.model.HeterogeneousSIRModel`) — with no observer
  installed it is bitwise identical to calling the model directly;
* :func:`execute_scenario_batch` stacks compatible specs (same
  :meth:`ScenarioSpec.batch_key`) into one
  :class:`~repro.core.batched.BatchedHeterogeneousSIR` integration;
  per-row results match the scalar path within the batched engine's
  documented tolerance (≤ ~1e-13, see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.batched import BatchedHeterogeneousSIR, stackable
from repro.core.model import HeterogeneousSIRModel
from repro.core.parameters import RumorModelParameters
from repro.core.state import SIRState
from repro.core.threshold import (
    basic_reproduction_number,
    calibrate_acceptance_scale,
)
from repro.exceptions import ParameterError
from repro.networks.degree import DegreeDistribution, power_law_distribution
from repro.obs.trace import get_observer
from repro.serve.hashing import canonical_json, content_hash, short_hash

__all__ = [
    "CalibrationSpec",
    "ControlSpec",
    "ScenarioSpec",
    "ModelFamily",
    "MODEL_FAMILIES",
    "register_family",
    "get_family",
    "resolve_network",
    "scenario_parameters",
    "execute_scenario",
    "execute_scenario_batch",
]

#: Solver methods a spec may request (the batched engine supports both).
_METHODS = ("dopri45", "rk4")

#: Network kinds a spec may carry.
_NETWORK_KINDS = ("preset", "power_law", "explicit")

#: Spec fields that vary per row inside one stacked integration; every
#: other field must match for two specs to share a batch
#: (see :meth:`ScenarioSpec.batch_key`).
_PER_ROW_FIELDS = ("eps1", "eps2", "alpha", "initial_infected")


def _positive(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ParameterError(f"{name} must be positive and finite, "
                             f"got {value}")
    return value


@dataclass(frozen=True)
class CalibrationSpec:
    """Acceptance-scale calibration: rescale λ(k) so r0 hits a target.

    ``r0`` is the target basic reproduction number at the reference
    rates ``(eps1, eps2)`` — the mechanism behind the paper's reported
    0.7220 / 2.1661 / 4.0 settings (see
    :func:`repro.core.threshold.calibrate_acceptance_scale`).
    """

    eps1: float
    eps2: float
    r0: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps1", _positive("calibration.eps1",
                                                   self.eps1))
        object.__setattr__(self, "eps2", _positive("calibration.eps2",
                                                   self.eps2))
        object.__setattr__(self, "r0", _positive("calibration.r0", self.r0))

    def as_payload(self) -> dict[str, float]:
        """JSON-ready representation."""
        return {"eps1": self.eps1, "eps2": self.eps2, "r0": self.r0}

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "CalibrationSpec":
        """Parse a payload, rejecting unknown keys."""
        _reject_unknown("calibration", payload, ("eps1", "eps2", "r0"))
        try:
            return cls(float(payload["eps1"]), float(payload["eps2"]),
                       float(payload["r0"]))
        except KeyError as exc:
            raise ParameterError(
                f"calibration is missing field {exc.args[0]!r}") from None


@dataclass(frozen=True)
class ControlSpec:
    """Request for the Pontryagin-optimized campaign instead of a fixed
    (ε1, ε2) policy.

    Mirrors the knobs of
    :func:`repro.control.pontryagin.solve_optimal_control`: unit costs
    ``c1``/``c2``, the admissible bounds, and the FBSM grid size.
    Control scenarios are never stacked (the FBSM solver is iterative
    per problem), so :meth:`ScenarioSpec.batch_key` is ``None`` for
    them.
    """

    c1: float
    c2: float
    eps1_max: float = 1.0
    eps2_max: float = 1.0
    n_grid: int = 201

    def __post_init__(self) -> None:
        object.__setattr__(self, "c1", _positive("control.c1", self.c1))
        object.__setattr__(self, "c2", _positive("control.c2", self.c2))
        object.__setattr__(self, "eps1_max",
                           _positive("control.eps1_max", self.eps1_max))
        object.__setattr__(self, "eps2_max",
                           _positive("control.eps2_max", self.eps2_max))
        object.__setattr__(self, "n_grid", int(self.n_grid))
        if self.n_grid < 3:
            raise ParameterError(f"control.n_grid must be >= 3, "
                                 f"got {self.n_grid}")

    def as_payload(self) -> dict[str, object]:
        """JSON-ready representation."""
        return {"c1": self.c1, "c2": self.c2, "eps1_max": self.eps1_max,
                "eps2_max": self.eps2_max, "n_grid": self.n_grid}

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ControlSpec":
        """Parse a payload, rejecting unknown keys."""
        _reject_unknown("control", payload,
                        ("c1", "c2", "eps1_max", "eps2_max", "n_grid"))
        try:
            kwargs: dict[str, object] = {"c1": float(payload["c1"]),
                                         "c2": float(payload["c2"])}
        except KeyError as exc:
            raise ParameterError(
                f"control is missing field {exc.args[0]!r}") from None
        for key in ("eps1_max", "eps2_max"):
            if key in payload:
                kwargs[key] = float(payload[key])
        if "n_grid" in payload:
            kwargs["n_grid"] = int(payload["n_grid"])
        return cls(**kwargs)


def _reject_unknown(where: str, payload: Mapping[str, object],
                    known: Sequence[str]) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ParameterError(
            f"unknown {where} field(s) {unknown}; known fields: "
            f"{sorted(known)}")


def _normalize_network(network: object) -> dict[str, object]:
    """Coerce the ``network`` field to its canonical dict form.

    Accepts a bare preset name (``"digg2009"``, ``"twitter_like"``, …)
    or a dict with ``kind`` in :data:`_NETWORK_KINDS`.  Field types are
    normalized here so the canonical JSON is independent of how the
    caller spelled numbers.
    """
    if isinstance(network, str):
        network = {"kind": "preset", "name": network}
    if not isinstance(network, Mapping):
        raise ParameterError(
            f"network must be a preset name or a mapping, got "
            f"{type(network).__name__}")
    kind = network.get("kind")
    if kind == "preset":
        _reject_unknown("network", network, ("kind", "name"))
        name = network.get("name")
        if not isinstance(name, str) or not name:
            raise ParameterError("preset network needs a non-empty 'name'")
        return {"kind": "preset", "name": name}
    if kind == "power_law":
        _reject_unknown("network", network,
                        ("kind", "k_min", "k_max", "exponent"))
        try:
            k_min = int(network["k_min"])
            k_max = int(network["k_max"])
            exponent = float(network["exponent"])
        except KeyError as exc:
            raise ParameterError(
                f"power_law network is missing field {exc.args[0]!r}"
            ) from None
        if k_min < 1 or k_max < k_min:
            raise ParameterError(
                f"invalid power_law degree range [{k_min}, {k_max}]")
        if not np.isfinite(exponent) or exponent <= 0:
            raise ParameterError(
                f"power_law exponent must be positive, got {exponent}")
        return {"kind": "power_law", "k_min": k_min, "k_max": k_max,
                "exponent": exponent}
    if kind == "explicit":
        _reject_unknown("network", network, ("kind", "degrees", "pmf"))
        try:
            degrees = [float(v) for v in network["degrees"]]
            pmf = [float(v) for v in network["pmf"]]
        except KeyError as exc:
            raise ParameterError(
                f"explicit network is missing field {exc.args[0]!r}"
            ) from None
        # Full distribution validation happens at resolve time; here we
        # only pin the canonical value types.
        return {"kind": "explicit", "degrees": degrees, "pmf": pmf}
    raise ParameterError(
        f"unknown network kind {kind!r}; choose from {list(_NETWORK_KINDS)}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Canonical description of one scenario run (see module docstring).

    Instances are value objects: every field is normalized to its
    declared type at construction, so equal scenarios are ``==``-equal
    and hash to the same content address regardless of input formatting.

    Examples
    --------
    >>> spec = ScenarioSpec(network="digg2009", eps1=0.2, eps2=0.05)
    >>> spec == ScenarioSpec.from_json(spec.to_json())
    True
    """

    network: Mapping[str, object] | str = "digg2009"
    model: str = "heterogeneous_sir"
    alpha: float = 0.01
    eps1: float = 0.2
    eps2: float = 0.05
    t_final: float = 60.0
    n_samples: int = 61
    initial_infected: float = 0.05
    method: str = "dopri45"
    calibration: CalibrationSpec | None = None
    control: ControlSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "network", _normalize_network(self.network))
        if not isinstance(self.model, str) or not self.model:
            raise ParameterError("model must be a non-empty family name")
        object.__setattr__(self, "alpha", _positive("alpha", self.alpha))
        object.__setattr__(self, "eps1", _positive("eps1", self.eps1))
        object.__setattr__(self, "eps2", _positive("eps2", self.eps2))
        object.__setattr__(self, "t_final",
                           _positive("t_final", self.t_final))
        object.__setattr__(self, "n_samples", int(self.n_samples))
        if self.n_samples < 2:
            raise ParameterError(
                f"n_samples must be >= 2, got {self.n_samples}")
        frac = float(self.initial_infected)
        if not 0.0 < frac < 1.0:
            raise ParameterError(
                f"initial_infected must be in (0, 1), got {frac}")
        object.__setattr__(self, "initial_infected", frac)
        if self.method not in _METHODS:
            raise ParameterError(
                f"unknown method {self.method!r}; choose from "
                f"{list(_METHODS)}")

    # -- canonical serialization -------------------------------------------
    def as_payload(self) -> dict[str, object]:
        """JSON-ready dict with canonical value types."""
        payload: dict[str, object] = {
            "network": dict(self.network),
            "model": self.model,
            "alpha": self.alpha,
            "eps1": self.eps1,
            "eps2": self.eps2,
            "t_final": self.t_final,
            "n_samples": self.n_samples,
            "initial_infected": self.initial_infected,
            "method": self.method,
        }
        if self.calibration is not None:
            payload["calibration"] = self.calibration.as_payload()
        if self.control is not None:
            payload["control"] = self.control.as_payload()
        return payload

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, shortest-repr floats)."""
        return canonical_json(self.as_payload())

    def spec_hash(self) -> str:
        """Content address: SHA-256 of the canonical JSON.

        Computed once per instance and kept outside the dataclass
        fields, so equality, :func:`dataclasses.replace` and the hash
        scheme are unaffected.
        """
        digest = self.__dict__.get("_spec_hash")
        if digest is None:
            digest = content_hash(self.to_json())
            object.__setattr__(self, "_spec_hash", digest)
        return digest

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ScenarioSpec":
        """Build a spec from a parsed JSON payload, rejecting unknown keys."""
        if not isinstance(payload, Mapping):
            raise ParameterError(
                f"scenario payload must be a JSON object, got "
                f"{type(payload).__name__}")
        known = tuple(f.name for f in fields(cls))
        _reject_unknown("scenario", payload, known)
        kwargs: dict[str, object] = dict(payload)
        if "calibration" in kwargs and kwargs["calibration"] is not None:
            kwargs["calibration"] = CalibrationSpec.from_payload(
                kwargs["calibration"])
        if "control" in kwargs and kwargs["control"] is not None:
            kwargs["control"] = ControlSpec.from_payload(kwargs["control"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse scenario JSON text (any key order / float formatting)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"invalid scenario JSON: {exc}") from None
        return cls.from_payload(payload)

    # -- batching ----------------------------------------------------------
    def batch_key(self) -> str | None:
        """Stacking-compatibility key, or ``None`` when not batchable.

        Two specs with the same batch key may integrate as rows of one
        stacked system: they share everything except the per-row fields
        (:data:`_PER_ROW_FIELDS` — the policy, α, and the initial
        infection level, all of which
        :class:`~repro.core.batched.BatchedHeterogeneousSIR` carries per
        row).  Control scenarios and families without a batched
        implementation return ``None`` and always run on the scalar
        path.
        """
        if self.control is not None:
            return None
        family = MODEL_FAMILIES.get(self.model)
        if family is None or family.run_batch is None:
            return None
        payload = self.as_payload()
        for name in _PER_ROW_FIELDS:
            payload.pop(name, None)
        return canonical_json(payload)

    def with_policy(self, eps1: float, eps2: float) -> "ScenarioSpec":
        """Copy with a different (ε1, ε2) policy — the what-if move."""
        return replace(self, eps1=eps1, eps2=eps2)


# -- model-family registry ---------------------------------------------------
@dataclass(frozen=True)
class ModelFamily:
    """One executable model family behind the scenario registry.

    ``run`` evaluates a single spec on the scalar path; ``run_batch``
    (optional) evaluates a batch-compatible group as one stacked system
    and must return one result mapping per spec, in order, matching the
    scalar results within the batched engine's tolerance.
    """

    name: str
    description: str
    build_parameters: Callable[["ScenarioSpec"], RumorModelParameters]
    run: Callable[["ScenarioSpec"], dict[str, object]]
    run_batch: (Callable[[Sequence["ScenarioSpec"]],
                         list[dict[str, object]]] | None) = None


#: The registry every entry point resolves model names through.
MODEL_FAMILIES: dict[str, ModelFamily] = {}


def register_family(family: ModelFamily) -> ModelFamily:
    """Register a model family; re-registering a name replaces it."""
    MODEL_FAMILIES[family.name] = family
    return family


def get_family(name: str) -> ModelFamily:
    """Look up a registered family; raises on unknown names."""
    try:
        return MODEL_FAMILIES[name]
    except KeyError:
        raise ParameterError(
            f"unknown model family {name!r}; registered: "
            f"{sorted(MODEL_FAMILIES)}") from None


# -- network / parameter resolution ------------------------------------------
def resolve_network(network: Mapping[str, object] | str) -> DegreeDistribution:
    """Materialize a spec's network descriptor as a degree distribution."""
    payload = _normalize_network(network)
    kind = payload["kind"]
    if kind == "preset":
        name = str(payload["name"])
        if name == "digg2009":
            from repro.datasets.digg import synthesize_digg2009

            return synthesize_digg2009().distribution
        from repro.datasets.presets import load_preset

        return load_preset(name).distribution
    if kind == "power_law":
        return power_law_distribution(int(payload["k_min"]),
                                      int(payload["k_max"]),
                                      float(payload["exponent"]))
    degrees = np.asarray(payload["degrees"], dtype=float)
    pmf = np.asarray(payload["pmf"], dtype=float)
    return DegreeDistribution(degrees, pmf)


@functools.lru_cache(maxsize=128)
def _cached_parameters(network_json: str, alpha: float,
                       calibration: CalibrationSpec | None,
                       ) -> RumorModelParameters:
    """Shared parameter construction, memoized on the canonical inputs.

    Network synthesis (the Digg Brent calibration, large power-law
    supports) and the r0 calibration are deterministic, so caching by
    canonical network JSON + α + calibration is exact; a long-running
    server rebuilds each distinct model once.
    """
    distribution = resolve_network(json.loads(network_json))
    params = RumorModelParameters(distribution, alpha=alpha)
    if calibration is not None:
        params = calibrate_acceptance_scale(params, calibration.eps1,
                                            calibration.eps2, calibration.r0)
    return params


def scenario_parameters(spec: ScenarioSpec) -> RumorModelParameters:
    """The :class:`RumorModelParameters` a spec describes.

    This is the single choke point all entry points share: the CLI
    ``threshold``/``report`` commands, the figure experiment configs,
    and the server all call it, so one spec maps to one parameter
    object (memoized) everywhere.
    """
    return _cached_parameters(canonical_json(dict(spec.network)),
                              spec.alpha, spec.calibration)


# -- the heterogeneous SIR family (paper System (1)) -------------------------
def _initial_state(params: RumorModelParameters,
                   spec: ScenarioSpec) -> SIRState:
    return SIRState.initial(params.n_groups, spec.initial_infected)


def _trajectory_result(spec: ScenarioSpec, r0: float, t: np.ndarray,
                       susceptible: np.ndarray, infected: np.ndarray,
                       recovered: np.ndarray) -> dict[str, object]:
    """The JSON-ready result payload of a fixed-policy scenario.

    Population densities only (the per-group matrices would be ~n× the
    size); floats survive the JSON round trip exactly (shortest-repr),
    so disk-cached results equal in-memory ones bit for bit.
    """
    return {
        "kind": "trajectory",
        "r0": float(r0),
        "verdict": "extinct" if r0 <= 1.0 else "spreading",
        "peak_infected": float(infected.max()),
        "final_infected": float(infected[-1]),
        "t": [float(v) for v in t],
        "susceptible": [float(v) for v in susceptible],
        "infected": [float(v) for v in infected],
        "recovered": [float(v) for v in recovered],
    }


def _run_control(spec: ScenarioSpec,
                 params: RumorModelParameters) -> dict[str, object]:
    """Pontryagin/FBSM evaluation of a ``control`` scenario."""
    from repro.control import (
        ControlBounds,
        CostParameters,
        solve_optimal_control,
    )

    control = spec.control
    assert control is not None
    result = solve_optimal_control(
        params, _initial_state(params, spec), t_final=spec.t_final,
        bounds=ControlBounds(control.eps1_max, control.eps2_max),
        costs=CostParameters(control.c1, control.c2),
        n_grid=control.n_grid,
    )
    infected = result.trajectory.population_infected()
    return {
        "kind": "control",
        "converged": bool(result.converged),
        "convergence_reason": result.convergence_reason,
        "iterations": int(result.iterations),
        "cost_total": float(result.cost.total),
        "terminal_infected": float(result.terminal_infected()),
        "peak_infected": float(infected.max()),
        "t": [float(v) for v in result.times],
        "eps1": [float(v) for v in result.eps1],
        "eps2": [float(v) for v in result.eps2],
        "infected": [float(v) for v in infected],
    }


def _run_heterogeneous_sir(spec: ScenarioSpec) -> dict[str, object]:
    """Scalar-path evaluation — the exact pre-existing serial pipeline."""
    params = scenario_parameters(spec)
    if spec.control is not None:
        return _run_control(spec, params)
    model = HeterogeneousSIRModel(params)
    trajectory = model.simulate(_initial_state(params, spec),
                                t_final=spec.t_final, eps1=spec.eps1,
                                eps2=spec.eps2, n_samples=spec.n_samples,
                                method=spec.method)
    r0 = basic_reproduction_number(params, spec.eps1, spec.eps2)
    return _trajectory_result(spec, r0, trajectory.times,
                              trajectory.population_susceptible(),
                              trajectory.population_infected(),
                              trajectory.population_recovered())


def _run_heterogeneous_sir_batch(
        specs: Sequence[ScenarioSpec]) -> list[dict[str, object]]:
    """Stacked evaluation of one batch-compatible group of specs.

    Per-row α and λ(k) (from per-spec calibration against per-row α)
    are stacked through :class:`BatchedHeterogeneousSIR`'s per-point
    arrays; the shared structure (degrees, P(k), φ(k)) is verified with
    :func:`repro.core.batched.stackable` as a defensive check on the
    batch key.
    """
    if not specs:
        return []
    params_list = [scenario_parameters(spec) for spec in specs]
    shared = params_list[0]
    for other in params_list[1:]:
        if not stackable(shared, other):
            raise ParameterError(
                "specs in one batch must share the network structure "
                "(degrees, P(k), φ(k)) — batch_key mismatch?")
    n = shared.n_groups
    alphas = np.array([p.alpha for p in params_list], dtype=float)
    lambdas = np.stack([p.lambda_k for p in params_list])
    # Row 0's params are the shared structure, so when all rows agree the
    # engine's default (``shared.lambda_k``) already matches.
    lambda_k: np.ndarray | None = None if np.all(
        lambdas == lambdas[0]) else lambdas
    batch = BatchedHeterogeneousSIR(
        shared,
        eps1=[spec.eps1 for spec in specs],
        eps2=[spec.eps2 for spec in specs],
        alpha=alphas,
        lambda_k=lambda_k,
    )
    y0 = np.stack([SIRState.initial(n, spec.initial_infected).pack()
                   for spec in specs])
    first = specs[0]
    solution = batch.simulate(y0, t_final=first.t_final,
                              n_samples=first.n_samples,
                              method=first.method)
    results = []
    for j, (spec, params) in enumerate(zip(specs, params_list)):
        # Slice the row out and reduce with RumorTrajectory's 2-D matvec
        # — the exact operation of the scalar path — rather than the
        # batched (m, B, n) contraction, whose different summation order
        # would cost the fixed-grid rk4 path its bitwise identity.
        trajectory = batch.trajectory(solution, j)
        r0 = basic_reproduction_number(params, spec.eps1, spec.eps2)
        results.append(_trajectory_result(
            spec, r0, solution.t,
            trajectory.population_susceptible(),
            trajectory.population_infected(),
            trajectory.population_recovered()))
    return results


register_family(ModelFamily(
    name="heterogeneous_sir",
    description="paper System (1): degree-grouped SIR with (eps1, eps2) "
                "countermeasures and optional Pontryagin control",
    build_parameters=scenario_parameters,
    run=_run_heterogeneous_sir,
    run_batch=_run_heterogeneous_sir_batch,
))


# -- execution entry points ---------------------------------------------------
def _check_result_health(spec: ScenarioSpec,
                         result: dict[str, object]) -> None:
    """Feed a trajectory result through the numerical-health watchdogs.

    Runs at the execution choke point rather than inside any one model,
    so *every* registered family's trajectory payloads are checked —
    including third-party families that never touch
    :class:`HeterogeneousSIRModel`.  No observer → no work (the caller
    already paid the single pointer read).
    """
    observer = get_observer()
    if observer is None or result.get("kind") != "trajectory":
        return
    t = np.asarray(result.get("t", ()), dtype=float)
    s = np.asarray(result.get("susceptible", ()), dtype=float)
    i = np.asarray(result.get("infected", ()), dtype=float)
    r = np.asarray(result.get("recovered", ()), dtype=float)
    if t.size == 0 or s.size != t.size or i.size != t.size \
            or r.size != t.size:
        return
    context = {"spec": short_hash(spec.spec_hash()), "model": spec.model}
    observer.health.check_conservation(t, s + i + r, spec.alpha,
                                       context=context)
    observer.health.check_positivity(
        float(min(s.min(), i.min(), r.min())), context=context)


def execute_scenario(spec: ScenarioSpec) -> dict[str, object]:
    """Evaluate one spec on its family's scalar path."""
    result = get_family(spec.model).run(spec)
    _check_result_health(spec, result)
    return result


def execute_scenario_batch(
        specs: Sequence[ScenarioSpec]) -> list[dict[str, object]]:
    """Evaluate a batch-compatible group as one stacked integration.

    All specs must share one :meth:`ScenarioSpec.batch_key`; a group of
    one falls back to :func:`execute_scenario` (keeping single requests
    on the bitwise scalar path).
    """
    if not specs:
        return []
    if len(specs) == 1:
        return [execute_scenario(specs[0])]
    keys = {spec.batch_key() for spec in specs}
    if len(keys) != 1 or None in keys:
        raise ParameterError(
            "execute_scenario_batch needs specs sharing one non-None "
            "batch_key; got mixed or unbatchable specs")
    family = get_family(specs[0].model)
    assert family.run_batch is not None  # guaranteed by batch_key()
    results = family.run_batch(specs)
    for spec, result in zip(specs, results):
        _check_result_health(spec, result)
    return results
