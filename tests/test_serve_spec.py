"""Tests for repro.serve.spec and repro.serve.hashing."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.serve.hashing import canonical_json, content_hash, short_hash
from repro.serve.spec import (
    CalibrationSpec,
    ControlSpec,
    MODEL_FAMILIES,
    ScenarioSpec,
    get_family,
    resolve_network,
    scenario_parameters,
)

GOLDEN_PATH = Path(__file__).parent / "golden_spec_hashes.json"


def small_spec(**overrides) -> ScenarioSpec:
    kwargs = dict(
        network={"kind": "power_law", "k_min": 1, "k_max": 20,
                 "exponent": 2.0},
        eps1=0.2, eps2=0.05, t_final=10.0, n_samples=11)
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestCanonicalJson:
    def test_key_order_invariance(self):
        assert (canonical_json({"a": 1, "b": 2})
                == canonical_json({"b": 2, "a": 1}))

    def test_float_formatting_invariance(self):
        assert (canonical_json({"x": 0.10}) == canonical_json({"x": 0.1})
                == canonical_json({"x": 1e-1}))

    def test_int_float_types_distinguished(self):
        assert canonical_json({"x": 60}) != canonical_json({"x": 60.0})

    def test_compact_and_sorted(self):
        assert canonical_json({"b": [1, 2], "a": None}) == '{"a":null,"b":[1,2]}'

    def test_nan_rejected(self):
        with pytest.raises(ParameterError, match="non-finite"):
            canonical_json({"x": float("nan")})
        with pytest.raises(ParameterError, match="non-finite"):
            canonical_json({"x": [float("inf")]})

    def test_non_string_key_rejected(self):
        with pytest.raises(ParameterError, match="non-string key"):
            canonical_json({"a": {1: 2}})

    def test_unserializable_rejected(self):
        with pytest.raises(ParameterError, match="not.*serializable"):
            canonical_json({"x": object()})

    def test_content_hash_of_text_and_mapping_agree(self):
        payload = {"a": 1, "b": [0.5]}
        assert content_hash(payload) == content_hash(canonical_json(payload))

    def test_short_hash_prefix(self):
        digest = content_hash({"a": 1})
        assert short_hash(digest) == digest[:12]


class TestSpecHash:
    def test_hash_invariant_under_payload_formatting(self):
        spec = small_spec()
        reordered = json.dumps(dict(reversed(list(spec.as_payload().items()))))
        assert ScenarioSpec.from_json(reordered).spec_hash() == spec.spec_hash()
        refloated = spec.to_json().replace("0.05", "5e-2")
        assert ScenarioSpec.from_json(refloated).spec_hash() == spec.spec_hash()

    def test_hash_changes_under_every_semantic_field(self):
        base = small_spec()
        variants = [
            small_spec(network="digg2009"),
            small_spec(eps1=0.21),
            small_spec(eps2=0.051),
            small_spec(alpha=0.02),
            small_spec(t_final=11.0),
            small_spec(n_samples=12),
            small_spec(initial_infected=0.06),
            small_spec(method="rk4"),
            small_spec(calibration=CalibrationSpec(0.2, 0.05, 0.9)),
            small_spec(control=ControlSpec(5.0, 10.0)),
        ]
        hashes = {spec.spec_hash() for spec in variants}
        assert base.spec_hash() not in hashes
        assert len(hashes) == len(variants)

    def test_round_trip(self):
        for spec in (small_spec(),
                     small_spec(calibration=CalibrationSpec(0.2, 0.05, 0.72)),
                     small_spec(control=ControlSpec(5, 10, n_grid=51)),
                     ScenarioSpec(network="digg2009")):
            again = ScenarioSpec.from_json(spec.to_json())
            assert again == spec
            assert again.spec_hash() == spec.spec_hash()

    def test_string_network_shorthand_normalizes(self):
        assert (ScenarioSpec(network="digg2009")
                == ScenarioSpec(network={"kind": "preset",
                                         "name": "digg2009"}))

    def test_numeric_spelling_normalizes_to_equal_specs(self):
        assert small_spec(eps1=0.2) == small_spec(eps1=2e-1)
        assert small_spec(n_samples=11) == small_spec(n_samples=11.0)

    def test_hash_computed_once_per_instance(self, monkeypatch):
        import repro.serve.spec as spec_module

        texts = []

        def counting_hash(text):
            texts.append(text)
            return content_hash(text)

        monkeypatch.setattr(spec_module, "content_hash", counting_hash)
        spec = ScenarioSpec(eps1=0.3)
        assert spec.spec_hash() == spec.spec_hash() == content_hash(
            spec.to_json())
        assert len(texts) == 1
        # The memo is not a field: equality, repr and replace ignore it,
        # and a copy with another policy hashes its own content.
        assert spec == ScenarioSpec(eps1=0.3)
        assert "_spec_hash" not in repr(spec)
        moved = spec.with_policy(0.4, 0.05)
        assert moved.spec_hash() == content_hash(moved.to_json())
        assert moved.spec_hash() != spec.spec_hash()
        assert dataclasses.replace(moved, eps1=0.3) == spec
        assert dataclasses.replace(moved, eps1=0.3).spec_hash() == \
            spec.spec_hash()


class TestGoldenHashes:
    """Freeze the hash scheme: drift breaks stored cache keys loudly."""

    def golden_specs(self) -> dict[str, ScenarioSpec]:
        from repro.experiments.config import (
            Fig2Config,
            Fig3Config,
            Fig4Config,
        )

        return {
            "default": ScenarioSpec(),
            "power_law_small": small_spec(),
            "explicit": ScenarioSpec(
                network={"kind": "explicit", "degrees": [1.0, 2.0, 3.0],
                         "pmf": [0.5, 0.3, 0.2]},
                t_final=5.0, n_samples=6),
            "calibrated": small_spec(
                calibration=CalibrationSpec(0.2, 0.05, 0.722)),
            "control": small_spec(control=ControlSpec(5.0, 10.0, n_grid=51)),
            "fig2": Fig2Config().scenario_spec(),
            "fig3": Fig3Config().scenario_spec(),
            "fig4": Fig4Config().scenario_spec(),
        }

    def test_hashes_match_golden_file(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        current = {name: spec.spec_hash()
                   for name, spec in self.golden_specs().items()}
        assert current == golden, (
            "spec-hash scheme drifted from tests/golden_spec_hashes.json — "
            "existing content-addressed caches would go stale; if the "
            "change is intentional, regenerate the golden file")


class TestValidation:
    def test_unknown_scenario_field_rejected(self):
        with pytest.raises(ParameterError, match="unknown scenario field"):
            ScenarioSpec.from_payload({"bogus": 1})

    def test_unknown_network_kind_rejected(self):
        with pytest.raises(ParameterError, match="unknown network kind"):
            ScenarioSpec(network={"kind": "lattice"})

    def test_unknown_network_field_rejected(self):
        with pytest.raises(ParameterError, match="unknown network field"):
            ScenarioSpec(network={"kind": "preset", "name": "digg2009",
                                  "extra": 1})

    def test_invalid_rates_rejected(self):
        with pytest.raises(ParameterError):
            small_spec(eps1=0.0)
        with pytest.raises(ParameterError):
            small_spec(t_final=-1.0)
        with pytest.raises(ParameterError):
            small_spec(initial_infected=1.5)
        with pytest.raises(ParameterError):
            small_spec(n_samples=1)
        with pytest.raises(ParameterError, match="unknown method"):
            small_spec(method="euler")

    def test_nan_in_field_rejected(self):
        with pytest.raises(ParameterError):
            small_spec(eps1=float("nan"))

    def test_invalid_json_rejected(self):
        with pytest.raises(ParameterError, match="invalid scenario JSON"):
            ScenarioSpec.from_json("{not json")

    def test_unknown_model_family(self):
        spec = small_spec(model="no_such_family")
        with pytest.raises(ParameterError, match="unknown model family"):
            get_family(spec.model)

    def test_control_validation(self):
        with pytest.raises(ParameterError):
            ControlSpec(c1=0.0, c2=10.0)
        with pytest.raises(ParameterError, match="n_grid"):
            ControlSpec(c1=5.0, c2=10.0, n_grid=2)


class TestBatchKey:
    def test_policy_variants_share_key(self):
        base = small_spec()
        assert (base.batch_key()
                == base.with_policy(0.4, 0.1).batch_key()
                == dataclasses.replace(base, alpha=0.02).batch_key()
                == dataclasses.replace(base,
                                       initial_infected=0.1).batch_key())

    def test_structural_variants_differ(self):
        base = small_spec()
        assert base.batch_key() != small_spec(t_final=20.0).batch_key()
        assert base.batch_key() != small_spec(network="digg2009").batch_key()
        assert base.batch_key() != small_spec(method="rk4").batch_key()

    def test_control_specs_not_batchable(self):
        assert small_spec(control=ControlSpec(5, 10)).batch_key() is None

    def test_family_without_run_batch_not_batchable(self):
        family = MODEL_FAMILIES["heterogeneous_sir"]
        crippled = dataclasses.replace(family, name="no_batch",
                                       run_batch=None)
        MODEL_FAMILIES["no_batch"] = crippled
        try:
            assert small_spec(model="no_batch").batch_key() is None
        finally:
            del MODEL_FAMILIES["no_batch"]


class TestResolution:
    def test_resolve_preset_networks(self):
        digg = resolve_network("digg2009")
        assert digg.degrees.size == 848
        forum = resolve_network({"kind": "preset", "name": "forum_like"})
        assert forum.degrees.size == 150

    def test_resolve_explicit(self):
        dist = resolve_network({"kind": "explicit",
                                "degrees": [1, 2, 3],
                                "pmf": [0.5, 0.3, 0.2]})
        assert np.array_equal(dist.degrees, [1.0, 2.0, 3.0])

    def test_explicit_network_group_limit(self):
        """10,000 degree groups are accepted; one more is refused before
        any entry is converted, with a message naming the limit."""
        degrees = list(range(1, 10_001))
        pmf = [1e-4] * 10_000
        spec = ScenarioSpec(network={"kind": "explicit", "degrees": degrees,
                                     "pmf": pmf})
        assert len(spec.network["degrees"]) == 10_000
        with pytest.raises(ParameterError, match="limit is 10000"):
            ScenarioSpec(network={"kind": "explicit",
                                  "degrees": degrees + ["not a number"],
                                  "pmf": pmf + [1e-4]})

    def test_unknown_preset_rejected_at_resolve(self):
        with pytest.raises(ParameterError, match="unknown preset"):
            resolve_network({"kind": "preset", "name": "nope"})

    def test_scenario_parameters_memoized(self):
        spec_a = small_spec(eps1=0.1)
        spec_b = small_spec(eps1=0.9)  # same network/alpha/calibration
        assert scenario_parameters(spec_a) is scenario_parameters(spec_b)

    def test_scenario_parameters_match_direct_construction(self):
        from repro.core.parameters import RumorModelParameters
        from repro.networks.degree import power_law_distribution

        direct = RumorModelParameters(
            power_law_distribution(1, 20, 2.0), alpha=0.01)
        via_spec = scenario_parameters(small_spec())
        assert np.array_equal(direct.lambda_k, via_spec.lambda_k)
        assert np.array_equal(direct.pmf, via_spec.pmf)
        assert direct.alpha == via_spec.alpha
