"""Scenario spec: parsing, validation, profiles and lossless round-trips."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import ScenarioError, ScenarioLoader, ScenarioSpec, load_scenario

MINIMAL = {"kind": "comparison", "name": "mini"}


class TestValidation:
    def test_minimal_document_gets_defaults(self):
        spec = ScenarioSpec.from_dict(MINIMAL)
        assert spec.taskset.source == "random"
        assert spec.offline.methods == ("wcs", "acs")
        assert spec.offline.baseline == "wcs"
        assert spec.online.policy == "greedy"
        assert spec.workload.model == "normal"
        assert spec.power.model == "ideal"
        assert spec.simulation.seed == 2005
        assert spec.matrix == ()

    @pytest.mark.parametrize("document,fragment", [
        ({**MINIMAL, "kind": "nope"}, "kind"),
        ({**MINIMAL, "unknown_section": {}}, "unknown_section"),
        ({**MINIMAL, "taskset": {"source": "martian"}}, "taskset.source"),
        ({**MINIMAL, "taskset": {"typo_field": 1}}, "typo_field"),
        ({**MINIMAL, "taskset": {"ratio": 0.0}}, "ratio"),
        ({**MINIMAL, "taskset": {"source": "explicit"}}, "explicit"),
        ({**MINIMAL, "offline": {"methods": []}}, "at least one"),
        ({**MINIMAL, "offline": {"methods": ["acs"], "baseline": "wcs"}}, "baseline"),
        ({**MINIMAL, "offline": {"methods": ["oracle"]}}, "oracle"),
        ({**MINIMAL, "online": {"policy": "oracle"}}, "policy"),
        ({**MINIMAL, "workload": {"model": "oracle"}}, "workload"),
        ({**MINIMAL, "workload": {"model": "normal", "sigma_fraction": -1.0}}, "workload"),
        ({**MINIMAL, "power": {"model": "steam"}}, "power.model"),
        ({**MINIMAL, "power": {"model": "ideal", "vmax": -2.0}}, "power"),
        ({**MINIMAL, "simulation": {"hyperperiods": 0}}, "hyperperiods"),
        ({**MINIMAL, "simulation": {"repetitions": 0}}, "repetitions"),
        ({**MINIMAL, "simulation": {"engine": "warp"}}, "engine"),
        ({**MINIMAL, "matrix": {"taskset.no_such_field": [1, 2]}}, "no_such_field"),
        ({**MINIMAL, "matrix": {"taskset.ratio": []}}, "at least one value"),
        ({**MINIMAL, "matrix": {"nodots": [1]}}, "dotted"),
        ({**MINIMAL, "kind": "motivation", "matrix": {"taskset.ratio": [0.5]}}, "matrix"),
        ({**MINIMAL, "kind": "multicore"}, "multicore"),
        ({**MINIMAL, "multicore": {"cores": [2]}}, "multicore"),
        ({**MINIMAL, "motivation": {"wcec": 100.0}}, "motivation"),
    ])
    def test_malformed_documents_fail_eagerly(self, document, fragment):
        with pytest.raises(ScenarioError) as excinfo:
            ScenarioSpec.from_dict(document)
        assert fragment.split(".")[-1] in str(excinfo.value)

    def test_explicit_taskset_requires_core_fields(self):
        document = {**MINIMAL, "taskset": {"source": "explicit", "tasks": [{"name": "a"}]}}
        with pytest.raises(ScenarioError, match="missing fields"):
            ScenarioSpec.from_dict(document)

    def test_simulation_engine_defaults_and_round_trips(self):
        """A spelled-out ``engine = "auto"`` is the default spec, and is not written back."""
        spec = ScenarioSpec.from_dict({**MINIMAL, "simulation": {"engine": "auto"}})
        assert spec == ScenarioSpec.from_dict(MINIMAL)
        assert "engine" not in spec.to_dict()["simulation"]
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_auto_engine_allowed_for_every_kind(self):
        documents = [
            MINIMAL,
            {"kind": "multicore", "name": "mc", "taskset": {"source": "cnc"},
             "offline": {"methods": ["acs"], "baseline": "acs"}},
            {"kind": "motivation", "name": "m"},
        ]
        for document in documents:
            spec = ScenarioSpec.from_dict({**document, "simulation": {"engine": "auto"}})
            assert spec == ScenarioSpec.from_dict(document)

    @pytest.mark.parametrize("engine", ["compiled", "batched"])
    def test_retired_engine_values_fail_naming_the_key(self, engine):
        for kind in ("comparison", "motivation"):
            document = {"kind": kind, "name": "m", "simulation": {"engine": engine}}
            with pytest.raises(ScenarioError, match=r"simulation\.engine = .* chosen per unit"):
                ScenarioSpec.from_dict(document)
        with pytest.raises(ScenarioError, match=r"simulation\.engine"):
            ScenarioSpec.from_dict({**MINIMAL, "matrix": {"simulation.engine": [engine]}})

    def test_trace_defaults_off_and_round_trips(self):
        assert ScenarioSpec.from_dict(MINIMAL).simulation.trace is False
        spec = ScenarioSpec.from_dict({**MINIMAL, "simulation": {"trace": True}})
        assert spec.simulation.trace is True
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_trace_rejected_outside_comparison_kind(self):
        document = {"kind": "motivation", "name": "m",
                    "simulation": {"trace": True}}
        with pytest.raises(ScenarioError, match="trace"):
            ScenarioSpec.from_dict(document)
        with pytest.raises(ScenarioError, match=r"simulation\.trace: expected"):
            ScenarioSpec.from_dict({**MINIMAL, "simulation": {"trace": "yes"}})

    def test_arrivals_section_defaults_and_round_trips(self):
        assert ScenarioSpec.from_dict(MINIMAL).arrivals.model == "periodic"
        spec = ScenarioSpec.from_dict(
            {**MINIMAL, "arrivals": {"model": "sporadic", "max_jitter": 1.5}})
        assert spec.arrivals.model == "sporadic"
        assert spec.arrivals.params == {"max_jitter": 1.5}
        data = spec.to_dict()
        assert data["arrivals"] == {"model": "sporadic", "max_jitter": 1.5}
        assert ScenarioSpec.from_dict(data) == spec
        # The default periodic model is left implicit in the serialised form.
        assert "arrivals" not in ScenarioSpec.from_dict(MINIMAL).to_dict()

    def test_arrivals_validated_eagerly(self):
        with pytest.raises(ScenarioError, match="unknown arrival model"):
            ScenarioSpec.from_dict({**MINIMAL, "arrivals": {"model": "poisson"}})
        with pytest.raises(ScenarioError, match="non-negative"):
            ScenarioSpec.from_dict(
                {**MINIMAL, "arrivals": {"model": "sporadic", "max_jitter": -1.0}})
        with pytest.raises(ScenarioError, match="arrivals"):
            ScenarioSpec.from_dict(
                {"kind": "motivation", "name": "m",
                 "arrivals": {"model": "sporadic"}})

    def test_multicore_requires_single_method_and_fixed_taskset(self):
        base = {"kind": "multicore", "name": "m",
                "offline": {"methods": ["acs"], "baseline": "acs"},
                "taskset": {"source": "cnc"}}
        assert ScenarioSpec.from_dict(base).kind == "multicore"
        with pytest.raises(ScenarioError, match="one offline method"):
            ScenarioSpec.from_dict({**base, "offline": {"methods": ["wcs", "acs"]}})
        with pytest.raises(ScenarioError, match="fixed task set"):
            ScenarioSpec.from_dict({**base, "taskset": {"source": "random"}})


class TestRoundTrip:
    def test_dict_round_trip_figure6a_shape(self):
        document = {
            "kind": "comparison",
            "name": "fig",
            "taskset": {"source": "random", "utilization": 0.7},
            "simulation": {"hyperperiods": 20, "seed": 2005, "repetitions": 5},
            "matrix": {"taskset.n_tasks": [2, 4, 6], "taskset.ratio": [0.1, 0.5]},
        }
        spec = ScenarioSpec.from_dict(document)
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        # Axis order is semantically significant and must survive the trip.
        assert [key for key, _ in again.matrix] == ["taskset.n_tasks", "taskset.ratio"]

    def test_json_file_round_trip(self, tmp_path):
        spec = ScenarioSpec.from_dict({
            "kind": "comparison",
            "name": "jsonny",
            "taskset": {"source": "explicit", "name": "demo",
                        "tasks": [{"name": "a", "period": 10, "wcec": 1000}]},
            "workload": {"model": "bimodal", "burst_probability": 0.2},
        })
        target = tmp_path / "scenario.json"
        target.write_text(ScenarioLoader.dumps(spec))
        assert load_scenario(target) == spec

    def test_loader_defaults_name_to_file_stem(self, tmp_path):
        target = tmp_path / "my-sweep.json"
        target.write_text(json.dumps({"kind": "comparison"}))
        assert load_scenario(target).name == "my-sweep"


class TestProfiles:
    def make_file(self, tmp_path):
        document = {
            "kind": "comparison",
            "name": "profiled",
            "simulation": {"hyperperiods": 50, "repetitions": 10},
            "matrix": {"taskset.ratio": [0.1, 0.5, 0.9]},
            "profiles": {
                "smoke": {
                    "simulation": {"hyperperiods": 2},
                    "matrix": {"taskset.ratio": [0.5]},
                },
            },
        }
        target = tmp_path / "profiled.json"
        target.write_text(json.dumps(document))
        return target

    def test_profile_deep_merges_over_base(self, tmp_path):
        target = self.make_file(tmp_path)
        base = load_scenario(target)
        smoke = load_scenario(target, profile="smoke")
        assert base.simulation.hyperperiods == 50
        assert smoke.simulation.hyperperiods == 2
        assert smoke.simulation.repetitions == 10  # untouched by the profile
        assert smoke.matrix == (("taskset.ratio", (0.5,)),)

    def test_unknown_profile_fails(self, tmp_path):
        target = self.make_file(tmp_path)
        with pytest.raises(ScenarioError, match="unknown profile"):
            load_scenario(target, profile="turbo")

    def test_profiles_listing(self, tmp_path):
        target = self.make_file(tmp_path)
        assert ScenarioLoader().profiles(target) == ("smoke",)


class TestCommittedScenarioFiles:
    """Every committed example spec must load, under every declared profile."""

    pytestmark = pytest.mark.skipif(
        "sys.version_info < (3, 11)", reason="TOML scenario files need tomllib")

    def scenario_files(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2] / "examples" / "scenarios"
        files = sorted(root.glob("*.toml"))
        assert files, "examples/scenarios/ must ship committed scenario files"
        return files

    def test_all_committed_scenarios_validate(self):
        loader = ScenarioLoader()
        names = set()
        for path in self.scenario_files():
            spec = loader.load(path)
            names.add(spec.name)
            assert "smoke" in loader.profiles(path), f"{path.name} lacks a smoke profile"
            loader.load(path, profile="smoke")  # must validate too
        assert {"figure6a", "figure6b", "motivation", "scalability", "sporadic"} <= names


# ------------------------------------------------------------------ #
# Property-based round-trips
# ------------------------------------------------------------------ #
_METHODS = st.sampled_from([("wcs", "acs"), ("acs",), ("wcs", "acs", "max_speed")])


@st.composite
def comparison_documents(draw):
    methods = draw(_METHODS)
    document = {
        "kind": "comparison",
        "name": draw(st.text(alphabet="abcdefgh-", min_size=1, max_size=12)),
        "taskset": {
            "source": "random",
            "n_tasks": draw(st.integers(min_value=1, max_value=8)),
            "ratio": draw(st.floats(min_value=0.05, max_value=1.0, allow_nan=False)),
            "utilization": draw(st.floats(min_value=0.1, max_value=0.95, allow_nan=False)),
        },
        "offline": {"methods": list(methods), "baseline": methods[0]},
        "online": {"policy": draw(st.sampled_from(["static", "greedy", "lookahead", "proportional"]))},
        "workload": {"model": draw(st.sampled_from(["normal", "uniform", "fixed", "bimodal"]))},
        "simulation": {
            "hyperperiods": draw(st.integers(min_value=1, max_value=100)),
            "seed": draw(st.integers(min_value=0, max_value=2**31)),
            "repetitions": draw(st.integers(min_value=1, max_value=10)),
            "fast_path": draw(st.booleans()),
            "trace": draw(st.booleans()),
        },
    }
    if draw(st.booleans()):
        document["arrivals"] = {
            "model": "sporadic",
            "max_jitter": draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False)),
        }
    if draw(st.booleans()):
        document["matrix"] = {
            "taskset.ratio": draw(st.lists(
                st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
                min_size=1, max_size=3)),
            "simulation.hyperperiods": draw(st.lists(
                st.integers(min_value=1, max_value=50), min_size=1, max_size=3)),
        }
    return document


@given(document=comparison_documents())
@settings(max_examples=50, deadline=None)
def test_property_spec_round_trips_losslessly(document):
    spec = ScenarioSpec.from_dict(document)
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    assert ScenarioSpec.from_dict(json.loads(ScenarioLoader.dumps(spec))) == spec
