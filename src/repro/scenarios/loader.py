"""Load scenario files (TOML or JSON) into validated :class:`ScenarioSpec` objects.

A scenario file is the canonical dict form of :mod:`repro.scenarios.spec` plus
an optional ``[profiles.<name>]`` family of partial overrides.  A profile is a
nested table that is deep-merged over the base document before validation —
the committed examples each carry a ``smoke`` profile that shrinks the sweep
to CI-smoke scale without duplicating the scenario:

.. code-block:: toml

    kind = "comparison"
    name = "figure6a"

    [simulation]
    hyperperiods = 20
    repetitions = 5

    [matrix]
    "taskset.n_tasks" = [2, 4, 6, 8, 10]
    "taskset.ratio" = [0.1, 0.5, 0.9]

    [profiles.smoke.simulation]
    hyperperiods = 5
    repetitions = 2

    [profiles.smoke.matrix]
    "taskset.n_tasks" = [2, 4]

TOML needs Python >= 3.11 (:mod:`tomllib`); JSON scenario files work
everywhere and are what ``ScenarioLoader.dumps``/round-trip tests use.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from .spec import ScenarioError, ScenarioSpec

try:  # Python >= 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised only on 3.10
    tomllib = None

__all__ = ["ScenarioLoader", "load_scenario"]


def _deep_merge(base: Dict[str, Any], override: Mapping[str, Any]) -> Dict[str, Any]:
    """Return ``base`` with ``override`` merged in (tables merge, scalars/lists replace)."""
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, Mapping) and isinstance(merged.get(key), Mapping):
            merged[key] = _deep_merge(dict(merged[key]), value)
        else:
            merged[key] = value
    return merged


class ScenarioLoader:
    """Parses, profile-merges and validates scenario documents."""

    def read_document(self, path: Union[str, Path]) -> Dict[str, Any]:
        """Parse a ``.toml``/``.json`` scenario file to its raw document.

        No profile merging, no validation: :meth:`load` merges and
        validates it, and :meth:`profiles` lists its profile names.
        """
        source = Path(path)
        if not source.exists():
            raise ScenarioError(f"scenario file {source} does not exist")
        suffix = source.suffix.lower()
        if suffix == ".toml":
            if tomllib is None:  # pragma: no cover - Python 3.10 fallback
                raise ScenarioError(
                    "TOML scenario files need Python >= 3.11 (tomllib); use the JSON form instead"
                )
            with source.open("rb") as handle:
                try:
                    document = tomllib.load(handle)
                except tomllib.TOMLDecodeError as error:
                    raise ScenarioError(f"{source}: invalid TOML: {error}") from None
        elif suffix == ".json":
            try:
                document = json.loads(source.read_text(encoding="utf-8"))
            except json.JSONDecodeError as error:
                raise ScenarioError(f"{source}: invalid JSON: {error}") from None
        else:
            raise ScenarioError(f"unsupported scenario extension {suffix!r} (expected .toml or .json)")
        if not isinstance(document, dict):
            raise ScenarioError(f"{source}: a scenario document must be a table")
        return document

    def load(self, path: Union[str, Path], profile: Optional[str] = None) -> ScenarioSpec:
        """Load a ``.toml`` or ``.json`` scenario file, optionally under a profile."""
        source = Path(path)
        document = self.read_document(source)
        try:
            spec = self.from_document(document, profile=profile)
        except ScenarioError as error:
            raise ScenarioError(f"{source}: {error}") from None
        if spec.name == "scenario" and "name" not in document:
            spec = ScenarioSpec.from_dict({**spec.to_dict(), "name": source.stem})
        return spec

    def from_document(self, document: Mapping[str, Any], profile: Optional[str] = None) -> ScenarioSpec:
        """Build a spec from an already-parsed document, applying ``profile`` if given."""
        if not isinstance(document, Mapping):
            raise ScenarioError(f"a scenario document must be a table, got {type(document).__name__}")
        document = dict(document)
        profiles = document.pop("profiles", {})
        if not isinstance(profiles, Mapping):
            raise ScenarioError("profiles must be a table of named override tables")
        if profile is not None:
            if profile not in profiles:
                raise ScenarioError(f"unknown profile {profile!r}; available: {sorted(profiles)}")
            overrides = profiles[profile]
            if not isinstance(overrides, Mapping):
                raise ScenarioError(f"profile {profile!r} must be a table of overrides")
            document = _deep_merge(document, overrides)
        return ScenarioSpec.from_dict(document)

    def profiles(self, path: Union[str, Path]) -> tuple:
        """The profile names a scenario file declares (without applying any)."""
        return tuple(sorted(self.read_document(path).get("profiles", {})))

    @staticmethod
    def dumps(spec: ScenarioSpec) -> str:
        """Serialise a spec to its canonical JSON document (loadable via ``.json``).

        Keys are emitted in insertion order, *not* sorted: the order of the
        ``matrix`` axes is semantically significant (it pins every work
        unit's seed coordinates) and must survive the round trip.
        """
        return json.dumps(spec.to_dict(), indent=2)


def load_scenario(path: Union[str, Path], profile: Optional[str] = None) -> ScenarioSpec:
    """Convenience wrapper: ``ScenarioLoader().load(path, profile)``."""
    return ScenarioLoader().load(path, profile=profile)
