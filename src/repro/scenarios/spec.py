"""The declarative scenario model: one validated, fully resolved experiment description.

A *scenario* is everything the paper's evaluation varies, expressed as data
instead of code: the task-set source (explicit tasks, the random generator, or
the CNC/GAP case studies), the offline method(s) under comparison, the online
DVS policy, the workload distribution, the power model, an optional multicore
grid, seeds and repetitions — plus a *matrix* of dotted-key axes whose cross
product the engine expands into sweep points (exactly how Figure 6a sweeps
task count x BCEC/WCEC ratio).

:class:`ScenarioSpec` is the **resolved** form: profiles have already been
applied by the loader (:mod:`repro.scenarios.loader`) and every field is
validated eagerly, so an invalid spec fails at parse time, not mid-sweep.
``to_dict``/``from_dict`` round-trip losslessly; the canonical dict form is
also what the result store hashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..core.errors import ReproError

__all__ = [
    "ScenarioError",
    "TasksetSpec",
    "OfflineSpec",
    "OnlineSpec",
    "WorkloadSpec",
    "ArrivalsSpec",
    "PowerSpec",
    "SimulationSpec",
    "MulticoreSpec",
    "MotivationSpec",
    "ScenarioSpec",
    "SCENARIO_KINDS",
    "TASKSET_SOURCES",
    "POWER_MODELS",
]


class ScenarioError(ReproError):
    """A scenario file or dictionary is malformed."""


#: Scenario kinds the engine knows how to execute.
SCENARIO_KINDS = ("comparison", "multicore", "motivation")

#: Task-set sources understood by :class:`TasksetSpec`.
TASKSET_SOURCES = ("random", "explicit", "cnc", "gap")

#: Power-model presets understood by :class:`PowerSpec`.
POWER_MODELS = ("ideal", "cmos", "normalized")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def _check_type(value: Any, types: tuple, where: str) -> None:
    # bool is an int subtype; reject it explicitly for numeric fields.
    if isinstance(value, bool) and bool not in types:
        raise ScenarioError(f"{where}: expected {types}, got a boolean")
    if not isinstance(value, types):
        raise ScenarioError(f"{where}: expected {tuple(t.__name__ for t in types)}, got {value!r}")


@dataclass(frozen=True)
class TasksetSpec:
    """Where the task set(s) of the scenario come from.

    ``source`` selects the family: ``"random"`` (the Figure-6a generator,
    parameterised by ``n_tasks``/``utilization``/``periods``), ``"cnc"`` and
    ``"gap"`` (the case studies), or ``"explicit"`` (``tasks`` is a tuple of
    task dictionaries with at least ``name``/``period``/``wcec``).  ``ratio``
    is the BCEC/WCEC ratio applied to every source; explicit tasks that carry
    their own ``acec``/``bcec`` are left untouched.
    """

    source: str = "random"
    ratio: float = 0.5
    utilization: float = 0.7
    n_tasks: int = 4
    periods: Optional[Tuple[float, ...]] = None
    gap_tasks: Optional[int] = 8
    name: str = "taskset"
    tasks: Tuple[Mapping[str, Any], ...] = ()

    def __post_init__(self) -> None:
        _require(
            self.source in TASKSET_SOURCES,
            f"taskset.source must be one of {TASKSET_SOURCES}, got {self.source!r}",
        )
        _require(0.0 < self.ratio <= 1.0, f"taskset.ratio must lie in (0, 1], got {self.ratio}")
        _require(
            0.0 < self.utilization <= 1.0,
            f"taskset.utilization must lie in (0, 1], got {self.utilization}",
        )
        _require(self.n_tasks > 0, f"taskset.n_tasks must be positive, got {self.n_tasks}")
        if self.periods is not None:
            _require(len(self.periods) > 0, "taskset.periods must be non-empty when given")
            object.__setattr__(self, "periods", tuple(float(p) for p in self.periods))
        if self.gap_tasks is not None:
            _require(self.gap_tasks > 0, f"taskset.gap_tasks must be positive, got {self.gap_tasks}")
        if self.source == "explicit":
            _require(len(self.tasks) > 0, "an explicit taskset needs at least one [[taskset.tasks]] entry")
            for entry in self.tasks:
                missing = [key for key in ("name", "period", "wcec") if key not in entry]
                _require(not missing, f"explicit task {entry!r} is missing fields {missing}")
        else:
            _require(
                len(self.tasks) == 0,
                f"taskset.tasks is only valid with source='explicit', not {self.source!r}",
            )
        object.__setattr__(self, "tasks", tuple(dict(entry) for entry in self.tasks))


@dataclass(frozen=True)
class OfflineSpec:
    """Offline voltage schedulers under comparison, by registry name."""

    methods: Tuple[str, ...] = ("wcs", "acs")
    baseline: str = "wcs"

    def __post_init__(self) -> None:
        from ..experiments.harness import scheduler_names

        object.__setattr__(self, "methods", tuple(self.methods))
        _require(len(self.methods) > 0, "offline.methods must name at least one scheduler")
        known = scheduler_names()
        unknown = [name for name in self.methods if name not in known]
        _require(not unknown, f"unknown offline methods {unknown}; known: {list(known)}")
        _require(
            self.baseline in self.methods,
            f"offline.baseline {self.baseline!r} is not among methods {list(self.methods)}",
        )


@dataclass(frozen=True)
class OnlineSpec:
    """The online DVS policy driving every simulation of the scenario."""

    policy: str = "greedy"

    def __post_init__(self) -> None:
        from ..runtime.policies import available_policies

        _require(
            self.policy in available_policies(),
            f"unknown online policy {self.policy!r}; known: {list(available_policies())}",
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """Workload distribution (actual execution cycles) by registry name."""

    model: str = "normal"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        self.build()  # validate the name and the parameters eagerly

    def build(self):
        from ..core.errors import WorkloadError
        from ..workloads.distributions import get_workload_model

        try:
            return get_workload_model(self.model, **self.params)
        except (WorkloadError, TypeError) as error:
            raise ScenarioError(f"workload: {error}") from None


@dataclass(frozen=True)
class ArrivalsSpec:
    """Arrival model (job release jitter) by registry name.

    The default (``"periodic"``) is the paper's strictly periodic model; it
    is also what an absent ``[arrivals]`` section means, so existing
    scenarios are unaffected.  A non-default model is only meaningful for
    ``kind = "comparison"`` scenarios; its units run in the vectorized
    simulation core like periodic ones.
    """

    model: str = "periodic"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        self.build()  # validate the name and the parameters eagerly

    def build(self):
        from ..core.errors import WorkloadError
        from ..workloads.arrivals import get_arrival_model

        try:
            return get_arrival_model(self.model, **self.params)
        except (WorkloadError, TypeError) as error:
            raise ScenarioError(f"arrivals: {error}") from None


@dataclass(frozen=True)
class PowerSpec:
    """Processor model preset plus keyword overrides (``fmax``, ``vmax``, ...)."""

    model: str = "ideal"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(self.model in POWER_MODELS, f"power.model must be one of {POWER_MODELS}, got {self.model!r}")
        object.__setattr__(self, "params", dict(self.params))
        self.build()  # validate the parameters eagerly

    def build(self):
        from ..core.errors import InvalidProcessorError
        from ..power import presets

        factory = {
            "ideal": presets.ideal_processor,
            "cmos": presets.cmos_processor,
            "normalized": presets.normalized_processor,
        }[self.model]
        try:
            return factory(**self.params)
        except (InvalidProcessorError, TypeError) as error:
            raise ScenarioError(f"power: {error}") from None


@dataclass(frozen=True)
class SimulationSpec:
    """How long, how often and how reproducibly each point is simulated.

    ``fast_path = false`` runs every simulation on the reference event loop
    instead of the fast paths (bitwise-identical results; it keys units
    apart in the result store).
    """

    hyperperiods: int = 20
    seed: int = 2005
    repetitions: int = 1
    fast_path: bool = True
    #: Record the typed event stream of every simulation on the stored
    #: payloads (see :mod:`repro.runtime.trace`).  Only valid for
    #: ``kind = "comparison"``; traced units run on the compiled loop.
    trace: bool = False

    def __post_init__(self) -> None:
        _check_type(self.trace, (bool,), "simulation.trace")
        _require(self.hyperperiods > 0, f"simulation.hyperperiods must be positive, got {self.hyperperiods}")
        _require(self.repetitions > 0, f"simulation.repetitions must be positive, got {self.repetitions}")
        _check_type(self.seed, (int,), "simulation.seed")


@dataclass(frozen=True)
class MulticoreSpec:
    """The ``(core count, partitioner)`` grid of a ``kind="multicore"`` scenario."""

    cores: Tuple[int, ...] = (1, 2, 4, 8)
    partitioners: Tuple[str, ...] = ("ffd", "bfd", "wfd", "energy")

    def __post_init__(self) -> None:
        from ..allocation.partitioners import available_partitioners

        object.__setattr__(self, "cores", tuple(int(m) for m in self.cores))
        object.__setattr__(self, "partitioners", tuple(self.partitioners))
        _require(len(self.cores) > 0, "multicore.cores must name at least one core count")
        _require(all(m >= 1 for m in self.cores), f"multicore.cores must all be >= 1, got {list(self.cores)}")
        _require(len(self.partitioners) > 0, "multicore.partitioners must name at least one heuristic")
        known = available_partitioners()
        unknown = [name for name in self.partitioners if name not in known]
        _require(not unknown, f"unknown partitioners {unknown}; known: {list(known)}")


@dataclass(frozen=True)
class MotivationSpec:
    """Parameters of the reconstructed motivational example (Table 1)."""

    frame_length: float = 20.0
    wcec: float = 5000.0
    acec: float = 1500.0
    bcec: float = 500.0

    def __post_init__(self) -> None:
        _require(self.frame_length > 0, "motivation.frame_length must be positive")
        _require(0 < self.bcec <= self.acec <= self.wcec, "motivation needs 0 < bcec <= acec <= wcec")


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully resolved scenario: sections plus the sweep matrix.

    ``matrix`` is an ordered tuple of ``(dotted_key, values)`` axes; the
    engine expands their cross product in declaration order, and a point's
    axis indices are the seed-derivation coordinates of its work units — so
    axis order is semantically significant (it pins the RNG streams) and is
    preserved through ``to_dict``/``from_dict``.
    """

    kind: str = "comparison"
    name: str = "scenario"
    description: str = ""
    taskset: TasksetSpec = field(default_factory=TasksetSpec)
    offline: OfflineSpec = field(default_factory=OfflineSpec)
    online: OnlineSpec = field(default_factory=OnlineSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    arrivals: ArrivalsSpec = field(default_factory=ArrivalsSpec)
    power: PowerSpec = field(default_factory=PowerSpec)
    simulation: SimulationSpec = field(default_factory=SimulationSpec)
    multicore: MulticoreSpec = field(default_factory=MulticoreSpec)
    motivation: MotivationSpec = field(default_factory=MotivationSpec)
    matrix: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()

    def __post_init__(self) -> None:
        _require(self.kind in SCENARIO_KINDS, f"kind must be one of {SCENARIO_KINDS}, got {self.kind!r}")
        _require(bool(self.name), "a scenario needs a non-empty name")
        if self.kind == "multicore":
            _require(
                len(self.offline.methods) == 1,
                "a multicore scenario plans every core with one offline method; "
                "give exactly one entry in offline.methods",
            )
            _require(
                self.taskset.source != "random",
                "multicore scenarios need a fixed task set (explicit/cnc/gap)",
            )
        if self.kind == "motivation":
            _require(not self.matrix, "motivation scenarios do not support a matrix")
        if self.kind != "comparison":
            _require(
                not self.simulation.trace,
                f"simulation.trace = true is only supported for kind = 'comparison' "
                f"scenarios, not {self.kind!r}",
            )
            _require(
                self.arrivals == ArrivalsSpec(),
                f"a non-periodic [arrivals] model is only supported for "
                f"kind = 'comparison' scenarios, not {self.kind!r}",
            )
        normalized = []
        for axis in self.matrix:
            _require(len(axis) == 2, f"matrix axes are (key, values) pairs, got {axis!r}")
            key, values = axis
            _require(
                isinstance(key, str) and "." in key,
                f"matrix keys are dotted section.field paths, got {key!r}",
            )
            values = tuple(values)
            _require(len(values) > 0, f"matrix axis {key!r} needs at least one value")
            normalized.append((key, values))
        object.__setattr__(self, "matrix", tuple(normalized))
        # Every matrix key must target a real scalar field: apply each axis's
        # first value to the base dict and rebuild, so typos fail at load time.
        if self.matrix:
            probe = self.to_dict()
            probe.pop("matrix")
            for key, values in self.matrix:
                _set_dotted(probe, key, values[0])
            ScenarioSpec.from_dict({**probe, "matrix": {}})

    # ------------------------------------------------------------------ #
    # Canonical dict form (what files parse to and what the store hashes)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form; ``from_dict(to_dict(spec)) == spec``."""
        data: Dict[str, Any] = {
            "kind": self.kind,
            "name": self.name,
            "description": self.description,
            "taskset": {
                "source": self.taskset.source,
                "ratio": self.taskset.ratio,
                "utilization": self.taskset.utilization,
                "n_tasks": self.taskset.n_tasks,
                "name": self.taskset.name,
            },
            "offline": {"methods": list(self.offline.methods), "baseline": self.offline.baseline},
            "online": {"policy": self.online.policy},
            "workload": {"model": self.workload.model, **dict(self.workload.params)},
            "power": {"model": self.power.model, **dict(self.power.params)},
            "simulation": {
                "hyperperiods": self.simulation.hyperperiods,
                "seed": self.simulation.seed,
                "repetitions": self.simulation.repetitions,
                "fast_path": self.simulation.fast_path,
                "trace": self.simulation.trace,
            },
            "matrix": {key: list(values) for key, values in self.matrix},
        }
        # Emitted only when non-default, so pre-existing scenario dicts (and
        # their round-trips) are byte-for-byte unchanged.
        if self.arrivals != ArrivalsSpec():
            data["arrivals"] = {"model": self.arrivals.model, **dict(self.arrivals.params)}
        if self.taskset.periods is not None:
            data["taskset"]["periods"] = list(self.taskset.periods)
        if self.taskset.gap_tasks is not None:
            data["taskset"]["gap_tasks"] = self.taskset.gap_tasks
        if self.taskset.tasks:
            data["taskset"]["tasks"] = [dict(entry) for entry in self.taskset.tasks]
        if self.kind == "multicore":
            data["multicore"] = {
                "cores": list(self.multicore.cores),
                "partitioners": list(self.multicore.partitioners),
            }
        if self.kind == "motivation":
            data["motivation"] = {
                "frame_length": self.motivation.frame_length,
                "wcec": self.motivation.wcec,
                "acec": self.motivation.acec,
                "bcec": self.motivation.bcec,
            }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a validated spec from the canonical dict form (strict keys)."""
        _check_type(data, (dict,), "scenario")
        known = {
            "kind",
            "name",
            "description",
            "taskset",
            "offline",
            "online",
            "workload",
            "arrivals",
            "power",
            "simulation",
            "multicore",
            "motivation",
            "matrix",
            "profiles",
        }
        unknown = sorted(set(data) - known)
        _require(not unknown, f"unknown top-level scenario keys {unknown}; known: {sorted(known)}")
        # Kind-specific sections are rejected under any other kind (instead of
        # being silently ignored and dropped by to_dict): this both preserves
        # the lossless round-trip contract and catches a forgotten `kind =`.
        kind = data.get("kind", "comparison")
        _require(
            "multicore" not in data or kind == "multicore",
            f"a [multicore] section is only valid with kind = 'multicore', not {kind!r}",
        )
        _require(
            "motivation" not in data or kind == "motivation",
            f"a [motivation] section is only valid with kind = 'motivation', not {kind!r}",
        )
        section_names = (
            "taskset",
            "offline",
            "online",
            "workload",
            "arrivals",
            "power",
            "simulation",
            "multicore",
            "motivation",
        )
        sections = {key: _section(data, key) for key in section_names}
        # ``simulation.engine`` selects nothing: ``simulate_batch`` picks each
        # unit's route.  ``"auto"`` still loads because committed documents
        # set it (perfbench/specs/policy-sweep.toml); any other value fails.
        engine = sections["simulation"].pop("engine", "auto")
        _require(
            engine == "auto",
            f"simulation.engine = {engine!r} is no longer supported: the simulation route is "
            f"chosen per unit; remove the key",
        )
        matrix_table = _section(data, "matrix")
        for key, values in matrix_table.items():
            _check_type(values, (list, tuple), f"matrix.{key}")
        workload = dict(sections["workload"])
        arrivals = dict(sections["arrivals"])
        power = dict(sections["power"])
        try:
            return cls(
                kind=data.get("kind", "comparison"),
                name=data.get("name", "scenario"),
                description=data.get("description", ""),
                taskset=_build_section(TasksetSpec, sections["taskset"], "taskset"),
                offline=_build_section(OfflineSpec, sections["offline"], "offline"),
                online=_build_section(OnlineSpec, sections["online"], "online"),
                workload=WorkloadSpec(model=workload.pop("model", "normal"), params=workload),
                arrivals=ArrivalsSpec(model=arrivals.pop("model", "periodic"), params=arrivals),
                power=PowerSpec(model=power.pop("model", "ideal"), params=power),
                simulation=_build_section(SimulationSpec, sections["simulation"], "simulation"),
                multicore=_build_section(MulticoreSpec, sections["multicore"], "multicore"),
                motivation=_build_section(MotivationSpec, sections["motivation"], "motivation"),
                matrix=tuple((key, tuple(values)) for key, values in matrix_table.items()),
            )
        except TypeError as error:
            raise ScenarioError(f"malformed scenario: {error}") from None


def _section(data: Mapping[str, Any], key: str) -> Dict[str, Any]:
    value = data.get(key, {})
    _check_type(value, (dict,), key)
    return dict(value)


def _build_section(cls, table: Dict[str, Any], where: str):
    fields = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = sorted(set(table) - fields)
    _require(not unknown, f"unknown keys {unknown} in [{where}]; known: {sorted(fields)}")
    return cls(**table)


def _set_dotted(data: Dict[str, Any], dotted: str, value: Any) -> None:
    """Set ``data["a"]["b"] = value`` for ``dotted == "a.b"`` (creating tables)."""
    parts = dotted.split(".")
    cursor = data
    for part in parts[:-1]:
        cursor = cursor.setdefault(part, {})
        if not isinstance(cursor, dict):
            raise ScenarioError(f"matrix key {dotted!r} does not address a table field")
    cursor[parts[-1]] = value
