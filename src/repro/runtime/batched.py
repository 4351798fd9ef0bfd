"""Lane engine: the vectorized simulator behind ``simulate_batch``.

The reference event loop of :mod:`repro.runtime.simulator` advances one
``(schedule, policy, generator)`` work unit at a time, one dispatch per
Python loop iteration; a Figure-6 sweep at paper scale runs hundreds of such
units over hundreds of hyperperiods each.  This module advances **many
(unit, hyperperiod) lanes per process in lock-step**.  Every simulation that
asks for the fast path (``SimulationConfig(fast_path=True)``, the default)
comes through here: comparisons and multicore cores call
:func:`simulate_batch` directly, ``DVSSimulator.run`` with a one-unit batch.

**Lanes and blocks.**  The runtime resets all job state at every hyperperiod
boundary, so a unit's hyperperiods are independent of each other except for
the order in which their energies are summed.  A *lane* is one
``(unit, hyperperiod)`` pair.  The engine runs in *blocks*: a block takes the
next ``B = max(1, LANE_BUDGET // live units)`` hyperperiods of every live
unit (fewer for a unit with fewer left), resets all of its lanes at once and
steps them together until every lane has finished its hyperperiod.  Per-job
state (``actual``, ``budget``, ``wc_remaining``, ``position``, ``finished``)
lives in 2-D ``(lane, job)`` NumPy arrays padded to the widest job count,
per-lane event cursors advance under vectorized masks, and each step
dispatches one job per lane with a handful of whole-array operations instead
of one Python event loop iteration per unit.  Lanes that finish early are
compacted out inside the block.  The static per-job tables (releases,
deadlines, entry budgets and end-times, dispatch ranks) are built once per
distinct ``(schedule, processor)`` — a sweep's units mostly share a few
schedules — and the workload draws stay per unit, so only the per-lane
dynamic state grows with ``B``.

**Lane budget.**  Each lock-step iteration costs a fixed number of NumPy
calls plus a small per-lane part, so the engine pays off only with width.
``LANE_BUDGET`` was chosen by timing the 240 units x 60 hyperperiods of the
benchmark's ``policy-sweep`` workload at several budgets (2-vCPU host):
one hyperperiod per block (240 lanes) took 0.73 s in 2,160 lock-step
iterations, 1,000 lanes (four hyperperiods per block) 0.43 s in 540, and
2,000-3,000 lanes only 0.39-0.38 s while a block's traced peak memory grew
from 6.4 to 10-14 MB.  It is a module constant, not an option.

**Determinism contract.**  For every unit the engine produces a
:class:`~repro.runtime.results.SimulationResult` that is *bitwise identical*
to the reference loop run on that unit alone:

* workload draws go through the unit's own generator with one
  :meth:`~repro.workloads.distributions.WorkloadModel.sample_batch` call per
  unit, which consumes the stream exactly as the reference loop's per-job
  scalar draws do (the RNG stream contract of ``sample_batch``), and the
  harness's SeedSequence-derived per-unit seeds reproduce the serial
  results bit for bit;
* mask-based job selection picks the minimum dispatch rank over the eligible
  set, which is the job the reference loop's ``min()`` over ``sort_key``
  selects (the ranks are a strict total order on that same key);
* every floating-point quantity of one hyperperiod is produced by the same
  IEEE-754 operations in the same order as the reference loop produces it
  for that hyperperiod (NumPy element-wise float64 arithmetic is
  bitwise-identical to Python float arithmetic);
* at each block end the lanes are *folded* into their units in hyperperiod
  order: ``energy_per_hyperperiod`` and the deadline misses are appended lane
  by lane, the transition energy is added hyperperiod by hyperperiod, and
  ``energy_by_task`` is a sequential fold over every lane's logged dispatch
  segments.  The reference loop adds each segment to one run-wide dict, so
  summing per-hyperperiod partial sums instead would re-associate the sum and
  change its bits.  The fold also keeps the first-touch key order of
  ``energy_by_task``.

**Fallback.**  The vectorized core covers the four built-in policies (their
arithmetic — ``static`` and ``greedy`` first and foremost, plus ``lookahead``
and ``proportional`` — is branch-free enough to express with masks), the
linear delay law, the stock :class:`~repro.power.transition.TransitionModel`
and the default ``record``/no-timeline/continuous-voltage configuration.
Arrival models (release jitter) are vectorized too: every unit's offsets are
drawn in one :meth:`~repro.workloads.arrivals.ArrivalModel.sample_offsets`
call before its workload draw — the reference loop's exact stream order —
and jittered lanes derive their dispatch ranks with one row ``lexsort`` (the
same strict total order the reference loop sorts by).
Anything else — subclassed policies (whose hooks and overrides must observe
the exact scalar call sequence), CMOS-law processors, discrete voltage
levels, recorded timelines, event tracing (``SimulationConfig(trace=True)``),
``on_deadline_miss="raise"``, and units that ask for the reference loop
(``SimulationConfig(fast_path=False)``) — runs *per unit* on the reference
loop (:func:`run_compiled`), so a mixed batch still returns the right result
for every unit.  Each fallback counts one ``sim.batch_fallback.<reason>``
telemetry counter.  Policy lifecycle hooks are not invoked from the
vectorized core (the built-in policies define them as no-ops, which is part
of the gate); ``on_simulation_start`` is still called per unit for symmetry
with the reference loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..offline.schedule import StaticSchedule
from ..power.processor import ProcessorModel
from ..telemetry.core import current as _telemetry
from ..power.transition import TransitionModel
from ..workloads.distributions import NormalWorkload, WorkloadModel
from .policies import (
    DVSPolicy,
    GreedySlackPolicy,
    LookaheadSlackPolicy,
    ProportionalSlackPolicy,
    StaticReplayPolicy,
    get_policy,
)
from .results import DeadlineMiss, SimulationResult
from .simulator import DVSSimulator, SimulationConfig, planned_frequency_array

__all__ = ["BatchUnit", "LANE_BUDGET", "simulate_batch", "batch_fallback_reason"]

_EPS = 1e-9

#: Lock-step width a block aims for, in (unit, hyperperiod) lanes: a block
#: advances ``max(1, LANE_BUDGET // live units)`` hyperperiods of every live
#: unit.  Chosen by measurement (see the module docstring).
LANE_BUDGET = 1000

#: Rank-padding sentinel: real dispatch ranks are tiny (< n_jobs), so a
#: surviving sentinel after the masked min means "no eligible job".
_NO_RANK = np.int64(2**31)

#: Policy types the vectorized core reproduces exactly (checked by *exact*
#: type: a subclass may override hooks or arithmetic and must take the
#: reference loop, which honours the full scalar call sequence).
_POLICY_IDS = {
    StaticReplayPolicy: 0,
    GreedySlackPolicy: 1,
    LookaheadSlackPolicy: 2,
    ProportionalSlackPolicy: 3,
}


@dataclass
class BatchUnit:
    """One simulation work unit of a batch.

    ``rng`` must be positioned exactly where the reference loop's generator
    would be (the harness passes ``np.random.default_rng(seed)`` with the
    unit's own derived seed); ``workload`` defaults to the paper's
    :class:`~repro.workloads.distributions.NormalWorkload`.
    """

    schedule: StaticSchedule
    processor: ProcessorModel
    policy: Union[DVSPolicy, str]
    config: SimulationConfig
    workload: Optional[WorkloadModel] = None
    rng: Optional[np.random.Generator] = None

    def resolved(self) -> "BatchUnit":
        policy = get_policy(self.policy) if isinstance(self.policy, str) else self.policy
        workload = self.workload if self.workload is not None else NormalWorkload()
        rng = self.rng if self.rng is not None else np.random.default_rng(self.config.seed)
        return BatchUnit(schedule=self.schedule, processor=self.processor, policy=policy,
                         config=self.config, workload=workload, rng=rng)


def batch_fallback_reason(unit: BatchUnit) -> Optional[str]:
    """Why ``unit`` must run on the reference loop (``None`` = vectorizable)."""
    return _unit_fallback_reason(unit) or _schedule_fallback_reason(unit.schedule)


def _unit_fallback_reason(unit: BatchUnit) -> Optional[str]:
    if not unit.config.fast_path:
        return "fast_path=False"
    policy = unit.policy
    if isinstance(policy, str):
        policy = get_policy(policy)
    if type(policy) not in _POLICY_IDS:
        return f"policy type {type(policy).__name__} is not a built-in"
    config = unit.config
    if config.record_timeline:
        return "record_timeline"
    if config.trace:
        return "trace"
    if config.on_deadline_miss != "record":
        return f"on_deadline_miss={config.on_deadline_miss!r}"
    if config.voltage_levels is not None:
        return "discrete voltage levels"
    if type(config.transition_model) is not TransitionModel:
        return f"transition model type {type(config.transition_model).__name__}"
    if unit.processor.law != "linear":
        return f"processor law {unit.processor.law!r}"
    return None


def _schedule_fallback_reason(schedule: StaticSchedule) -> Optional[str]:
    instances = schedule.expansion.instances
    if not instances:
        return "empty schedule"
    if any(not schedule.entries_for_instance(instance) for instance in instances):
        return "job without schedule entries"
    return None


def run_compiled(unit: BatchUnit) -> SimulationResult:
    """Run one resolved unit that the lane engine does not cover on the reference loop.

    The name is historical: this route once ran a per-unit compiled event
    loop.  It stays because the benchmark's layer tracer
    (``perfbench/tracer.py``) counts ``runtime.batch_fallbacks`` by wrapping
    this module attribute by name; it goes once the tracer counts the
    ``sim.batch_fallback.*`` counters instead.  It calls ``_run_reference``,
    not ``DVSSimulator.run``, which would come back here.
    """
    simulator = DVSSimulator(unit.processor, policy=unit.policy, config=unit.config)
    return simulator._run_reference(unit.schedule, unit.workload, unit.rng)


def simulate_batch(units: Sequence[BatchUnit]) -> List[SimulationResult]:
    """Simulate every unit; bitwise-identical to one reference-loop run per unit."""
    telemetry = _telemetry()
    resolved = [unit.resolved() for unit in units]
    results: List[Optional[SimulationResult]] = [None] * len(resolved)
    vectorized: List[int] = []
    # The per-schedule part of the gate, once per schedule (units mostly
    # share a few), keyed by identity while ``resolved`` keeps them alive.
    schedule_reasons: Dict[int, Optional[str]] = {}
    for index, unit in enumerate(resolved):
        reason = _unit_fallback_reason(unit)
        if reason is None:
            key = id(unit.schedule)
            if key not in schedule_reasons:
                schedule_reasons[key] = _schedule_fallback_reason(unit.schedule)
            reason = schedule_reasons[key]
        if reason is None:
            vectorized.append(index)
            continue
        telemetry.count("sim.batch_fallback." + reason)
        with telemetry.span("sim.fallback_unit"):
            results[index] = run_compiled(unit)
    if vectorized:
        telemetry.count("sim.batched_units", len(vectorized))
        with telemetry.span("sim.batch"):
            engine = _SoAEngine([resolved[index] for index in vectorized])
            for index, result in zip(vectorized, engine.run()):
                results[index] = result
    return results  # type: ignore[return-value]


class _CompiledSchedule:
    """Per-job tables of one schedule: the rows ``_SoAEngine`` pads and stacks.

    Built once per distinct ``(schedule, processor)`` of a batch.  Entries
    are grouped per job, in ``expansion.instances`` order, as plain lists.
    """

    def __init__(self, schedule: StaticSchedule, processor: ProcessorModel) -> None:
        expansion = schedule.expansion
        self.hyperperiod = expansion.horizon
        self.instances = list(expansion.instances)
        self.tasks = [instance.task for instance in self.instances]
        self.n_jobs = len(self.instances)
        planned = planned_frequency_array(schedule, processor)
        entries = [schedule.entries_for_instance(instance) for instance in self.instances]
        self.entry_budgets = [[entry.wc_budget for entry in job] for job in entries]
        self.entry_end_times = [[entry.end_time for entry in job] for job in entries]
        self.entry_slot_starts = [[entry.sub.slot_start for entry in job] for job in entries]
        self.entry_planned = [[float(planned[entry.order]) for entry in job] for job in entries]
        self.releases = [instance.release for instance in self.instances]
        self.deadlines = [instance.deadline for instance in self.instances]
        self.priorities = [instance.priority for instance in self.instances]
        self.wcecs = [instance.wcec for instance in self.instances]
        self.task_names = [task.name for task in self.tasks]
        self.job_indices = [instance.job_index for instance in self.instances]
        self.ceffs = [task.ceff for task in self.tasks]
        # Dispatch rank of every job: its place in the reference loop's
        # ``sort_key`` order (priority, release, task name, job index), a
        # strict total order because task name and job index are unique.
        self.job_of_rank = sorted(range(self.n_jobs), key=lambda j: (
            self.priorities[j], self.releases[j], self.task_names[j], self.job_indices[j]))
        self.rank_of_job = [0] * self.n_jobs
        for rank, job in enumerate(self.job_of_rank):
            self.rank_of_job[job] = rank


class _SoAEngine:
    """Lock-step structure-of-arrays event loop over (unit, hyperperiod) lanes.

    Shapes: ``U`` units, ``S`` distinct ``(schedule, processor)`` pairs,
    ``L`` lanes of the current block, ``J`` = widest job count, ``E`` =
    widest per-job entry count, ``T`` = widest task count.  Padding jobs are
    permanently ``finished``; padding entries are never addressed because
    ``position`` stays within each job's real entry range.
    """

    #: Field order of the packed per-(lane, job) hot state, axis 2 of
    #: ``jobpack``.  The first three columns are the ones ``_execute``
    #: writes back; the rest are read-only within a dispatch.
    _JOBPACK_FIELDS = ("budget", "actual", "wc_rem", "cur_end_abs",
                       "cur_planned", "dl_abs", "fin_abs", "ceff",
                       "position", "last_entry", "task_of_job")
    #: Jobpack columns that hold absolute times (relative time + lane offset).
    _ABSOLUTE_COLUMNS = [3, 5, 6]

    #: Per-unit constants copied onto the lanes at every block start.
    _LANE_CONSTANTS = ("fmax", "vmax", "vmin", "k", "fmin", "trans_free",
                       "trans_ec", "policy_id")

    def _bind_jobpack_views(self) -> None:
        """(Re)bind the named 2-D attribute views into ``jobpack``."""
        for i, name in enumerate(self._JOBPACK_FIELDS):
            setattr(self, name, self.jobpack[:, :, i])

    def __init__(self, units: List[BatchUnit]) -> None:
        self.units = units
        U = len(units)
        # One set of per-job tables and padded static rows per distinct
        # (schedule, processor): the units of a sweep mostly share schedules.
        compiled: List[_CompiledSchedule] = []
        index_of_pair: Dict[Tuple[int, ProcessorModel], int] = {}
        unit_sched: List[int] = []
        for unit in units:
            pair = (id(unit.schedule), unit.processor)
            if pair not in index_of_pair:
                index_of_pair[pair] = len(compiled)
                compiled.append(_CompiledSchedule(unit.schedule, unit.processor))
            unit_sched.append(index_of_pair[pair])
        self.unit_sched = np.array(unit_sched, dtype=np.intp)
        S = len(compiled)
        J = max(c.n_jobs for c in compiled)
        E = max(max(len(b) for b in c.entry_budgets) for c in compiled)

        # ------------------------------------------------------------------ #
        # Per-schedule static tables, padded to J jobs and E entries.
        # ------------------------------------------------------------------ #
        self.n_jobs = np.array([c.n_jobs for c in compiled], dtype=np.int64)
        self.hyperperiod = np.array([c.hyperperiod for c in compiled], dtype=float)
        # The lane jobpack's starting values, with times relative to the
        # hyperperiod start; a block start gathers it per lane, adds each
        # lane's offset to the absolute-time columns and fills ``actual``.
        self.pack_template = np.zeros((S, J, len(self._JOBPACK_FIELDS)), dtype=float)
        self.pack_template[:, :, self._JOBPACK_FIELDS.index("ceff")] = 1.0
        template = {name: self.pack_template[:, :, i]
                    for i, name in enumerate(self._JOBPACK_FIELDS)}
        self.valid = np.zeros((S, J), dtype=bool)
        self.rel = np.zeros((S, J), dtype=float)
        self.wcec = np.zeros((S, J), dtype=float)
        self.sched_rank = np.full((S, J), 2**31, dtype=np.int64)
        self.sched_job_of_rank = np.zeros((S, J), dtype=np.int64)
        # Dispatch-rank sort keys, needed only by jittered lanes: priority
        # (+inf padding keeps padding jobs behind every real job) and the
        # rank of the unique (task name, job index) pair — an
        # order-isomorphic integer stand-in for the reference loop's string
        # tiebreak, so one row lexsort reproduces its sort exactly.
        self.prio = np.full((S, J), np.inf, dtype=float)
        self.tiebreak = np.zeros((S, J), dtype=np.int64)
        self.entry_budget = np.zeros((S, J, E), dtype=float)
        self.entry_end = np.zeros((S, J, E), dtype=float)
        self.entry_slot = np.zeros((S, J, E), dtype=float)
        self.entry_planned = np.zeros((S, J, E), dtype=float)

        self.task_names: List[List[str]] = []
        self.job_names: List[List[str]] = []
        self.job_indices: List[List[int]] = []
        for s, c in enumerate(compiled):
            n = c.n_jobs
            self.valid[s, :n] = True
            self.rel[s, :n] = c.releases
            self.wcec[s, :n] = c.wcecs
            self.sched_rank[s, :n] = c.rank_of_job
            self.sched_job_of_rank[s, :n] = c.job_of_rank
            self.prio[s, :n] = c.priorities
            order = sorted(range(n), key=lambda j: (c.task_names[j], c.job_indices[j]))
            for tb, j in enumerate(order):
                self.tiebreak[s, j] = tb
            template["dl_abs"][s, :n] = c.deadlines
            template["ceff"][s, :n] = c.ceffs
            names: List[str] = []
            index_of: Dict[str, int] = {}
            for j in range(n):
                budgets = c.entry_budgets[j]
                # A job's first budget, its whole worst-case budget (summed
                # as the reference loop's ``_JobState`` sums it) and its last
                # planned end-time, the look-ahead horizon.
                template["budget"][s, j] = budgets[0]
                template["wc_rem"][s, j] = sum(budgets)
                template["fin_abs"][s, j] = c.entry_end_times[j][-1]
                template["last_entry"][s, j] = len(budgets) - 1
                self.entry_budget[s, j, :len(budgets)] = budgets
                self.entry_end[s, j, :len(budgets)] = c.entry_end_times[j]
                self.entry_slot[s, j, :len(budgets)] = c.entry_slot_starts[j]
                self.entry_planned[s, j, :len(budgets)] = c.entry_planned[j]
                name = c.task_names[j]
                if name not in index_of:
                    index_of[name] = len(names)
                    names.append(name)
                template["task_of_job"][s, j] = index_of[name]
            self.task_names.append(names)
            self.job_names.append(list(c.task_names))
            self.job_indices.append(list(c.job_indices))
        template["cur_end_abs"][:] = self.entry_end[:, :, 0]
        template["cur_planned"][:] = self.entry_planned[:, :, 0]
        T = max(len(names) for names in self.task_names)

        # ------------------------------------------------------------------ #
        # Per-unit constants and workload draws.
        # ------------------------------------------------------------------ #
        self.n_hp = np.array([u.config.n_hyperperiods for u in units], dtype=np.int64)
        # Linear-law processor and transition constants.  ``fmin`` is the
        # same computation as the ``ProcessorModel.fmin`` property
        # (vmin / k); transition_energy computes efficiency_loss * cdd *
        # |dv²| with this exact association (left-to-right), so the
        # pre-multiplied ``trans_ec`` is bitwise-equivalent.
        self.per_unit = {
            "fmax": np.array([u.processor.fmax for u in units], dtype=float),
            "vmax": np.array([u.processor.vmax for u in units], dtype=float),
            "vmin": np.array([u.processor.vmin for u in units], dtype=float),
            "k": np.array([u.processor._k for u in units], dtype=float),
            "fmin": np.array([u.processor.fmin for u in units], dtype=float),
            "trans_free": np.array(
                [u.config.transition_model.is_free for u in units], dtype=bool),
            "trans_ec": np.array(
                [u.config.transition_model.efficiency_loss * u.config.transition_model.cdd
                 for u in units], dtype=float),
            "policy_id": np.array(
                [_POLICY_IDS[type(u.policy)] for u in units], dtype=np.int64),
        }

        # Whole-run workload draws, one sample_batch call per unit (the
        # bitwise RNG-stream contract with the reference loop's draws), rows
        # padded to (widest horizon, J) so a block start is one gather.
        # Arrival jitter is drawn first, per unit, mirroring the reference
        # loop's stream order (jitter draw, then workload draw); units without an
        # arrival model make no draw, and with none in the batch there is no
        # jitter table at all.
        self.has_jitter = np.array(
            [unit.config.arrivals is not None for unit in units], dtype=bool)
        H = int(self.n_hp.max())
        self.jitter_arr = (np.zeros((U, H, J), dtype=float)
                           if self.has_jitter.any() else None)
        self.samples_arr = np.zeros((U, H, J), dtype=float)
        for u, unit in enumerate(units):
            c = compiled[unit_sched[u]]
            if unit.config.arrivals is not None:
                offs = unit.config.arrivals.sample_offsets(
                    unit.rng, c.instances, int(self.n_hp[u]))
                self.jitter_arr[u, :int(self.n_hp[u]), :c.n_jobs] = offs
            drawn = unit.workload.sample_batch(unit.rng, c.tasks, int(self.n_hp[u]))
            self.samples_arr[u, :int(self.n_hp[u]), :c.n_jobs] = drawn

        # ------------------------------------------------------------------ #
        # Per-unit run-wide results, folded from the lanes at each block end.
        # ------------------------------------------------------------------ #
        self.hp_done = np.zeros(U, dtype=np.int64)
        self.trans_total = np.zeros(U, dtype=float)
        self.task_energy = np.zeros((U, T), dtype=float)
        self.task_touched = np.zeros((U, T), dtype=bool)
        self.task_order: List[List[int]] = [[] for _ in range(U)]
        self.energy_per_hp: List[List[float]] = [[] for _ in range(U)]
        self.misses: List[List[DeadlineMiss]] = [[] for _ in range(U)]
        self.results: List[Optional[SimulationResult]] = [None] * U

        # Voltage history only feeds transition accounting; with every model
        # free the charge is identically zero, so tracking can be skipped.
        self.track_voltage = not bool(np.all(self.per_unit["trans_free"]))

    # ------------------------------------------------------------------ #
    # Blocks
    # ------------------------------------------------------------------ #
    def run(self) -> List[SimulationResult]:
        for unit in self.units:
            unit.policy.on_simulation_start(unit.schedule, unit.processor)
        telemetry = _telemetry()
        with np.errstate(divide="ignore", invalid="ignore"):
            while True:
                live = np.nonzero(self.hp_done < self.n_hp)[0]
                if not live.size:
                    break
                counts = np.minimum(max(1, LANE_BUDGET // live.size),
                                    self.n_hp[live] - self.hp_done[live])
                telemetry.count("sim.lane_blocks")
                telemetry.observe("sim.soa_width", float(counts.sum()))
                self._start_block(live, counts)
                while True:
                    if self._want_compact:
                        self._compact()
                        self._want_compact = False
                    if not self.active.any():
                        break
                    self._step()
                self._fold_block(live, counts)
        return self.results  # type: ignore[return-value]

    def _start_block(self, live: np.ndarray, counts: np.ndarray) -> None:
        """Reset one lane per (live unit, hyperperiod) of the block.

        Mirrors the reference loop's per-hyperperiod ``_build_jobs`` and
        set-up of ``_simulate_hyperperiod``, for every lane at once.  Lanes are laid
        out unit by unit, hyperperiods ascending, and ``lane_id`` keeps that
        position through compaction: it is the fold order.
        """
        lane_unit = np.repeat(live, counts)
        L = lane_unit.size
        first_lane = np.repeat(np.cumsum(counts) - counts, counts)
        lane_hp = self.hp_done[lane_unit] + (np.arange(L) - first_lane)
        sched = self.unit_sched[lane_unit]
        J = int(self.n_jobs[sched].max())
        self.lane_id = np.arange(L)
        self.lane_sched = sched
        self.lane_hp = lane_hp
        self.lane_range = np.arange(L)
        for name in self._LANE_CONSTANTS:
            setattr(self, name, self.per_unit[name][lane_unit])

        offset = lane_hp * self.hyperperiod[sched]
        off = offset[:, None]
        self.offset = offset
        cycles = np.minimum(np.maximum(self.samples_arr[lane_unit, lane_hp, :J], 0.0),
                            self.wcec[sched, :J])
        # The jobpack: every hot per-(lane, job) float column the dispatch
        # kernel touches, packed into one contiguous (L, J, 11) array.  The
        # named attributes are 2-D *views* into it (rebound by
        # :meth:`_bind_jobpack_views` whenever the pack is reallocated), so
        # all bookkeeping code reads naturally while ``_execute`` pays one
        # fancy-index gather and one scatter per step instead of ~15.
        # ``position``/``last_entry``/``task_of_job`` ride along as floats
        # (small integers, exact in float64) and are cast at their few index
        # uses.
        self.jobpack = self.pack_template[sched, :J]
        self.jobpack[:, :, self._ABSOLUTE_COLUMNS] += off[:, :, None]
        self._bind_jobpack_views()
        self.actual[:] = cycles
        valid = self.valid[sched, :J]
        self.unfinished = (cycles > _EPS) & valid
        #: Jobs whose current entry budget is exhausted but whose position has
        #: not been advanced yet (maintained incrementally at dispatch/reset
        #: time so the step loop never scans all budgets).
        self.pending_advance = (self.budget <= _EPS) & (self.last_entry > 0)
        rel_abs = self.rel[sched, :J] + off
        self.rank = self.sched_rank[sched, :J]
        self.job_of_rank = self.sched_job_of_rank[sched, :J]
        if self.jitter_arr is not None:
            jm = self.has_jitter[lane_unit]
            if jm.any():
                # Release jitter, added after the offset — the reference loop's
                # exact association (release + offset, then += jitter).
                # All-zero jitter rows (PeriodicArrivals) are bitwise no-ops.
                jittered = np.nonzero(jm)[0]
                rel_abs[jittered] += self.jitter_arr[lane_unit[jittered], lane_hp[jittered], :J]
                # Jittered releases reshuffle the dispatch order: derive the
                # rank permutation exactly as the reference loop ranks jobs —
                # by (priority, absolute release, task name, job index), the
                # last two standing in as the precomputed integer
                # ``tiebreak``.  np.lexsort's primary key is the *last* one.
                js = sched[jittered]
                order = np.lexsort(
                    (self.tiebreak[js, :J], rel_abs[jittered], self.prio[js, :J]), axis=-1)
                self.job_of_rank[jittered] = order
                ranks = np.empty_like(order)
                np.put_along_axis(
                    ranks, order,
                    np.broadcast_to(np.arange(order.shape[1]), order.shape),
                    axis=1)
                # Padding jobs pick up small ranks here (their +inf priority
                # sorts them last); harmless — they are never eligible, and
                # the masked rank reduction only looks at eligible jobs.
                self.rank[jittered] = ranks
        self.rel_abs = rel_abs
        # Sorted *absolute* release times with a +inf sentinel column: the
        # per-lane release cursor indexes this row to find the next release.
        # (Absolute, not relative-plus-offset, because jittered releases do
        # not decompose.)
        self.rel_sorted = np.full((L, J + 1), np.inf, dtype=float)
        self.rel_sorted[:, :J] = np.sort(np.where(valid, rel_abs, np.inf), axis=1)
        self.cur_slot_abs = self.entry_slot[sched, :J, 0] + off
        self.cursor = np.zeros(L, dtype=np.int64)
        self.time = offset.copy()
        self.active = np.ones(L, dtype=bool)
        self.has_voltage = np.zeros(L, dtype=bool)
        self.cur_voltage = np.zeros(L, dtype=float)
        self.energy_hp = np.zeros(L, dtype=float)
        self.trans_hp = np.zeros(L, dtype=float)
        #: Distinct policy ids among the lanes (recomputed on compaction).
        self.pid_list = sorted(set(self.policy_id.tolist()))
        # Per-lane outcomes, by lane id, written as each lane finishes.
        self.block_energy = np.zeros(L, dtype=float)
        self.block_trans = np.zeros(L, dtype=float)
        #: Dispatch log for the ``energy_by_task`` fold: one (lane ids, task
        #: indices, segment energies) triple per step, in step order.
        self.segments: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: (lane id, miss) in the order the misses happened.
        self.block_misses: List[Tuple[int, DeadlineMiss]] = []
        self._want_compact = False

    def _finish_lanes(self, lanes: np.ndarray) -> None:
        """Retire lanes whose hyperperiod is over; their outcomes wait for the fold."""
        ids = self.lane_id[lanes]
        self.block_energy[ids] = self.energy_hp[lanes]
        self.block_trans[ids] = self.trans_hp[lanes]
        self.active[lanes] = False
        remaining = int(self.active.sum())
        if remaining <= 0.75 * self.active.size and self.active.size >= 8:
            self._want_compact = True

    def _fold_block(self, live: np.ndarray, counts: np.ndarray) -> None:
        """Fold the block's lanes into their units, in hyperperiod order.

        Every run-wide sum is extended exactly as the reference loop extends
        it: hyperperiod by hyperperiod for the energies and the transition
        energy, and segment by segment for ``energy_by_task``.
        """
        ends = np.cumsum(counts)
        starts = ends - counts
        energies = self.block_energy.tolist()
        for u, start, end in zip(live.tolist(), starts.tolist(), ends.tolist()):
            self.energy_per_hp[u].extend(energies[start:end])
        for b in range(int(counts.max())):
            has = counts > b
            self.trans_total[live[has]] += self.block_trans[starts[has] + b]
        # Lane ids ascend in (unit, hyperperiod) order, so a stable sort by
        # lane id puts every unit's events in the reference loop's order.
        unit_of_lane = np.repeat(live, counts)
        for lane, miss in sorted(self.block_misses, key=itemgetter(0)):
            self.misses[unit_of_lane[lane]].append(miss)
        if self.segments:
            lanes, tasks, energy = (np.concatenate(column) for column in zip(*self.segments))
            order = np.argsort(lanes, kind="stable")
            units = unit_of_lane[lanes[order]]
            tasks = tasks[order]
            fresh = ~self.task_touched[units, tasks]
            if fresh.any():
                # First touch in fold order fixes energy_by_task's key order.
                fresh_units = units[fresh]
                fresh_tasks = tasks[fresh]
                T = self.task_energy.shape[1]
                _, first = np.unique(fresh_units * T + fresh_tasks, return_index=True)
                for i in np.sort(first).tolist():
                    u, t = int(fresh_units[i]), int(fresh_tasks[i])
                    self.task_touched[u, t] = True
                    self.task_order[u].append(t)
            # ufunc.at applies the additions one by one, in index order: a
            # sequential fold per (unit, task), as the reference dict update.
            np.add.at(self.task_energy.reshape(-1),
                      units * self.task_energy.shape[1] + tasks, energy[order])
        self.hp_done[live] += counts
        for u in live[self.hp_done[live] >= self.n_hp[live]].tolist():
            self.results[u] = self._result(u)

    # Lane attributes compacted together, grouped by shape.
    _LANE_1D = ("lane_id", "lane_sched", "lane_hp", "active", "time",
                "offset", "cursor", "has_voltage", "cur_voltage", "energy_hp",
                "trans_hp") + _LANE_CONSTANTS
    _LANE_2D = ("rank", "job_of_rank", "unfinished", "pending_advance", "rel_abs",
                "cur_slot_abs")

    def _compact(self) -> None:
        """Drop finished lanes and re-pad to the surviving job width.

        Lanes finish at very different times (heterogeneous schedules and
        draws), so without compaction every step keeps paying for the
        widest, longest lane of the block.  Pure row slicing — the surviving
        lanes' values are untouched, so results stay bitwise identical.
        """
        keep = np.nonzero(self.active)[0]
        if keep.size == self.active.size:
            return
        if keep.size == 0:
            self.active = self.active[:0]
            return
        J = int(self.n_jobs[self.lane_sched[keep]].max())
        for name in self._LANE_1D:
            setattr(self, name, getattr(self, name)[keep])
        for name in self._LANE_2D:
            setattr(self, name, getattr(self, name)[keep][:, :J])
        self.rel_sorted = self.rel_sorted[keep][:, :J + 1]
        self.jobpack = self.jobpack[keep][:, :J]
        self._bind_jobpack_views()
        self.lane_range = np.arange(keep.size)
        self.pid_list = sorted(set(self.policy_id.tolist()))

    # ------------------------------------------------------------------ #
    # Lock-step loop
    # ------------------------------------------------------------------ #
    def _step(self) -> None:
        active = self.active
        t_eps = self.time + _EPS
        # Finished lanes keep an all-False ``unfinished`` row, so ``live``
        # needs no explicit ``active`` term.
        released = self.rel_abs <= t_eps[:, None]
        live = released & self.unfinished

        # Advance positions past exhausted budgets (the eligible_time /
        # current_entry side effect), to convergence.  ``pending_advance``
        # already knows every exhausted budget, so no full scan is needed.
        advance = self.pending_advance & live
        while advance.any():
            uu, jj = np.nonzero(advance)
            ss = self.lane_sched[uu]
            self.position[uu, jj] += 1.0
            pp = self.position[uu, jj].astype(np.intp)
            self.budget[uu, jj] = self.entry_budget[ss, jj, pp]
            self.cur_slot_abs[uu, jj] = self.entry_slot[ss, jj, pp] + self.offset[uu]
            self.cur_end_abs[uu, jj] = self.entry_end[ss, jj, pp] + self.offset[uu]
            self.cur_planned[uu, jj] = self.entry_planned[ss, jj, pp]
            self.pending_advance[uu, jj] = (self.budget[uu, jj] <= _EPS) & \
                (pp < self.last_entry[uu, jj])
            advance = self.pending_advance & live

        # A live job is eligible once its slot has started: live already
        # implies released, so max(release, slot_start) <= t reduces to the
        # slot comparison.
        eligible = live & (self.cur_slot_abs <= t_eps[:, None])
        # One masked reduction answers both questions at once: the minimum
        # dispatch rank over the eligible set is the ready-heap pop (ranks are
        # a per-lane permutation, so ``job_of_rank`` inverts the winner), and
        # the initial value surviving means nothing was eligible.  Min over a
        # set of distinct ints picks the same element as argmin over the
        # penalty formulation — bitwise-identical dispatch order.
        min_rank = np.min(self.rank, axis=1, initial=_NO_RANK, where=eligible)
        any_eligible = min_rank < _NO_RANK

        # Next release per lane: first sorted release strictly beyond time+eps
        # (``rel_sorted`` already holds absolute times).
        next_release = self.rel_sorted[self.lane_range, self.cursor]
        behind = active & (next_release <= t_eps)
        while behind.any():
            self.cursor[behind] += 1
            next_release = self.rel_sorted[self.lane_range, self.cursor]
            behind = active & (next_release <= t_eps)

        executing = active & any_eligible
        stalled = active ^ executing
        if stalled.any():
            self._resolve_stalls(stalled, live, next_release)
        if executing.any():
            lanes = np.nonzero(executing)[0]
            self._execute(lanes, self.job_of_rank[lanes, min_rank[lanes]],
                          next_release)

    def _resolve_stalls(self, stalled: np.ndarray, live: np.ndarray,
                        next_release: np.ndarray) -> None:
        # Stalled lanes are few; compress to them before any (lane, job) work.
        rows = np.nonzero(stalled)[0]
        live_rows = live[rows]
        any_live = live_rows.any(axis=1)
        throttled = rows[any_live]
        if throttled.size:
            # Earliest wake-up among live jobs — max(release, slot_start) —
            # capped by the next release: exactly the reference loop's
            # wake-up jump.  (Masked min reduction; min is
            # order-exact, so bitwise-equal to the where/inf formulation.)
            eligible_at = np.maximum(self.rel_abs[throttled],
                                     self.cur_slot_abs[throttled])
            wake = np.min(eligible_at, axis=1, initial=np.inf,
                          where=live_rows[any_live])
            wake = np.minimum(wake, next_release[throttled])
            self.time[throttled] = np.maximum(self.time[throttled], wake)
        idle = rows[~any_live]
        if idle.size:
            release = next_release[idle]
            finite = np.isfinite(release)
            jump = idle[finite]
            if jump.size:
                self.time[jump] = np.maximum(self.time[jump], release[finite])
            done = idle[~finite]
            if done.size:
                self._finish_lanes(done)

    def _execute(self, lanes: np.ndarray, sel: np.ndarray,
                 next_release: np.ndarray) -> None:
        # ``sel`` is the dispatched job per lane, already resolved in _step
        # from the masked rank reduction.  One fused gather pulls every hot
        # per-(lane, job) column out of the jobpack at once.
        pack = self.jobpack[lanes, sel]
        b_sel = pack[:, 0]
        a_sel = pack[:, 1]
        wc_sel = pack[:, 2]
        end_abs = pack[:, 3]
        planned = pack[:, 4]
        dl_abs = pack[:, 5]
        fin_abs = pack[:, 6]
        ceff_sel = pack[:, 7]
        position = pack[:, 8]
        last_entry = pack[:, 9]
        tasks = pack[:, 10].astype(np.intp)
        now = self.time[lanes]
        fmax = self.fmax[lanes]
        fmin = self.fmin[lanes]

        frequency = self._policy_frequency(
            lanes, now, end_abs, b_sel, planned, wc_sel, dl_abs, fin_abs, fmin, fmax)

        # voltage_for_frequency, linear law, branch ladder in priority order.
        vmin = self.vmin[lanes]
        vmax = self.vmax[lanes]
        voltage = np.minimum(np.maximum(frequency * self.k[lanes], vmin), vmax)
        voltage = np.where(frequency <= fmin, vmin, voltage)
        voltage = np.where(frequency >= fmax, vmax, voltage)
        voltage = np.where(frequency <= 0.0, vmin, voltage)
        frequency = voltage / self.k[lanes]

        budget_cycles = np.maximum(np.minimum(b_sel, a_sel), 0.0)
        zero = budget_cycles <= _EPS
        if zero.any():
            # After the position advance above, a zero-cycle dispatch of a
            # live job (actual > eps) implies budget <= eps at the last
            # entry: the numerical fringe, which finishes at fmax/vmax.  The
            # reference loop's requeue branch is unreachable under the same
            # invariants; guard it rather than silently stalling the lane.
            fringe = zero & (b_sel <= _EPS) & (position >= last_entry)
            if not bool(np.all(fringe[zero])):
                raise AssertionError(
                    "batched engine: zero-budget dispatch outside the fmax fringe")
            frequency = np.where(fringe, fmax, frequency)
            voltage = np.where(fringe, vmax, voltage)
            budget_cycles = np.where(fringe, a_sel, budget_cycles)

        # Transition accounting, after the zero-budget handling (the voltage
        # the dispatch actually executes at) — same order as the reference
        # loop.  Skipped wholesale when every model is free (the
        # voltage history then feeds nothing).
        if self.track_voltage:
            charge = self.has_voltage[lanes] & ~self.trans_free[lanes]
            if charge.any():
                previous = self.cur_voltage[lanes]
                delta = np.where(voltage == previous, 0.0,
                                 self.trans_ec[lanes] * np.abs(
                                     voltage * voltage - previous * previous))
                self.trans_hp[lanes] += np.where(charge, delta, 0.0)
            self.cur_voltage[lanes] = voltage
            self.has_voltage[lanes] = True

        duration = budget_cycles / frequency
        until_release = next_release[lanes] - now
        preempt = until_release < duration - _EPS
        duration = np.where(preempt, np.maximum(until_release, 0.0), duration)

        cycles = duration * frequency
        segment = cycles * ((ceff_sel * voltage) * voltage)
        self.energy_hp[lanes] += segment
        self.time[lanes] = now + duration
        self.segments.append((self.lane_id[lanes], tasks, segment))

        new_actual = np.maximum(a_sel - cycles, 0.0)
        new_budget = np.maximum(b_sel - cycles, 0.0)
        new_wc = np.maximum(wc_sel - cycles, 0.0)
        # One fused scatter writes the pack back: the three mutated columns
        # carry the new values, the rest rewrite their just-gathered values
        # (each (lane, sel) pair is unique, so the rewrite is a no-op).
        pack[:, 0] = new_budget
        pack[:, 1] = new_actual
        pack[:, 2] = new_wc
        self.jobpack[lanes, sel] = pack
        self.pending_advance[lanes, sel] = (new_budget <= _EPS) & \
            (position < last_entry)

        finished = new_actual <= _EPS
        if finished.any():
            self.unfinished[lanes[finished], sel[finished]] = False
            finish_time = self.time[lanes]
            missed = finished & (finish_time > dl_abs + 1e-6 * np.maximum(1.0, dl_abs))
            for where in np.nonzero(missed)[0]:
                lane = int(lanes[where])
                s = int(self.lane_sched[lane])
                j = int(sel[where])
                self.block_misses.append((int(self.lane_id[lane]), DeadlineMiss(
                    task_name=self.job_names[s][j],
                    job_index=self.job_indices[s][j],
                    hyperperiod_index=int(self.lane_hp[lane]),
                    deadline=float(dl_abs[where]),
                    finish_time=float(finish_time[where]),
                )))

    def _policy_frequency(self, lanes, now, end_abs, b_sel, planned, wc_sel,
                          dl_abs, fin_abs, fmin, fmax) -> np.ndarray:
        """Vectorized ``DVSPolicy.frequency`` of the built-in policies."""
        if len(self.pid_list) == 1:
            # Homogeneous lanes (the common sweep shape): no mask gathers.
            return self._policy_kernel(self.pid_list[0], now, end_abs, b_sel,
                                       planned, wc_sel, dl_abs, fin_abs,
                                       fmin, fmax)
        frequency = np.empty(lanes.size, dtype=float)
        policies = self.policy_id[lanes]
        for pid in self.pid_list:
            m = policies == pid
            if not m.any():
                continue
            frequency[m] = self._policy_kernel(
                pid, now[m], end_abs[m], b_sel[m], planned[m], wc_sel[m],
                dl_abs[m], fin_abs[m], fmin[m], fmax[m])
        return frequency

    @staticmethod
    def _policy_kernel(pid, now, end_abs, b_sel, planned, wc_sel,
                       dl_abs, fin_abs, fmin, fmax) -> np.ndarray:
        if pid == 0:  # static: clip_frequency(planned)
            return np.minimum(np.maximum(planned, fmin), fmax)
        if pid == 1:  # greedy: sub-instance budget over its end-time
            available = end_abs - now
            work = b_sel
        elif pid == 2:  # lookahead: job work over its final end-time
            # job_final_end_time is always finite here (every job has
            # entries, so it is the last entry's end-time), so
            # the policy's isfinite fallback never triggers.
            available = fin_abs - now
            work = wc_sel
        else:  # proportional: job work over its deadline
            available = dl_abs - now
            work = wc_sel
        f = np.minimum(np.maximum(work / available, fmin), fmax)
        f = np.where(available <= 0, fmax, f)
        return np.where(work <= 0, fmin, f)

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def _result(self, u: int) -> SimulationResult:
        unit = self.units[u]
        s = int(self.unit_sched[u])
        per_hp = self.energy_per_hp[u]
        energy_by_task = {
            self.task_names[s][t]: float(self.task_energy[u, t])
            for t in self.task_order[u]
        }
        return SimulationResult(
            method=unit.schedule.method,
            policy=unit.policy.name,
            n_hyperperiods=int(self.n_hp[u]),
            total_energy=float(sum(per_hp)),
            energy_per_hyperperiod=per_hp,
            transition_energy=float(self.trans_total[u]),
            energy_by_task=energy_by_task,
            deadline_misses=self.misses[u],
            jobs_completed=int(self.n_jobs[s] * self.n_hp[u]),
            timeline=None,
        )
