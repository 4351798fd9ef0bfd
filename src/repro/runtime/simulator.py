"""Discrete-event simulator of the frame-based preemptive DVS system.

The simulator executes a :class:`~repro.offline.schedule.StaticSchedule` for a
number of hyperperiods.  In every hyperperiod each job draws its *actual*
execution cycles from a workload model (the paper uses a normal distribution
truncated to [BCEC, WCEC]); the dispatcher is plain fixed-priority preemptive;
the speed of the running job is chosen by a pluggable
:class:`~repro.runtime.policies.DVSPolicy` from the static end-times — exactly
the runtime scheme of the paper.  Policies plug in without touching the event
loop: the loop only ever calls the :class:`~repro.runtime.policies.DVSPolicy`
interface (one speed query per dispatch plus the lifecycle hooks).

The reported "runtime energy consumption" (total and per hyperperiod) is the
quantity the paper's Figure 6 compares between ACS and WCS schedules.

This module holds the scalar reference event loop.  ``DVSSimulator.run``
hands the default configuration to the lane engine of
:mod:`repro.runtime.batched`, which produces bitwise-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.errors import SimulationError
from ..core.task import TaskInstance
from ..offline.schedule import ScheduledSubInstance, StaticSchedule
from ..power.processor import ProcessorModel
from ..power.transition import TransitionModel
from ..workloads.arrivals import ArrivalModel
from ..workloads.distributions import WorkloadModel, NormalWorkload
from .policies import DVSPolicy, GreedySlackPolicy, SpeedRequest, get_policy
from .results import DeadlineMiss, SimulationResult
from .trace import (
    DeadlineMiss as DeadlineMissEvent,
    EventTrace,
    FrequencyChange,
    HyperperiodReset,
    JobRelease,
    Preempt,
    Resume,
    SegmentEnd,
    SegmentStart,
)

__all__ = ["SimulationConfig", "DVSSimulator", "planned_frequency_array"]

_EPS = 1e-9


def planned_frequency_array(schedule: StaticSchedule, processor: ProcessorModel) -> np.ndarray:
    """Static worst-case frequency of every entry, indexed by total order.

    This is the single source of the "planned frequency" the static-replay
    policy runs at: the reference loop's string-keyed dictionary and the lane
    engine's per-job tables are both views of this array, so the two engines
    can never disagree.
    """
    frequencies = np.empty(len(schedule.entries), dtype=float)
    previous_end = 0.0
    for index, entry in enumerate(schedule.entries):
        planned_start = max(previous_end, entry.sub.slot_start)
        frequencies[index] = entry.planned_wc_speed(planned_start, processor)
        previous_end = max(previous_end, entry.end_time)
    return frequencies


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of a simulation run.

    Attributes
    ----------
    n_hyperperiods:
        How many hyperperiods to simulate (the paper uses 1000).
    seed:
        Seed of the workload random generator; ``None`` draws a fresh one.
    trace:
        Record the typed event stream of :mod:`repro.runtime.trace` on the
        result (``SimulationResult.trace``; memory-heavy, off by default).
        Tracing never changes the simulated behaviour: energies, misses
        and RNG consumption are bitwise-identical with tracing on or off,
        and when it is off no event object is allocated at all.  Only the
        reference loop traces: the lane engine cannot, so a traced unit runs
        on the reference loop (see
        :func:`repro.runtime.batched.batch_fallback_reason`).
    arrivals:
        Optional :class:`~repro.workloads.arrivals.ArrivalModel` perturbing
        job releases (e.g. sporadic bounded jitter).  ``None`` (default) is
        the paper's strictly periodic model and consumes no randomness; a
        model draws all of a run's offsets in one vectorized call *before*
        the workload draws, keeping both engines bitwise-identical.
    transition_model:
        Voltage-transition overhead model; the default is the paper's
        zero-cost assumption.  Only the *energy* overhead is charged; the
        latency is assumed hidden (see DESIGN.md).
    fast_path:
        Run on the lane engine of :mod:`repro.runtime.batched` (default)
        wherever it covers the configuration, and on the reference loop
        everywhere else (see
        :func:`repro.runtime.batched.batch_fallback_reason`).  ``False``
        pins the run to the reference loop, the oracle of the
        bitwise-equivalence suite; both produce identical results for
        identical seeds.
    """

    n_hyperperiods: int = 1
    seed: Optional[int] = None
    trace: bool = False
    arrivals: Optional[ArrivalModel] = None
    transition_model: TransitionModel = field(default_factory=TransitionModel.ideal)
    fast_path: bool = True

    def __post_init__(self) -> None:
        if self.n_hyperperiods <= 0:
            raise SimulationError("n_hyperperiods must be positive")


class _JobState:
    """Mutable per-job bookkeeping inside one hyperperiod."""

    __slots__ = (
        "instance", "entries", "release", "deadline", "priority", "final_end_time",
        "actual_remaining", "sub_index", "budget_remaining", "wc_remaining",
        "finished", "finish_time", "was_preempted",
    )

    def __init__(self, instance: TaskInstance, entries: Sequence[ScheduledSubInstance],
                 actual_cycles: float, offset: float, jitter: float = 0.0) -> None:
        self.instance = instance
        self.entries = list(entries)
        # Only the release shifts under an arrival model; the deadline, the
        # static slots and the planned end-times stay nominal (jitter eats
        # into the job's own slack).
        release = instance.release + offset
        if jitter:
            release += jitter
        self.release = release
        self.deadline = instance.deadline + offset
        self.priority = instance.priority
        # Look-ahead horizon: the job's last planned sub-instance end-time.
        self.final_end_time = (self.entries[-1].end_time + offset) if self.entries \
            else self.deadline
        self.actual_remaining = max(actual_cycles, 0.0)
        self.sub_index = 0
        self.budget_remaining = self.entries[0].wc_budget if self.entries else 0.0
        self.wc_remaining = sum(entry.wc_budget for entry in self.entries)
        self.finished = self.actual_remaining <= _EPS
        self.finish_time = self.release if self.finished else None
        self.was_preempted = False

    @property
    def sort_key(self):
        return (self.priority, self.release, self.instance.task.name, self.instance.job_index)

    def current_entry(self) -> ScheduledSubInstance:
        # Skip exhausted budgets (zero-budget sub-instances included).
        while self.sub_index < len(self.entries) - 1 and self.budget_remaining <= _EPS:
            self.sub_index += 1
            self.budget_remaining = self.entries[self.sub_index].wc_budget
        return self.entries[self.sub_index]

    def eligible_time(self, offset: float) -> float:
        """Earliest time this job may execute again.

        A sub-instance's worst-case budget only becomes available once its slot
        has started (i.e. once the higher-priority release that would have
        preempted the job in the fully preemptive schedule has occurred); a job
        that exhausted its current budget early therefore waits — lower-priority
        jobs use the processor in the meantime.  This is what preserves the
        worst-case guarantee of the static schedule.
        """
        entry = self.current_entry()
        return max(self.release, entry.sub.slot_start + offset)


@dataclass
class DVSSimulator:
    """Event-driven runtime simulator (fixed-priority preemptive + online DVS).

    The ``policy`` may be given as a :class:`~repro.runtime.policies.DVSPolicy`
    instance or as a registry name (``"static"``, ``"greedy"``, ``"lookahead"``,
    ``"proportional"``).
    """

    processor: ProcessorModel
    policy: Union[DVSPolicy, str] = field(default_factory=GreedySlackPolicy)
    config: SimulationConfig = field(default_factory=SimulationConfig)

    def __post_init__(self) -> None:
        if isinstance(self.policy, str):
            self.policy = get_policy(self.policy)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self, schedule: StaticSchedule, workload: Optional[WorkloadModel] = None,
            rng: Optional[np.random.Generator] = None) -> SimulationResult:
        """Simulate ``schedule`` under ``workload`` for the configured number of hyperperiods.

        By default this is a one-unit :func:`repro.runtime.batched.simulate_batch`
        call, which runs the unit on the lane engine or, for a configuration
        the lane engine does not cover, on the reference event loop;
        ``SimulationConfig(fast_path=False)`` always selects the reference
        loop.  Both produce bitwise-identical results for the same generator
        state.
        """
        workload_model = workload if workload is not None else NormalWorkload()
        generator = rng if rng is not None else np.random.default_rng(self.config.seed)
        if not self.config.fast_path:
            return self._run_reference(schedule, workload_model, generator)
        # Imported here: the batched module builds on this one.
        from .batched import BatchUnit, simulate_batch

        return simulate_batch([BatchUnit(
            schedule=schedule, processor=self.processor, policy=self.policy,
            config=self.config, workload=workload_model, rng=generator)])[0]

    # ------------------------------------------------------------------ #
    # Reference event loop: the bitwise-equivalence oracle, and the engine
    # of every unit the lane engine does not cover (tracing, CMOS law, ...)
    # ------------------------------------------------------------------ #
    def _run_reference(self, schedule: StaticSchedule, workload_model: WorkloadModel,
                       generator: np.random.Generator) -> SimulationResult:
        expansion = schedule.expansion
        hyperperiod = expansion.horizon
        planned_frequencies = self._planned_frequencies(schedule)

        trace = EventTrace() if self.config.trace else None
        energy_per_hyperperiod: List[float] = []
        energy_by_task: Dict[str, float] = {}
        misses: List[DeadlineMiss] = []
        transition_energy_total = 0.0
        jobs_completed = 0

        # Arrival jitter is drawn for the whole run in one vectorized call,
        # *before* any workload draw — the lane engine makes the identical
        # call, keeping the generator streams aligned.
        offsets = None
        if self.config.arrivals is not None:
            offsets = self.config.arrivals.sample_offsets(
                generator, expansion.instances, self.config.n_hyperperiods)

        self.policy.on_simulation_start(schedule, self.processor)
        for hp_index in range(self.config.n_hyperperiods):
            offset = hp_index * hyperperiod
            self.policy.on_hyperperiod_start(hp_index, offset)
            if trace is not None:
                trace.append(HyperperiodReset(time=offset, hyperperiod=hp_index))
            jitter = offsets[hp_index].tolist() if offsets is not None else None
            jobs = self._build_jobs(schedule, workload_model, generator, offset, jitter)
            hp_energy, hp_transition_energy = self._simulate_hyperperiod(
                jobs, offset, hyperperiod, planned_frequencies, energy_by_task,
                trace, misses, hp_index,
            )
            energy_per_hyperperiod.append(hp_energy)
            transition_energy_total += hp_transition_energy
            jobs_completed += len(jobs)

        return SimulationResult(
            method=schedule.method,
            policy=self.policy.name,
            n_hyperperiods=self.config.n_hyperperiods,
            total_energy=float(sum(energy_per_hyperperiod)),
            energy_per_hyperperiod=energy_per_hyperperiod,
            transition_energy=transition_energy_total,
            energy_by_task=energy_by_task,
            deadline_misses=misses,
            jobs_completed=jobs_completed,
            trace=trace,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _planned_frequencies(self, schedule: StaticSchedule) -> Dict[str, float]:
        """Static worst-case frequency of every sub-instance (for the no-reclamation policy)."""
        planned = planned_frequency_array(schedule, self.processor)
        return {
            entry.key: float(planned[index])
            for index, entry in enumerate(schedule.entries)
        }

    def _build_jobs(self, schedule: StaticSchedule, workload_model: WorkloadModel,
                    rng: np.random.Generator, offset: float,
                    jitter: Optional[List[float]] = None) -> List[_JobState]:
        jobs: List[_JobState] = []
        for index, instance in enumerate(schedule.expansion.instances):
            entries = schedule.entries_for_instance(instance)
            actual = workload_model.sample(rng, instance.task)
            actual = min(max(actual, 0.0), instance.wcec)
            jobs.append(_JobState(instance, entries, actual, offset,
                                  jitter[index] if jitter is not None else 0.0))
        return jobs

    def _simulate_hyperperiod(self, jobs: List[_JobState], offset: float, hyperperiod: float,
                              planned_frequencies: Dict[str, float],
                              energy_by_task: Dict[str, float],
                              trace: Optional[EventTrace],
                              misses: List[DeadlineMiss], hp_index: int):
        energy = 0.0
        transition_energy = 0.0
        current_voltage: Optional[float] = None
        time_now = offset
        pending = sorted(jobs, key=lambda j: j.release)
        released: List[_JobState] = []
        release_cursor = 0

        def admit_releases(up_to: float) -> None:
            nonlocal release_cursor
            while release_cursor < len(pending) and pending[release_cursor].release <= up_to + _EPS:
                job = pending[release_cursor]
                if trace is not None:
                    trace.append(JobRelease(time=job.release, task=job.instance.task.name,
                                            job_index=job.instance.job_index))
                if not job.finished:
                    released.append(job)
                release_cursor += 1

        admit_releases(time_now)
        while True:
            admit_releases(time_now)
            active = [job for job in released if not job.finished]
            if not active:
                if release_cursor >= len(pending):
                    break
                time_now = max(time_now, pending[release_cursor].release)
                admit_releases(time_now)
                continue

            eligible = [job for job in active if job.eligible_time(offset) <= time_now + _EPS]
            if not eligible:
                # Every released job is throttled until its next sub-instance
                # slot opens; jump to the earliest such moment (or release).
                wake_up = min(job.eligible_time(offset) for job in active)
                if release_cursor < len(pending):
                    wake_up = min(wake_up, pending[release_cursor].release)
                time_now = max(time_now, wake_up)
                continue

            job = min(eligible, key=lambda j: j.sort_key)
            entry = job.current_entry()
            end_time_abs = entry.end_time + offset
            request = SpeedRequest(
                time_now=time_now,
                end_time=end_time_abs,
                wc_remaining=job.budget_remaining,
                planned_frequency=planned_frequencies[entry.key],
                job_wc_remaining=job.wc_remaining,
                job_deadline=job.deadline,
                job_final_end_time=job.final_end_time,
            )
            frequency = self.policy.frequency(self.processor, request)
            voltage = self.processor.voltage_for_frequency(frequency)
            frequency = self.processor.frequency(voltage)

            # How long can this job run before something changes?
            next_release = None
            next_job: Optional[_JobState] = None
            if release_cursor < len(pending):
                next_job = pending[release_cursor]
                next_release = next_job.release
            budget_cycles = max(min(job.budget_remaining, job.actual_remaining), 0.0)
            if budget_cycles <= _EPS:
                # The current sub-instance has no usable budget; advance bookkeeping.
                if job.budget_remaining <= _EPS and job.sub_index >= len(job.entries) - 1:
                    # Budgets exhausted but cycles remain (numerical fringe): finish at fmax.
                    frequency = self.processor.fmax
                    voltage = self.processor.vmax
                    budget_cycles = job.actual_remaining
                else:
                    continue

            # The dispatch is now committed: emit its events (resume first,
            # then the speed change, then the segment itself).
            task_name = job.instance.task.name
            was_resumed = job.was_preempted
            job.was_preempted = False
            if trace is not None:
                if was_resumed:
                    trace.append(Resume(time=time_now, task=task_name,
                                        job_index=job.instance.job_index,
                                        sub_index=entry.sub.sub_index))
                if current_voltage is None or voltage != current_voltage:
                    trace.append(FrequencyChange(time=time_now, frequency=frequency,
                                                 voltage=voltage))
                trace.append(SegmentStart(time=time_now, task=task_name,
                                          job_index=job.instance.job_index,
                                          sub_index=entry.sub.sub_index,
                                          frequency=frequency, voltage=voltage))

            # Transition accounting happens only once the dispatch is known to
            # execute, at the voltage it actually executes at: a zero-budget
            # requeue switches nothing, and the fmax fringe above runs at vmax,
            # not at the pre-override policy voltage.
            if current_voltage is not None and not self.config.transition_model.is_free:
                transition_energy += self.config.transition_model.transition_energy(current_voltage, voltage)
            current_voltage = voltage

            duration_to_stop = budget_cycles / frequency
            duration = duration_to_stop
            preempted = False
            if next_release is not None and next_release - time_now < duration - _EPS:
                duration = max(next_release - time_now, 0.0)
                preempted = True

            cycles = duration * frequency
            segment_energy = self.processor.energy(cycles, voltage, job.instance.task.ceff)
            energy += segment_energy
            energy_by_task[task_name] = energy_by_task.get(task_name, 0.0) + segment_energy

            segment_start = time_now
            time_now += duration
            job.actual_remaining = max(job.actual_remaining - cycles, 0.0)
            job.budget_remaining = max(job.budget_remaining - cycles, 0.0)
            job.wc_remaining = max(job.wc_remaining - cycles, 0.0)
            if trace is not None:
                trace.append(SegmentEnd(time=time_now, task=task_name,
                                        job_index=job.instance.job_index,
                                        sub_index=entry.sub.sub_index,
                                        start=segment_start, frequency=frequency,
                                        voltage=voltage, cycles=cycles,
                                        energy=segment_energy,
                                        finished=job.actual_remaining <= _EPS))

            if job.actual_remaining <= _EPS:
                job.finished = True
                job.finish_time = time_now
                self.policy.on_job_finish(task_name, job.instance.job_index,
                                          time_now, job.deadline)
                if time_now > job.deadline + 1e-6 * max(1.0, job.deadline):
                    if trace is not None:
                        trace.append(DeadlineMissEvent(time=time_now, task=task_name,
                                                       job_index=job.instance.job_index,
                                                       deadline=job.deadline))
                    misses.append(DeadlineMiss(
                        task_name=task_name,
                        job_index=job.instance.job_index,
                        hyperperiod_index=hp_index,
                        deadline=job.deadline,
                        finish_time=time_now,
                    ))
            if preempted:
                if not job.finished:
                    job.was_preempted = True
                    if trace is not None:
                        trace.append(Preempt(time=time_now, task=task_name,
                                             job_index=job.instance.job_index,
                                             sub_index=entry.sub.sub_index,
                                             by_task=next_job.instance.task.name,
                                             by_job_index=next_job.instance.job_index))
                # The preemptor's JobRelease is emitted *after* the Preempt.
                admit_releases(time_now)

        return energy, transition_energy
