"""Executor allocation policies: SA, DA, and the AutoExecutor Rule (§2, §4.6).

Three policies drive the cluster simulator, mirroring the paper's §5.4
comparison:

- :class:`StaticAllocation` — all ``n`` executors requested at job
  submission, held for the whole application (paper "SA").
- :class:`DynamicAllocation` — Spark's reactive scale-up: after tasks
  have been backlogged for ``backlog_timeout_sec``, the policy requests
  exponentially growing executor batches (1, 2, 4, …) bounded by the
  current need and ``max_n``; idle executors are removed reactively
  (paper "DA(1,48)").
- :class:`PredictiveRule` — AutoExecutor: the application starts small,
  then at optimizer-rule time the predicted count is requested in one
  shot; scale-up via DA is disabled, but reactive *de*-allocation of idle
  executors stays on (§4.6, paper "Rule").
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class ClusterView:
    """Policy-visible snapshot of simulator state at an event."""

    time: float
    pending_tasks: int
    running_tasks: int
    live_executors: int
    inflight_executors: int  # requested, not yet arrived
    cores_per_executor: int


class AllocationPolicy:
    """Base policy: returns the desired executor target at each event."""

    name = "base"
    #: whether the engine may reactively remove idle executors
    remove_idle = False
    #: whether executors requested at t=0 arrive instantly (pre-provisioned)
    instant_initial = False

    def initial_target(self) -> int:
        raise NotImplementedError

    def target(self, view: ClusterView) -> int:
        raise NotImplementedError

    def next_tick(self, now: float) -> float | None:
        """When the simulator should next call :meth:`target` without any
        other event, or ``None`` if the target can change only at events.

        The simulator calls it at t=0 and at every tick it returns.
        """
        return None


@dataclass
class StaticAllocation(AllocationPolicy):
    """SA(n): fixed allocation for the lifetime of the application."""

    n: int
    name: str = field(init=False)
    remove_idle = False
    instant_initial = True

    def __post_init__(self) -> None:
        self.name = f"SA({self.n})"

    def initial_target(self) -> int:
        return self.n

    def target(self, view: ClusterView) -> int:
        return self.n


@dataclass
class DynamicAllocation(AllocationPolicy):
    """DA(min,max): Spark dynamic allocation semantics.

    Scale-up: once the task backlog has been sustained for
    ``backlog_timeout_sec``, add ``1`` executor, then on each further
    sustained interval double the batch (2, 4, 8, …) — capped both by
    ``max_n`` and by the executors actually needed for the current
    pending+running tasks. Scale-down: the engine removes executors idle
    longer than its idle timeout (``remove_idle=True``).
    """

    min_n: int = 1
    max_n: int = 48
    backlog_timeout_sec: float = 1.0
    sustained_timeout_sec: float = 1.0
    #: requests pile up while earlier grants are still in flight, so the
    #: target overshoots the instantaneous need (the paper's "risk of ...
    #: exponentially overshooting the required count", §2.3)
    overshoot: float = 2.0
    name: str = field(init=False)
    remove_idle = True
    instant_initial = False

    def __post_init__(self) -> None:
        self.name = f"DA({self.min_n},{self.max_n})"
        self._target = self.min_n
        self._backlog_since: float | None = None
        self._next_add = 1

    def initial_target(self) -> int:
        return self.min_n

    def _max_needed(self, view: ClusterView) -> int:
        tasks = view.pending_tasks + view.running_tasks
        need = math.ceil(self.overshoot * tasks / max(1, view.cores_per_executor))
        return max(self.min_n, need)

    def target(self, view: ClusterView) -> int:
        backlogged = view.pending_tasks > 0
        if not backlogged:
            self._backlog_since = None
            self._next_add = 1
            # track down toward current need so removals are not re-requested
            self._target = min(self._target, max(self.min_n, view.live_executors))
            return self._target
        if self._backlog_since is None:
            self._backlog_since = view.time
            return self._target
        wait = (
            self.backlog_timeout_sec if self._next_add == 1 else self.sustained_timeout_sec
        )
        if view.time - self._backlog_since >= wait:
            proposed = self._target + self._next_add
            self._target = min(self.max_n, self._max_needed(view), proposed)
            self._next_add *= 2
            self._backlog_since = view.time
        return self._target

    def next_tick(self, now: float) -> float | None:
        # the backlog timer's granularity: a sustained backlog is noticed
        # within 1 s even when no task starts or ends meanwhile
        return now + 1.0


@dataclass
class PredictiveRule(AllocationPolicy):
    """AutoExecutor Rule: predictive allocation + reactive deallocation.

    ``n_predicted`` is requested once at ``rule_time_sec`` (the moment the
    optimizer rule fires, late in query compilation); before that the app
    runs with ``initial_n`` (the paper's example starts with n=5). No
    reactive scale-up; idle executors are released (§4.6).
    """

    n_predicted: int
    initial_n: int = 5
    rule_time_sec: float = 7.0
    name: str = field(init=False)
    remove_idle = True
    instant_initial = False

    def __post_init__(self) -> None:
        self.name = f"Rule({self.n_predicted})"

    def initial_target(self) -> int:
        return self.initial_n

    def target(self, view: ClusterView) -> int:
        if view.time >= self.rule_time_sec:
            return self.n_predicted
        return self.initial_n

    def next_tick(self, now: float) -> float | None:
        """Wake once, at ``rule_time_sec``: the target depends on time alone.

        With a whole-second ``rule_time_sec``, such as the default 7.0, a
        timer ticking every whole second would issue the request at the
        same instant, so runs equal those of a 1 s timer bit for bit.
        """
        return self.rule_time_sec if now < self.rule_time_sec else None
