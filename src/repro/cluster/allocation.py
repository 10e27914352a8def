"""Executor allocation policies: SA, DA, and the AutoExecutor Rule (§2, §4.6).

Three policies drive the cluster simulator, mirroring the paper's §5.4
comparison:

- :class:`StaticAllocation` — all ``n`` executors requested at job
  submission, held for the whole application (paper "SA").
- :class:`DynamicAllocation` — Spark's reactive scale-up: after tasks
  have been backlogged for :data:`BACKLOG_TIMEOUT_SEC`, the policy requests
  exponentially growing executor batches (1, 2, 4, …) bounded by the
  current need and ``max_n``; idle executors are removed reactively
  (paper "DA(1,48)").
- :class:`PredictiveRule` — AutoExecutor: the application starts small,
  then at optimizer-rule time the predicted count is requested in one
  shot; scale-up via DA is disabled, but reactive *de*-allocation of idle
  executors stays on (§4.6, paper "Rule").

The timings are one fixed calibration: Spark's dynamic-allocation
defaults and a rule that fires once, at optimization time (§5.1, §5.4).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

#: DA: seconds a task backlog must last before each scale-up request
#: (spark.dynamicAllocation.schedulerBacklogTimeout and its sustained twin)
BACKLOG_TIMEOUT_SEC = 1.0
#: DA: requests pile up while earlier grants are still in flight, so the
#: target overshoots the instantaneous need (the paper's "risk of ...
#: exponentially overshooting the required count", §2.3)
OVERSHOOT = 2.0
#: Rule: executors the application starts with (the paper's example, n=5)
RULE_INITIAL_N = 5
#: Rule: when the optimizer rule fires, late in query compilation
RULE_TIME_SEC = 7.0


class AllocationPolicy:
    """Base policy: returns the desired executor target at each event."""

    name = "base"
    #: whether the engine may reactively remove idle executors
    remove_idle = False
    #: whether executors requested at t=0 arrive instantly (pre-provisioned)
    instant_initial = False

    def initial_target(self) -> int:
        raise NotImplementedError

    def target(self, now: float, pending: int, running: int, live: int, e_c: int) -> int:
        """Executor target after an event at time ``now``.

        ``pending`` tasks wait for a free slot, ``running`` tasks hold one,
        ``live`` executors have arrived, and each has ``e_c`` slots.
        """
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
        if self.n < 1:
            raise ValueError(f"SA({self.n}) can never finish a query")
        self.name = f"SA({self.n})"

    def initial_target(self) -> int:
        return self.n

    def target(self, now: float, pending: int, running: int, live: int, e_c: int) -> int:
        return self.n


@dataclass
class DynamicAllocation(AllocationPolicy):
    """DA(min,max): Spark dynamic allocation semantics.

    Scale-up: once the task backlog has been sustained for
    :data:`BACKLOG_TIMEOUT_SEC`, add ``1`` executor, then on each further
    sustained interval double the batch (2, 4, 8, …) — capped both by
    ``max_n`` and by the executors actually needed for the current
    pending+running tasks. Scale-down: the engine removes executors idle
    longer than its idle timeout (``remove_idle=True``).
    """

    min_n: int = 1
    max_n: int = 48
    name: str = field(init=False)
    remove_idle = True
    instant_initial = False

    def __post_init__(self) -> None:
        if self.max_n < 1 or not 0 <= self.min_n <= self.max_n:
            raise ValueError(f"DA({self.min_n},{self.max_n}) needs 0 <= min_n <= max_n, max_n >= 1")
        self.name = f"DA({self.min_n},{self.max_n})"
        self._target = self.min_n
        self._backlog_since: float | None = None
        self._next_add = 1

    def initial_target(self) -> int:
        return self.min_n

    def target(self, now: float, pending: int, running: int, live: int, e_c: int) -> int:
        if not pending:
            self._backlog_since = None
            self._next_add = 1
            # track down toward current need so removals are not re-requested
            self._target = min(self._target, max(self.min_n, live))
            return self._target
        if self._backlog_since is None:
            self._backlog_since = now
            return self._target
        if now - self._backlog_since >= BACKLOG_TIMEOUT_SEC:
            need = max(self.min_n, math.ceil(OVERSHOOT * (pending + running) / max(1, e_c)))
            self._target = min(self.max_n, need, self._target + self._next_add)
            self._next_add *= 2
            self._backlog_since = now
        return self._target

    def next_tick(self, now: float) -> float | None:
        # the backlog timer's granularity: a sustained backlog is noticed
        # within one timeout even when no task starts or ends meanwhile
        return now + BACKLOG_TIMEOUT_SEC


@dataclass
class PredictiveRule(AllocationPolicy):
    """AutoExecutor Rule: predictive allocation + reactive deallocation.

    ``n_predicted`` is requested once at :data:`RULE_TIME_SEC`; before
    that the app runs with :data:`RULE_INITIAL_N` executors. No reactive
    scale-up; idle executors are released (§4.6).
    """

    n_predicted: int
    name: str = field(init=False)
    remove_idle = True
    instant_initial = False

    def __post_init__(self) -> None:
        if self.n_predicted < 1:
            raise ValueError(f"Rule({self.n_predicted}) can never finish a query")
        self.name = f"Rule({self.n_predicted})"

    def initial_target(self) -> int:
        return RULE_INITIAL_N

    def target(self, now: float, pending: int, running: int, live: int, e_c: int) -> int:
        return self.n_predicted if now >= RULE_TIME_SEC else RULE_INITIAL_N

    def next_tick(self, now: float) -> float | None:
        """Wake once, at :data:`RULE_TIME_SEC`: the target depends on time alone.

        :data:`RULE_TIME_SEC` is a whole second, so a timer ticking every
        whole second would issue the request at the same instant, and runs
        equal those of a 1 s timer bit for bit.
        """
        return RULE_TIME_SEC if now < RULE_TIME_SEC else None
