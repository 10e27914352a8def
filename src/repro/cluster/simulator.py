"""Event-driven cluster simulator (Azure Synapse Spark pool substitute).

Schedules a query's :class:`~repro.cluster.taskgraph.TaskGraph` on a pool
of executors (each with ``e_c`` task slots), under an
:class:`~repro.cluster.allocation.AllocationPolicy`. Produces the
quantities the paper measures on Synapse:

- elapsed application time ``t(n)``,
- the executor-allocation *skyline* ``n_s`` over time,
- ``AUC = ∫ n_s ds`` (total executor occupancy, §2),
- per-stage task logs (consumed by the Sparklens reimplementation).

Faithful mechanics (§5.1, §5.4):

- gradual allocation: requested executors arrive staggered (~1 s apart
  after a short grant delay), so 48 executors take ~20–30 s — the lag the
  paper observes for DA and Rule;
- reactive deallocation: executors idle beyond an idle timeout are
  released when the policy enables it;
- run-to-run variance: seeded multiplicative noise at app and task level,
  calibrated to the paper's observed CoV (≈4–7 %, larger at high n);
- cores-per-executor effects: a mild efficiency penalty for ``e_c ≠ 4``
  (JVM overheads at small ``e_c``, GC pressure at large), so that total
  cores ``k = n·e_c`` dominates but not perfectly (§3.3 / Fig 5).
"""
from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.cluster.allocation import AllocationPolicy
from repro.cluster.taskgraph import TaskGraph


# The pool's fixed calibration (Synapse medium nodes, §5.1)
GRANT_DELAY_SEC = 2.0  # cluster-manager response to a request
ARRIVAL_SPACING_SEC = 0.45  # staggered joins → 48 in ~27 s
IDLE_TIMEOUT_SEC = 60.0  # spark.dynamicAllocation.executorIdleTimeout
OVERCOMMIT_COEFF = 0.09  # spill/contention slowdown when slots ≪ runnable tasks
APP_NOISE_SIGMA = 0.035
TASK_NOISE_SIGMA = 0.10
ARRIVAL_JITTER_SIGMA = 0.15


@dataclass
class StageLog:
    """What really happened to a stage — the Sparklens input."""

    stage_id: int
    start: float
    end: float
    task_durations: tuple[float, ...]


@dataclass
class RunResult:
    """One simulated application run."""

    query: str
    policy: str
    elapsed: float
    auc: float
    max_executors: int
    skyline: list[tuple[float, int]]  # (time, live executor count) steps
    stage_logs: list[StageLog]
    e_c: int
    events: int  # events taken off the event queue
    peak_pending: int  # most tasks ever queued for a free slot


def core_efficiency(query: str, e_c: int) -> float:
    """Per-task duration multiplier for a non-default executor size.

    ``e_c = 4`` is the calibrated baseline (the paper's default). Small
    executors pay per-JVM overheads, large ones GC/memory-bandwidth
    pressure; a deterministic per-query wiggle makes the deviation
    query-dependent like Fig 5c (mean |error| ≈ 9 %).
    """
    if e_c == 4:
        return 1.0
    base = 1.0 + 0.07 * abs(e_c - 4) / 2.0
    # deterministic per-(query, size) wiggle; hash() is salted per process,
    # so derive it from a stable digest instead
    h = int.from_bytes(hashlib.sha256(f"{query}|{e_c}".encode()).digest()[:4], "big") / 2**32
    return base * (0.86 + 0.27 * h)


@dataclass
class _Executor:
    busy: int = 0
    idle_since: float = 0.0


class _Pool:
    """Live executors + skyline/AUC accounting."""

    def __init__(self) -> None:
        self.executors: dict[int, _Executor] = {}
        self.skyline: list[tuple[float, int]] = [(0.0, 0)]
        self.auc = 0.0
        self._last_t = 0.0
        self._next_id = 0

    def _account(self, t: float) -> None:
        self.auc += len(self.executors) * (t - self._last_t)
        self._last_t = t

    def add(self, t: float) -> int:
        self._account(t)
        eid = self._next_id
        self._next_id += 1
        self.executors[eid] = _Executor(idle_since=t)
        self.skyline.append((t, len(self.executors)))
        return eid

    def remove(self, t: float, eid: int) -> None:
        self._account(t)
        del self.executors[eid]
        self.skyline.append((t, len(self.executors)))

    def finish(self, t: float) -> None:
        self._account(t)
        if self.executors:
            self.skyline.append((t, 0))
            self.executors.clear()


def simulate(
    graph: TaskGraph,
    policy: AllocationPolicy,
    *,
    e_c: int = 4,
    seed: int = 0,
) -> RunResult:
    """Run one application under ``policy`` on executors of ``e_c`` cores.

    No event rescans the stage queues or the pool: the queued-task count
    is a counter, dispatch visits only the executors with a free slot,
    and between other events the policy is woken only at the times its
    ``next_tick`` returns.
    """
    rng = np.random.default_rng(seed)
    app_factor = math.exp(APP_NOISE_SIGMA * rng.standard_normal())
    eff = core_efficiency(graph.query, e_c)

    # --- stage bookkeeping -------------------------------------------------
    n_stages = len(graph.stages)
    children: list[list[int]] = [[] for _ in range(n_stages)]
    missing_parents = [len(s.parents) for s in graph.stages]
    for s in graph.stages:
        for par in s.parents:
            children[par].append(s.stage_id)
    # one draw for every task yields the same stream as one draw per task;
    # math.exp, unlike np.exp, keeps each duration's last bit
    z = iter(rng.standard_normal(sum(s.num_tasks for s in graph.stages)).tolist())
    noisy: list[list[float]] = [
        [
            d * app_factor * eff * math.exp(TASK_NOISE_SIGMA * zi)
            for d, zi in zip(s.task_durations, z)
        ]
        for s in graph.stages
    ]
    pending: list[deque[float]] = [deque() for _ in range(n_stages)]  # runnable queues
    n_pending = 0  # tasks in all runnable queues
    peak_pending = 0
    tasks_left = [len(d) for d in noisy]
    stage_start = [math.inf] * n_stages
    stage_end = [0.0] * n_stages
    ready_order: deque[int] = deque()  # FIFO of stages with runnable tasks

    # --- event queue -------------------------------------------------------
    # events: (time, seq, kind, payload)
    evq: list[tuple[float, int, str, object]] = []
    seq = itertools.count()

    def push(t: float, kind: str, payload: object = None) -> None:
        heapq.heappush(evq, (t, next(seq), kind, payload))

    pool = _Pool()
    free: set[int] = set()  # ids of live executors with a free slot
    inflight = 0  # requested executors not yet arrived
    next_arrival_at = 0.0
    running = 0  # running task count
    finished_stages = 0

    def schedule_arrivals(now: float, count: int, instant: bool) -> None:
        nonlocal inflight, next_arrival_at
        for _ in range(count):
            if instant:
                t_arr = now
            else:
                base = max(now + GRANT_DELAY_SEC, next_arrival_at)
                t_arr = base + ARRIVAL_SPACING_SEC * (
                    1.0 + ARRIVAL_JITTER_SIGMA * float(rng.random())
                )
                next_arrival_at = t_arr
            inflight += 1
            push(t_arr, "arrive")

    def make_ready(sid: int, now: float) -> None:
        # stage's serial driver overhead precedes its first task
        push(now + graph.stage_overhead_sec * app_factor, "stage_runnable", sid)

    def apply_policy(now: float) -> None:
        live = len(pool.executors)
        tgt = policy.target(now, n_pending, running, live, e_c)
        have = live + inflight
        if tgt > have:
            schedule_arrivals(now, tgt - have, instant=False)

    def dispatch(now: float) -> None:
        """Assign runnable tasks to free executor slots (FIFO by stage)."""
        nonlocal running, n_pending
        if not ready_order or not free:
            return
        # memory pressure / spill: heavily overcommitted pools run each
        # task slower — the superlinear low-n cost Sparklens's linear
        # replay cannot see (it drives Fig 9's E(1) shape). A task's backlog
        # is the tasks still queued after its pop plus those running before
        # it starts; every pop is followed by a start, so the backlog is the
        # same for each task this call places.
        total_slots = max(1, len(pool.executors) * e_c)
        over = (n_pending - 1 + running) / total_slots
        slowdown = 1.0 + OVERCOMMIT_COEFF * math.log2(over) if over > 1.0 else 1.0
        for eid in sorted(free):  # ids only grow: the order executors joined
            ex = pool.executors[eid]
            while ex.busy < e_c and ready_order:
                sid = ready_order[0]
                queue = pending[sid]
                dur = queue.popleft() * slowdown
                n_pending -= 1
                ex.busy += 1
                running += 1
                stage_start[sid] = min(stage_start[sid], now)
                push(now + dur, "task_end", (eid, sid))
                if not queue:
                    ready_order.popleft()
            if ex.busy == e_c:
                free.remove(eid)
            if not ready_order:
                break

    # --- kick off ----------------------------------------------------------
    init = policy.initial_target()
    schedule_arrivals(0.0, init, instant=policy.instant_initial)
    startup = graph.app_startup_sec * app_factor
    for s in graph.stages:
        if not s.parents:
            push(startup, "stage_runnable", s.stage_id)
    push(0.0, "policy_tick")

    now = 0.0
    events = 0
    while evq and finished_stages < n_stages:
        now, _, kind, payload = heapq.heappop(evq)
        events += 1
        if kind == "task_end":
            eid, sid = payload
            running -= 1
            tasks_left[sid] -= 1
            ex = pool.executors[eid]  # busy executors are never removed
            ex.busy -= 1
            free.add(eid)
            if ex.busy == 0:
                ex.idle_since = now
                push(now + IDLE_TIMEOUT_SEC, "idle_check", eid)
            if tasks_left[sid] == 0:  # events pop in time order: this is the last end
                stage_end[sid] = now
                finished_stages += 1
                for child in children[sid]:
                    missing_parents[child] -= 1
                    if missing_parents[child] == 0:
                        make_ready(child, now)
        elif kind == "arrive":
            inflight -= 1
            eid = pool.add(now)
            free.add(eid)
            push(now + IDLE_TIMEOUT_SEC, "idle_check", eid)
        elif kind == "stage_runnable":
            pending[payload].extend(noisy[payload])
            n_pending += len(noisy[payload])
            peak_pending = max(peak_pending, n_pending)
            ready_order.append(payload)
        elif kind == "idle_check":
            eid = payload
            ex = pool.executors.get(eid)
            if (
                policy.remove_idle
                and ex is not None
                and ex.busy == 0
                and ex.idle_since + IDLE_TIMEOUT_SEC <= now  # not a stale check
                and now - ex.idle_since >= IDLE_TIMEOUT_SEC - 1e-9
            ):
                pool.remove(now, eid)
                free.remove(eid)
        apply_policy(now)
        dispatch(now)
        if kind == "policy_tick" and (tick := policy.next_tick(now)) is not None:
            push(tick, "policy_tick")

    elapsed = now + 1.0 * app_factor  # app teardown
    pool.finish(elapsed)
    logs = [
        StageLog(
            stage_id=s.stage_id,
            start=0.0 if math.isinf(stage_start[s.stage_id]) else stage_start[s.stage_id],
            end=stage_end[s.stage_id],
            task_durations=tuple(noisy[s.stage_id]),
        )
        for s in graph.stages
    ]
    return RunResult(
        query=graph.query,
        policy=policy.name,
        elapsed=elapsed,
        auc=pool.auc,
        max_executors=max(n for _, n in pool.skyline),
        skyline=pool.skyline,
        stage_logs=logs,
        e_c=e_c,
        events=events,
        peak_pending=peak_pending,
    )
