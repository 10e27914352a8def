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
import math
from bisect import insort
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
    events: int  # events popped: task ends, stage starts, arrivals, ticks, idle checks
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


# event kinds; events are flat (time, seq, kind, executor id, stage id)
# tuples, ordered by time and then by the order they were scheduled
_END, _STAGE, _ARRIVE, _IDLE, _TICK = range(5)


def simulate(
    graph: TaskGraph,
    policy: AllocationPolicy,
    *,
    e_c: int = 4,
    seed: int = 0,
) -> RunResult:
    """Run one application under ``policy`` on executors of ``e_c`` cores.

    One flat loop pops events in time order. After each event it asks the
    policy for its target once, requests the missing executors, and hands
    queued tasks to the executors with a free slot, in the order they
    joined. Runnable tasks wait in one FIFO, stage after stage in the order
    the stages became runnable. Executors are indices into ``busy`` and
    ``idle_since``; a removed one has ``idle_since = inf``. Between other
    events the policy is woken only at the times its ``next_tick`` returns.

    An executor that falls idle gets an idle check one timeout later only
    if ``policy.remove_idle``: for a policy that never removes executors
    the check would change nothing and only call ``target`` once more.
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
    noisy = [
        [
            d * app_factor * eff * math.exp(TASK_NOISE_SIGMA * zi)
            for d, zi in zip(s.task_durations, z)
        ]
        for s in graph.stages
    ]
    tasks = [[(d, sid) for d in durations] for sid, durations in enumerate(noisy)]
    tasks_left = [len(d) for d in noisy]
    stage_start = [math.inf] * n_stages
    stage_end = [0.0] * n_stages
    # serial driver work between a stage's parents ending and its tasks queuing
    overhead = graph.stage_overhead_sec * app_factor
    queue: list[tuple[float, int]] = []  # runnable (duration, stage) in FIFO order
    head = 0  # queue[head:] is still waiting for a slot
    n_pending = peak_pending = 0

    # --- executors and the skyline -----------------------------------------
    busy: list[int] = []  # running tasks per executor id; ids only grow
    idle_since: list[float] = []
    free: list[int] = []  # ids of live executors with a free slot, ascending: the order they joined
    live = inflight = running = finished = 0  # inflight: requested, not yet arrived
    next_arrival_at = last = auc = 0.0
    skyline: list[tuple[float, int]] = [(0.0, 0)]

    # --- kick off ----------------------------------------------------------
    evq: list[tuple[float, int, int, int, int]] = []
    heappush, heappop, log2, random = heapq.heappush, heapq.heappop, math.log2, rng.random
    target, next_tick, remove_idle = policy.target, policy.next_tick, policy.remove_idle
    seq = 0
    for _ in range(policy.initial_target()):
        if not policy.instant_initial:  # else all arrive at t=0
            base = max(GRANT_DELAY_SEC, next_arrival_at)
            jitter = 1.0 + ARRIVAL_JITTER_SIGMA * random()
            next_arrival_at = base + ARRIVAL_SPACING_SEC * jitter
        heappush(evq, (next_arrival_at, seq, _ARRIVE, 0, 0))
        seq += 1
    inflight = seq  # one push per requested executor
    startup = graph.app_startup_sec * app_factor
    for s in graph.stages:
        if not s.parents:
            heappush(evq, (startup, seq, _STAGE, 0, s.stage_id))
            seq += 1
    heappush(evq, (0.0, seq, _TICK, 0, 0))
    seq += 1

    now = 0.0
    while evq and finished < n_stages:
        now, _, kind, eid, sid = heappop(evq)
        if kind == _END:
            running -= 1
            if busy[eid] == e_c:  # busy executors are never removed
                insort(free, eid)
            busy[eid] -= 1
            if not busy[eid]:
                idle_since[eid] = now
                if remove_idle:
                    heappush(evq, (now + IDLE_TIMEOUT_SEC, seq, _IDLE, eid, 0))
                    seq += 1
            tasks_left[sid] -= 1
            if not tasks_left[sid]:  # events pop in time order: this is the last end
                stage_end[sid] = now
                finished += 1
                for child in children[sid]:
                    missing_parents[child] -= 1
                    if not missing_parents[child]:
                        heappush(evq, (now + overhead, seq, _STAGE, 0, child))
                        seq += 1
        elif kind == _STAGE:
            queue += tasks[sid]
            n_pending += len(tasks[sid])
            peak_pending = max(peak_pending, n_pending)
        elif kind == _ARRIVE:
            inflight -= 1
            auc += live * (now - last)
            last = now
            live += 1
            skyline.append((now, live))
            eid = len(busy)
            busy.append(0)
            idle_since.append(now)
            free.append(eid)
            if remove_idle:
                heappush(evq, (now + IDLE_TIMEOUT_SEC, seq, _IDLE, eid, 0))
                seq += 1
        elif (
            kind == _IDLE
            and not busy[eid]
            and idle_since[eid] + IDLE_TIMEOUT_SEC <= now  # not a stale check
            and now - idle_since[eid] >= IDLE_TIMEOUT_SEC - 1e-9
        ):
            auc += live * (now - last)
            last = now
            live -= 1
            skyline.append((now, live))
            idle_since[eid] = math.inf
            free.remove(eid)

        # the policy's target, then the missing executors, staggered
        tgt = target(now, n_pending, running, live, e_c)
        if tgt > live + inflight:
            for _ in range(tgt - live - inflight):
                base = max(now + GRANT_DELAY_SEC, next_arrival_at)
                jitter = 1.0 + ARRIVAL_JITTER_SIGMA * random()
                next_arrival_at = base + ARRIVAL_SPACING_SEC * jitter
                heappush(evq, (next_arrival_at, seq, _ARRIVE, 0, 0))
                seq += 1
            inflight = tgt - live

        if n_pending and free:
            # memory pressure / spill: heavily overcommitted pools run each
            # task slower — the superlinear low-n cost Sparklens's linear
            # replay cannot see (it drives Fig 9's E(1) shape). A task's
            # backlog is the tasks still queued after it plus those running
            # before it starts, the same for every task placed now.
            over = (n_pending - 1 + running) / (live * e_c)  # free: live >= 1
            slowdown = 1.0 + OVERCOMMIT_COEFF * log2(over) if over > 1.0 else 1.0
            while n_pending and free:
                eid = free[0]
                take = e_c - busy[eid]
                if take > n_pending:
                    take = n_pending
                for d, sid in queue[head : head + take]:
                    heappush(evq, (now + d * slowdown, seq, _END, eid, sid))
                    seq += 1
                    if stage_start[sid] > now:
                        stage_start[sid] = now
                head += take
                n_pending -= take
                running += take
                busy[eid] += take
                if busy[eid] == e_c:
                    del free[0]

        if kind == _TICK and (tick := next_tick(now)) is not None:
            heappush(evq, (tick, seq, _TICK, 0, 0))
            seq += 1

    elapsed = now + 1.0 * app_factor  # app teardown
    auc += live * (elapsed - last)
    if live:
        skyline.append((elapsed, 0))
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
        auc=auc,
        max_executors=max(n for _, n in skyline),
        skyline=skyline,
        stage_logs=logs,
        e_c=e_c,
        events=seq - len(evq),  # each push took one seq
        peak_pending=peak_pending,
    )
