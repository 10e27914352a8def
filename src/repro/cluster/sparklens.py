"""Sparklens reimplementation (Qubole Sparklens v0.3.2 substitute, §3.2).

Sparklens replays the task-level event log of *one* completed run and
estimates what the application time would have been with a different
executor count, by simulating the scheduler: the critical path lower-
bounds each part of the execution, and the remaining task work is spread
perfectly over the ``n·e_c`` available cores.

This reimplementation keeps the observed concurrency structure: stages
whose activity intervals overlapped in the analysed run are grouped into
a concurrency cluster, and each cluster contributes

    max(longest_task_in_cluster, cluster_total_task_time / (n · e_c))

with the driver time (periods with no task running: app startup,
inter-stage driver work, teardown) added once. Estimates are
deterministic and monotonically non-increasing in ``n`` — the property
§3.1 explicitly relies on (reason 3).
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.simulator import RunResult


@dataclass
class SparklensReport:
    """Post-hoc analysis of one run: estimates for candidate counts."""

    query: str
    driver_time: float
    # one entry per concurrency cluster: (total_task_time, critical_task)
    cluster_work: list[tuple[float, float]]
    e_c: int

    def estimate(self, n: int) -> float:
        """Estimated application time with ``n`` executors."""
        cores = max(1, n * self.e_c)
        return self.driver_time + sum(
            max(crit, total / cores) for total, crit in self.cluster_work
        )

    def estimates(self, ns) -> dict[int, float]:
        return {int(n): self.estimate(int(n)) for n in ns}


def _merge_intervals(
    spans: list[tuple[float, float, int]],
) -> list[tuple[float, float, list[int]]]:
    """Merge overlapping [start, end) intervals into ``(start, end, indices)``
    groups, in start order."""
    groups: list[tuple[float, float, list[int]]] = []
    for s, e, idx in sorted(spans):
        if groups and s <= groups[-1][1]:
            start, end, members = groups[-1]
            members.append(idx)
            groups[-1] = (start, max(end, e), members)
        else:
            groups.append((s, e, [idx]))
    return groups


def analyze(run: RunResult) -> SparklensReport:
    """Build a report from a completed run's task logs."""
    logs = run.stage_logs
    merged = _merge_intervals([(l.start, l.end, i) for i, l in enumerate(logs) if l.end > l.start])
    groups = [members for _, _, members in merged]
    grouped = {i for g in groups for i in g}
    # zero-span stages (instantaneous) each form their own cluster
    groups += [[i] for i in range(len(logs)) if i not in grouped]
    cluster_work = [
        (
            float(sum(sum(logs[i].task_durations) for i in g)),
            float(max(max(logs[i].task_durations) for i in g)),
        )
        for g in groups
    ]
    busy = 0.0  # a loop, not sum(): sum() compensates float error from Python 3.12
    for start, end, _ in merged:
        busy += end - start
    return SparklensReport(
        query=run.query,
        driver_time=max(0.0, run.elapsed - busy),
        cluster_work=cluster_work,
        e_c=run.e_c,
    )
