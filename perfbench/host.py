"""Host-speed control: a fixed probe sampled through each run.

The shared hosts this benchmark runs on drift in speed by 2x within
minutes, far more than any change it should detect. Every timed quantity
is therefore reported scaled to a reference host, ``raw × ref_ms /
probe``, where ``probe`` is the probe's time interpolated at the moment of
measurement; the raw figures are kept in the run record. A probe calls
nothing of the program, so no change to the program can move it.

The default probe mixes random floats, a heap and a dict, like the
workloads' Python code. On a 4-vCPU shared host its ratio to a simulator
op and to a forest fit stayed within 4.5 % (CV of 20 s windows) while all
drifted by 2x. Ops that mostly wait on py4j round trips are tracked by a
round-trip probe instead (``RuleDecide.op_clock``): 2.9-3.8 % against
6-7 % for the Python probe, while raw op times drifted by 40 %.
"""
from __future__ import annotations

import bisect
import heapq
import random
import statistics
import time

#: default probe time, in ms, on the reference host scaled times refer to
PROBE_REF_MS = 6.0


def probe_once() -> float:
    t0 = time.perf_counter()
    rng = random.Random(0)
    heap: list[tuple[float, int]] = []
    acc: dict[int, float] = {}
    for i in range(6000):
        x = rng.random()
        heapq.heappush(heap, (x, i))
        acc[i % 997] = acc.get(i % 997, 0.0) + x
    while heap:
        heapq.heappop(heap)
    sorted((v, k) for k, v in acc.items())
    return (time.perf_counter() - t0) * 1e3


class HostClock:
    """Timestamped probe samples and the host factor they imply."""

    def __init__(self, probe=probe_once, ref_ms: float = PROBE_REF_MS) -> None:
        self.probe = probe
        self.ref_ms = ref_ms
        self.at: list[float] = []
        self.ms: list[float] = []

    def sample(self) -> None:
        ms = statistics.median(self.probe() for _ in range(3))
        self.at.append(time.perf_counter())
        self.ms.append(ms)

    def factor(self, at: float) -> float:
        """``ref_ms / probe`` with the probe interpolated at ``at``."""
        i = bisect.bisect_left(self.at, at)
        if i == 0 or i == len(self.at):
            ms = self.ms[min(i, len(self.ms) - 1)]
        else:
            w = (at - self.at[i - 1]) / (self.at[i] - self.at[i - 1])
            ms = self.ms[i - 1] + w * (self.ms[i] - self.ms[i - 1])
        return self.ref_ms / ms

    def median_ms(self) -> float:
        return statistics.median(self.ms)

    def median_factor(self) -> float:
        return self.ref_ms / self.median_ms()
