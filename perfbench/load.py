"""Load generation: a seeded open-loop schedule and a closed-loop client.

Open loop
    Arrivals are evenly spaced at the offered rate, with a seeded phase, and
    the schedule is fixed before the first request is sent.  At
    most ``connections`` requests are in flight (one sender thread per
    connection); a request that comes due while every connection is busy
    waits in the generator.  Every latency is timed from the request's
    *due* time, so a stall also charges the requests queued behind it, and
    the generator reports how late it sent each request.

Closed loop
    One client sends the next request only when the previous one returned.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from common import digest, percentile


@dataclass
class Sample:
    """One request: its plan, schedule and outcome (times are monotonic)."""

    plan: Any
    due: float
    sent: Optional[float] = None
    done: Optional[float] = None
    digest: Optional[str] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.done is not None and self.error is None

    @property
    def latency(self) -> float:
        """Seconds from due to answer; ``inf`` when failed or never sent."""
        return self.done - self.due if self.ok else math.inf


@dataclass
class Phase:
    """One measured stretch of traffic (monotonic start and schedule end)."""

    start: float
    end: float
    samples: List[Sample] = field(default_factory=list)

    @property
    def latencies(self) -> List[float]:
        return [sample.latency for sample in self.samples]

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.samples if not sample.ok)

    def pairs_per_s(self, pairs_of: Callable[[Any], int]) -> float:
        """Candidate pairs answered per second of client time spent waiting.

        Each answered request contributes its pairs and its time from send
        to answer; for one closed-loop client that is its wall time.
        """
        answered = [s for s in self.samples if s.ok]
        busy = sum(s.done - s.sent for s in answered)
        return sum(pairs_of(s.plan) for s in answered) / busy if busy else 0.0

    def lateness(self) -> List[float]:
        return [s.sent - s.due for s in self.samples if s.sent is not None]

    def backlog(self, at: float) -> int:
        """Requests due by ``at`` and not yet answered at ``at``."""
        return sum(
            1 for s in self.samples
            if s.due <= at and (s.done is None or s.done > at)
        )

    def backlog_growth(self) -> int:
        """Backlog at the end of the schedule minus backlog at its middle."""
        return self.backlog(self.end) - self.backlog((self.start + self.end) / 2)

    def passes(self, limit_s: float, connections: int) -> bool:
        """Within the latency limit at p95, and the backlog does not grow."""
        return (
            percentile(self.latencies, 0.95) <= limit_s
            and self.backlog_growth() <= connections
        )


def paced_offsets(rng: random.Random, rate: float, seconds: float) -> List[float]:
    """Evenly spaced arrival offsets at ``rate`` over ``seconds``.

    A constant-rate schedule (rather than Poisson arrivals) keeps the tail
    percentile a property of the service instead of the arrival process's
    own bursts, which is what lets a short step resolve a 25% regression.
    """
    phase = rng.random()
    return [(index + phase) / rate for index in range(int(rate * seconds))]


def run_open_loop(
    send: Callable[[Any], Any],
    plans: List[Any],
    offsets: List[float],
    seconds: float,
    connections: int,
    grace_s: float,
) -> Phase:
    """Send ``plans[i]`` at ``offsets[i]`` through ``connections`` senders.

    Requests still unsent ``grace_s`` after the schedule ends are dropped and
    count as failed (they missed any latency limit).
    """
    start = time.monotonic() + 0.05
    phase = Phase(start=start, end=start + seconds)
    phase.samples = [
        Sample(plan=plan, due=start + offset) for plan, offset in zip(plans, offsets)
    ]
    cutoff = phase.end + grace_s
    cursor = iter(range(len(phase.samples)))
    guard = threading.Lock()

    def sender() -> None:
        while True:
            with guard:
                index = next(cursor, None)
            if index is None:
                return
            sample = phase.samples[index]
            wait = sample.due - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            sample.sent = time.monotonic()
            if sample.sent > cutoff:
                sample.sent = None
                sample.error = "not sent: generator backlog past the grace period"
                continue
            try:
                result = send(sample.plan)
            except Exception as error:  # typed service errors and transport
                sample.error = f"{type(error).__name__}: {error}"
            else:
                sample.digest = digest(result)
            sample.done = time.monotonic()

    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return phase


def run_closed_loop(
    send: Callable[[Any], Any],
    plan_at: Callable[[int], Any],
    seconds: float,
    min_requests: int,
) -> Phase:
    """One client, back to back, until the next request would overrun."""
    start = time.monotonic()
    phase = Phase(start=start, end=start)
    index = 0
    while True:
        plan = plan_at(index)
        sample = Sample(plan=plan, due=time.monotonic())
        sample.sent = sample.due
        try:
            result = send(plan)
        except Exception as error:
            sample.error = f"{type(error).__name__}: {error}"
        else:
            sample.digest = digest(result)
        sample.done = time.monotonic()
        phase.samples.append(sample)
        index += 1
        elapsed = sample.done - start
        last = sample.done - sample.due
        if index >= min_requests and elapsed + last > seconds:
            break
    phase.end = time.monotonic()
    return phase
