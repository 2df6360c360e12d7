"""Nested timing wrappers, set on instances from the benchmark's own code."""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict


class Spans:
    """Nested timing wrappers: inclusive and self seconds per span name.

    A span's self time is its duration minus the time of the spans it
    encloses.  Nesting is tracked per thread (the open-loop senders call the
    client from two threads); the totals are shared under a lock.
    """

    def __init__(self) -> None:
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._local = threading.local()
        self._guard = threading.Lock()

    def wrap(self, name: str, func: Callable) -> Callable:
        def timed(*args, **kwargs):
            stack = self._local.__dict__.setdefault("children", [])
            stack.append(0.0)
            started = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._guard:
                    self.inclusive[name] += elapsed
                    self.self_time[name] += elapsed - children
                    self.calls[name] += 1

        return timed

    def export(self) -> Dict[str, Dict[str, float]]:
        return {
            "inclusive": dict(self.inclusive),
            "self_time": dict(self.self_time),
            "calls": dict(self.calls),
        }
