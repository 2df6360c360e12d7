"""The in-process layer ladder, run in a fresh interpreter.

Usage (written and started by ``layers.py``)::

    python3 perfbench/ladder.py JOB_FILE

The job file is a pickle this benchmark wrote: the store directory, the
worker count, a few warm-up plans and the plans to replay, each plan
pickled on its own.  Two sessions are opened on the sharded store exactly
like ``ned-serve`` opens its one (with a shared-memory worker pool when
``workers > 0``), one plain and one traced, and every plan runs as a
one-plan tick on each, unpickled just before its tick so that it arrives as
fresh objects the way a decoded request does.

Running here rather than in the load generator matters: TED* memoizes
canonical forms per live tree (keyed structurally), and worker processes
forked from a process that already holds those forms would inherit them,
which a server forking its workers at start-up never does.

Prints one JSON object: per session its seconds, spans, engine-stats delta
and kernel fallback count, then a kernel replay of the exact pairs the
traced session saw and the ``engine.matrix`` executors on a slice.
"""

from __future__ import annotations

import gc
import json
import pickle
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_program  # noqa: E402
from spans import Spans  # noqa: E402

#: Exact pairs replayed through the kernels for per-pair / block timing.
KERNEL_REPLAY_PAIRS = 100


class Replica:
    """A session opened like ``ned-serve``'s: the same shard files and, with
    ``workers``, the same shared-memory worker pool as block dispatcher.

    A traced replica carries timing wrappers on its session's, resolver's
    and batch kernel's instance methods; while it executes, the per-pair
    ``ted_star`` its resolver calls is wrapped too.  Its exact-tier entry
    points record up to ``KERNEL_REPLAY_PAIRS`` pairs for the kernel replay.
    """

    def __init__(self, store_dir: Path, workers: int, traced: bool) -> None:
        from repro.engine.session import NedSession
        from repro.engine.shards import ShardedTreeStore

        store = ShardedTreeStore.load(store_dir)
        self.session = NedSession(store)
        self.traced = traced
        self.spans = Spans()
        self.exact_pairs: List[Tuple[Any, Any]] = []
        self.seconds = 0.0
        self.plans = 0
        self._export = self._pool = None
        if workers:
            from repro.serving.shm import export_store
            from repro.serving.workers import SharedWorkerPool

            self._export = export_store(store, metrics=self.session.metrics)
            self._pool = SharedWorkerPool(
                self._export.handle, store, workers=workers,
                backend=self.session.resolver.matching_backend,
                metrics=self.session.metrics,
            )
            self._pool.warm()
            self.session.attach_block_dispatcher(
                self.spans.wrap("workers.dispatch", self._pool) if traced else self._pool
            )
        if traced:
            self._instrument()
        self._stats_before = self.session.stats.copy()

    def _room(self) -> int:
        return KERNEL_REPLAY_PAIRS - len(self.exact_pairs)

    def _instrument(self) -> None:
        session, resolver, spans = self.session, self.session.resolver, self.spans
        targets = [
            (session, "execute_batch", "session.execute_batch"),
            (session, "execute", "search.execute"),
            (resolver, "bounds", "resolver.bounds"),
            (resolver, "exact", "resolver.exact"),
            (resolver, "resolve_many", "resolver.resolve_many"),
            (resolver, "exact_many", "resolver.exact_many"),
        ]
        if resolver.batch_kernel is not None:
            targets.append((resolver.batch_kernel, "ted_star_block", "kernel.ted_star_block"))
        for obj, attr, name in targets:
            setattr(obj, attr, spans.wrap(name, getattr(obj, attr)))
        exact_many = resolver.exact_many

        def recording_exact_many(pairs):
            self.exact_pairs.extend(pairs[:max(0, self._room())])
            return exact_many(pairs)

        resolver.exact_many = recording_exact_many

    def execute(self, blob: bytes) -> None:
        """Unpickle one plan and execute it as a one-plan tick."""
        import repro.ted.resolver as resolver_module

        plan = pickle.loads(blob)
        original = resolver_module.ted_star
        if self.traced:
            timed = self.spans.wrap("kernel.ted_star", original)

            def recording_ted_star(first, second, *args, **kwargs):
                if self._room() > 0:
                    self.exact_pairs.append((first, second))
                return timed(first, second, *args, **kwargs)

            resolver_module.ted_star = recording_ted_star
        try:
            started = time.perf_counter()
            self.session.execute_batch([plan])
            self.seconds += time.perf_counter() - started
        finally:
            resolver_module.ted_star = original
        self.plans += 1

    def report(self) -> Dict[str, Any]:
        stats = self.session.stats.since(self._stats_before)
        kernel = self.session.resolver.batch_kernel
        return {
            "seconds": self.seconds,
            "plans": self.plans,
            "spans": self.spans.export(),
            "stats": {**asdict(stats), "exact_evaluations_avoided":
                      stats.exact_evaluations_avoided, "cache_hit_rate": stats.cache_hit_rate},
            "fallback_pairs": kernel.fallback_pairs if kernel is not None else 0,
        }

    def close(self) -> None:
        if self._pool is not None:
            self.session.attach_block_dispatcher(None)
            self._pool.close()
        if self._export is not None:
            self._export.close()
        self.session.close()


def kernel_replay(pairs: List[Tuple[Any, Any]], k: int) -> Tuple[float, float]:
    """Per-pair ``ted_star`` microseconds and batch-kernel pairs/s on ``pairs``.

    One untimed block pass first compiles every tree (and memoizes its
    canonical form), so both figures time evaluation, not canonicalization.
    """
    from repro.ted.batch import BatchTedKernel
    from repro.ted.ted_star import ted_star

    if not pairs:
        return 0.0, 0.0
    trees = [(getattr(a, "tree", a), getattr(b, "tree", b)) for a, b in pairs]
    kernel = BatchTedKernel()
    kernel.ted_star_block(trees, k=k)
    started = time.perf_counter()
    for tree_a, tree_b in trees:
        ted_star(tree_a, tree_b, k=k, backend="scipy")
    pair_us = (time.perf_counter() - started) / len(trees) * 1e6
    started = time.perf_counter()
    kernel.ted_star_block(trees, k=k)
    return pair_us, len(trees) / (time.perf_counter() - started)


def matrix_executors(store_dir: Path, rows: int, col_blob: bytes, workers: int) -> Dict[str, float]:
    """engine.matrix serial and process executors on a slice, pairs/s each."""
    from repro.engine.session import CrossMatrixPlan, NedSession
    from repro.engine.shards import ShardedTreeStore

    rates = {}
    for executor in ("serial", "process"):
        store = ShardedTreeStore.load(store_dir)
        row_store = store.subset(store.nodes()[:rows])
        col_store = pickle.loads(col_blob)
        with NedSession(row_store, executor=executor, max_workers=workers) as session:
            started = time.perf_counter()
            session.execute(CrossMatrixPlan(col_store))
            elapsed = time.perf_counter() - started
        rates[executor] = len(row_store) * len(col_store) / elapsed
        del store, row_store, col_store
        gc.collect()
    return rates


def main() -> int:
    require_program()
    with open(sys.argv[1], "rb") as handle:
        job = pickle.load(handle)
    store_dir, workers = Path(job["store_dir"]), job["workers"]
    # An untimed replica first pays the interpreter's one-time costs (lazy
    # imports, first calls), which would otherwise land on the first plans.
    warmup = Replica(store_dir, workers, traced=False)
    try:
        for blob in job["warmup"]:
            warmup.execute(blob)
    finally:
        warmup.close()
    del warmup
    gc.collect()
    # Both replicas (and their workers) exist before any plan runs; plans
    # alternate between them, in alternating order, so the host's drifting
    # speed falls on both alike.
    plain = Replica(store_dir, workers, traced=False)
    traced = Replica(store_dir, workers, traced=True)
    try:
        for index, blob in enumerate(job["plans"]):
            for replica in ((plain, traced) if index % 2 == 0 else (traced, plain)):
                replica.execute(blob)
        out: Dict[str, Any] = {"plain": plain.report(), "traced": traced.report()}
    finally:
        plain.close()
        traced.close()
    pair_us, batch_rate = kernel_replay(traced.exact_pairs, job["k"])
    out["kernel_replay"] = {
        "pairs": len(traced.exact_pairs), "pair_us": pair_us, "pairs_per_s": batch_rate,
    }
    del plain, traced
    gc.collect()
    out["matrix"] = matrix_executors(store_dir, job["matrix_rows"], job["matrix_cols"], workers)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
