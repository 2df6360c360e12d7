"""Cold-start breakdown: ``ned-serve``'s start-up steps, timed one by one.

Run as a separate process so every import is cold::

    python3 perfbench/coldstart.py --store-dir DIR --workers 2 --launched T

``--launched`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so interpreter start-up is timed
too.  The steps mirror what ``ned-serve`` does before its ready line, in
order, through public calls only, followed by the first ``execute``.  One
JSON object with the seconds of each step is printed on stdout.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store-dir", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    args = parser.parse_args()
    steps = {"interpreter_s": STARTED - args.launched}
    mark = time.monotonic()

    def lap(name: str) -> None:
        nonlocal mark
        now = time.monotonic()
        steps[name] = now - mark
        mark = now

    import repro  # noqa: F401

    lap("import_s")
    import numpy  # noqa: F401

    lap("numpy_import_s")
    import scipy.optimize  # noqa: F401

    lap("scipy_import_s")
    import repro.serving.server  # noqa: F401  (ned-serve's HTTP front and tick loop)

    lap("serving_import_s")
    from repro.engine.session import KnnPlan, NedSession
    from repro.engine.shards import ShardedTreeStore

    store = ShardedTreeStore.load(Path(args.store_dir))
    lap("store_load_s")
    session = NedSession(store)
    lap("session_s")
    export = pool = None
    try:
        if args.workers:
            from repro.serving.shm import export_store
            from repro.serving.workers import SharedWorkerPool

            export = export_store(store, metrics=session.metrics)
            lap("shm_export_s")
            pool = SharedWorkerPool(
                export.handle, store, workers=args.workers,
                backend=session.resolver.matching_backend, metrics=session.metrics,
            )
            pool.warm()
            session.attach_block_dispatcher(pool)
            lap("worker_fork_s")
        session.execute(KnnPlan(store.entries()[0], 10))
        lap("first_result_s")
    finally:
        if pool is not None:
            session.attach_block_dispatcher(None)
            pool.close()
        if export is not None:
            export.close()
        session.close()
    print(json.dumps(steps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
