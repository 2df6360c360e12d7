"""perfbench — the repository benchmark: NED served end to end by ``ned-serve``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload knn-road --seed 1 --seconds 46 --trace 0

Each run generates its inputs from ``--seed``, starts fresh ``ned-serve
--workers 2`` subprocesses, drives them from this process, checks every
answer against an in-process ``NedSession`` reference, and prints one JSON
object as its last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run on the same inputs (see ``layers.py``).
Host and provenance, plus every metric of the run, are printed as a JSON
``report`` line before the result.  A wrong answer, a non-zero server exit
on SIGTERM or a leaked ``/dev/shm`` segment makes ``correct`` false and the
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    EXIT_INCORRECT,
    SERVER_FLAGS,
    digest,
    nproc,
    percentile,
    provenance,
    ratio,
    require_program,
    tail_percentile,
    work_dir,
)

#: Server launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3
#: Open-loop warm-up at twice the nominal rate, excluded from every metric:
#: it fills the distance cache faster than the nominal rate would.
WARMUP_S = 3.0
#: Requests unsent this long after a step's schedule ends count as failed.
GRACE_S = 1.0
#: Seconds per ladder step.  The nominal-rate phase gets ``--seconds``
#: minus two steps: the ladder usually runs one passing and one failing step.
STEP_S = 3.0
#: Closed loop: at least this many measured requests.
MIN_CLOSED_REQUESTS = 2
#: Closed-loop warm-up: one cross matrix with this many probe columns.
WARMUP_MATRIX_COLUMNS = 8


class Run:
    """One run's servers, client, samples and correctness bookkeeping."""

    def __init__(self, inputs, work: Path) -> None:
        from service import shm_segments

        self.inputs = inputs
        self.work = work
        #: Correctness failures; the run is correct when there are none.
        self.failures: List[str] = []
        self.servers: List[Any] = []
        self.shm_before = shm_segments()
        self.setup_s: List[float] = []
        self.first_result_s: List[float] = []
        #: (plan, response digest) of every answered request, for the oracle.
        self.answered: List[Tuple[Any, str]] = []
        self.closed = False
        #: Wall seconds per part of the run (inputs, launches, oracle, ...).
        self.timings: Dict[str, float] = {}
        self.plan_rng, self.schedule_rng = inputs.rng("plans"), inputs.rng("schedule")

    # ------------------------------------------------------------- servers
    def first_plan(self):
        from repro.engine.session import KnnPlan

        return KnnPlan(self.inputs.store.entries()[0], 10)

    def launch(self) -> Any:
        """Start ``SETUP_LAUNCHES`` servers in turn; keep the last one running.

        Each launch is timed to its ready line and then to its first answer;
        all but the last are stopped again (and must exit 0).
        """
        from repro.serving.client import NedServiceClient
        from service import ServerProcess

        started = time.monotonic()
        for launch in range(SETUP_LAUNCHES):
            server = ServerProcess(
                self.inputs.store_dir, SERVER_FLAGS, self.work / "ned-serve.log"
            )
            self.servers.append(server)
            self.setup_s.append(server.ready_s)
            ready = time.monotonic()
            client = NedServiceClient(server.host, server.port, tenant="perfbench")
            plan = self.first_plan()
            self.answered.append((plan, digest(client.execute(plan))))
            self.first_result_s.append(time.monotonic() - ready)
            if launch < SETUP_LAUNCHES - 1:
                self.stop(server)
        self.timings["launches_s"] = time.monotonic() - started
        return server

    def stop(self, server) -> None:
        code = server.stop()
        if code != 0:
            self.failures.append(f"ned-serve exited {code} on SIGTERM")

    def close(self) -> None:
        """Stop every server, then check that no shm segment was left behind."""
        from service import shm_segments

        if self.closed:
            return
        self.closed = True
        for server in self.servers:
            if server.returncode is None:
                self.stop(server)
        leaked = shm_segments() - self.shm_before
        if leaked:
            self.failures.append(f"leaked /dev/shm segments: {sorted(leaked)}")

    # ------------------------------------------------------------- traffic
    def paced(self, client, rate: float, duration: float):
        """One open-loop phase at ``rate``; its answers join the oracle."""
        from load import paced_offsets, run_open_loop

        offsets = paced_offsets(self.schedule_rng, rate, duration)
        plans = [self.inputs.draw(self.plan_rng) for _ in offsets]
        phase = run_open_loop(
            client.execute, plans, offsets, duration, min(2, nproc()), GRACE_S
        )
        self.record(phase)
        return phase

    def warm_up(self, client) -> int:
        """Excluded warm-up; returns the number of requests it sent.

        Open loop: ``WARMUP_S`` at twice the nominal rate.  Closed loop: one
        small cross matrix, so every worker compiles the store's trees first.
        """
        if self.inputs.workload.loop == "open":
            rate = 2 * self.inputs.workload.nominal_rps
            return len(self.paced(client, rate, WARMUP_S).samples)
        plan = self.inputs.matrix_plan(-1, WARMUP_MATRIX_COLUMNS)
        self.answered.append((plan, digest(client.execute(plan))))
        return 1

    # -------------------------------------------------------------- oracle
    def record(self, phase) -> None:
        for sample in phase.samples:
            if sample.ok:
                self.answered.append((sample.plan, sample.digest))

    def verify(self) -> int:
        """Compare every answer with an in-process session's; returns count."""
        from repro.engine.session import NedSession
        from repro.engine.shards import ShardedTreeStore

        started = time.monotonic()
        plans = [plan for plan, _ in self.answered]
        with NedSession(ShardedTreeStore.load(self.inputs.store_dir)) as session:
            expected = [digest(result) for result in session.execute_batch(plans)]
        mismatched = sum(
            1 for (_, got), want in zip(self.answered, expected) if got != want
        )
        if mismatched:
            self.failures.append(f"{mismatched} responses differ from the reference")
        self.timings["oracle_s"] = time.monotonic() - started
        return mismatched


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def open_loop(run: Run, seconds: float) -> Dict[str, Any]:
    """Warm-up, nominal-rate phase, then the rate ladder (stops at a fail)."""
    from repro.serving.client import NedServiceClient

    workload, inputs = run.inputs.workload, run.inputs
    server = run.launch()
    client = NedServiceClient(server.host, server.port, tenant="perfbench")
    connections = min(2, nproc())
    limit_s = workload.limit_ms / 1000.0

    warmup_requests = run.warm_up(client)
    above = [rate for rate in workload.ladder if rate > workload.nominal_rps]
    below = [rate for rate in workload.ladder if rate < workload.nominal_rps]
    nominal = run.paced(client, workload.nominal_rps, seconds - 2 * STEP_S)
    steps: List[Dict[str, Any]] = []

    def step(rate: float, result) -> bool:
        passed = result.passes(limit_s, connections)
        steps.append({
            "rate_rps": rate,
            "requests": len(result.samples),
            "p95_ms": _ms(percentile(result.latencies, 0.95)),
            "backlog_growth": result.backlog_growth(),
            "passed": passed,
        })
        return passed

    # Climb from the nominal rate and stop at the first failing step; if
    # the nominal rate itself fails, descend until a step passes.
    max_rate = 0.0
    if step(workload.nominal_rps, nominal):
        max_rate = float(workload.nominal_rps)
        for rate in above:
            if not step(rate, run.paced(client, rate, STEP_S)):
                break
            max_rate = float(rate)
    else:
        for rate in reversed(below):
            if step(rate, run.paced(client, rate, STEP_S)):
                max_rate = float(rate)
                break
    pss = server.pss_mb()
    telemetry = client.telemetry()["merged"]
    run.close()
    run.verify()

    latencies = nominal.latencies
    signatures = [s.plan.probe.signature for s in nominal.samples]
    attempted = len(nominal.samples)
    failed = nominal.failed
    tail = tail_percentile(len(latencies))
    return {
        "metrics": {
            "setup_s": (statistics.median(run.setup_s), "s"),
            "latency_p50_ms": (_ms(percentile(latencies, 0.50)), "ms"),
            "latency_p95_ms": (_ms(percentile(latencies, 0.95)), "ms"),
            "max_rate_rps": (max_rate, "1/s"),
            "pairs_per_s": (nominal.pairs_per_s(inputs.pairs), "1/s"),
            "server_pss_mb": (pss, "MB"),
        },
        "attempted": attempted,
        "failed": failed,
        "report": {
            "latency_p99_ms": _ms(percentile(latencies, 0.99)),
            "latency_samples": len(latencies),
            "tail_percentile_supported": tail,
            "error_rate": ratio(failed, attempted),
            "warmup_requests": warmup_requests,
            "repeat_probe_share": 1.0 - ratio(len(set(signatures)), len(signatures)),
            "generator_late_ms_p95": _ms(percentile(nominal.lateness(), 0.95)),
            "backlog_growth": nominal.backlog_growth(),
            "ladder": steps,
            "setup_s_samples": run.setup_s,
            "first_result_s_samples": run.first_result_s,
            "batch_ticks": telemetry["counters"].get("batch.ticks", 0),
            "batch_plans": telemetry["counters"].get("batch.plans", 0),
        },
    }


def closed_loop(run: Run, seconds: float) -> Dict[str, Any]:
    """One client sending cross matrices back to back."""
    from load import run_closed_loop
    from repro.serving.client import NedServiceClient

    inputs = run.inputs
    server = run.launch()
    client = NedServiceClient(server.host, server.port, tenant="perfbench", timeout=170)
    warmup_requests = run.warm_up(client)
    phase = run_closed_loop(
        client.execute, inputs.matrix_plan, seconds, MIN_CLOSED_REQUESTS
    )
    run.record(phase)
    pss = server.pss_mb()
    run.close()
    run.verify()

    latencies = phase.latencies
    answered = [s for s in phase.samples if s.ok]
    wall = phase.end - phase.start
    return {
        "metrics": {
            "setup_s": (statistics.median(run.setup_s), "s"),
            "latency_p50_ms": (_ms(percentile(latencies, 0.50)), "ms"),
            "latency_p95_ms": (_ms(percentile(latencies, 0.95)), "ms"),
            "max_rate_rps": (len(answered) / wall, "1/s"),
            "pairs_per_s": (phase.pairs_per_s(inputs.pairs), "1/s"),
            "server_pss_mb": (pss, "MB"),
        },
        "attempted": len(phase.samples),
        "failed": phase.failed,
        "report": {
            "latency_samples": len(latencies),
            "warmup_requests": warmup_requests,
            "error_rate": ratio(phase.failed, len(phase.samples)),
            "setup_s_samples": run.setup_s,
            "first_result_s_samples": run.first_result_s,
        },
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    from workloads import build_inputs

    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    with work_dir() as work:
        inputs = build_inputs(workload, args.seed, work)
        run = Run(inputs, work)
        run.timings["inputs_s"] = time.monotonic() - started
        try:
            if args.trace:
                from layers import traced_run

                outcome = traced_run(run, args.seconds)
            elif workload.loop == "open":
                outcome = open_loop(run, args.seconds)
            else:
                outcome = closed_loop(run, args.seconds)
        finally:
            run.close()
    run.timings["total_s"] = time.monotonic() - started
    report = {
        "provenance": provenance(workload.name, args.seed, SERVER_FLAGS),
        "metrics": {name: value for name, (value, _) in outcome["metrics"].items()},
        **outcome["report"],
        "timings": run.timings,
        "failures": run.failures,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }))
    return EXIT_INCORRECT if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
