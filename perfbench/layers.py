"""The traced run: per-layer numbers on the same inputs as the measured run.

Nothing inside ``src`` is instrumented.  Time is attributed from two sides:

* **the server subprocess** — deltas of the counters and histograms it
  already exports on ``GET /v1/telemetry`` (request, execute, tick, worker
  dispatch and worker block times; batch, dedup and shm counters);
* **this process** — timing wrappers set on the instances of an in-process
  ``NedSession`` built exactly like the server's (same store files, same
  worker pool), and on the service client's protocol calls.  The wrappers
  nest, so each layer's *self* time is its own time minus its children's.

The layer ladder is kernel -> resolver -> session -> service: each rung
adds one layer's self time in the replay, and the last rung is the
client-observed wall time of the same requests against the server.
``ladder.sum_error`` checks the attribution per request: client codec,
server overhead (request minus execute) and the server's execute time split
in the replay's proportions of search, resolver and kernel time must add up
to the client wall time within ``LADDER_TOLERANCE``; what is left over is
HTTP transport, which no timer covers.  ``setup.breakdown_error`` does the same
for the cold-start steps against ``setup_s + setup.first_result_s``.
"""

from __future__ import annotations

import json
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import SERVER_WORKERS, percentile, ratio, subprocess_env
from spans import Spans

#: Stated tolerances of the two attribution checks (share of the whole).
#: For the ladder it bounds the client wall time no layer timer covers:
#: HTTP transport and the server's HTTP handling outside its request timer.
LADDER_TOLERANCE = 0.15
#: For the cold start it covers what ``ned-serve`` does beyond the timed
#: calls (argument parsing, HTTP bind, tick-loop and HTTP threads) and the
#: host's drift between the launches and the breakdown runs.
COLDSTART_TOLERANCE = 0.30
#: Cold-start breakdowns per traced run (the median total is reported).
COLDSTART_RUNS = 3
#: Plans of an open-loop traced phase the in-process ladder replays.
LADDER_PLANS = 100
#: Untimed warm-up of the replay: plans (open loop) or matrix columns.
LADDER_WARMUP_PLANS = 5
#: engine.matrix slice: rows x columns of a cross matrix.
MATRIX_SLICE = (50, 10)

#: Every per-layer metric, with its unit, in the order it is printed.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("serving.client.encode_ms", "ms"),
    ("serving.client.decode_ms", "ms"),
    ("serving.client.request_bytes", "bytes"),
    ("serving.client.response_bytes", "bytes"),
    ("serving.server.request_ms", "ms"),
    ("serving.server.http_ms", "ms"),
    ("serving.server.overhead_ms", "ms"),
    ("engine.session.plans_per_tick", "count"),
    ("engine.session.dedup_ratio", "ratio"),
    ("engine.session.execute_ms", "ms"),
    ("serving.ticks.tick_ms", "ms"),
    ("serving.queue_depth_hwm", "count"),
    ("engine.search.scan_self_ms", "ms"),
    ("ted.resolver.bounds_us", "us"),
    ("ted.resolver.signature_hits", "count"),
    ("ted.resolver.level_size_decided", "count"),
    ("ted.resolver.degree_decided", "count"),
    ("ted.resolver.pruned", "count"),
    ("ted.resolver.cache_hits", "count"),
    ("ted.resolver.exact_evaluations", "count"),
    ("ted.resolver.exact_avoided_ratio", "ratio"),
    ("ted.resolver.cache_hit_rate", "ratio"),
    ("ted.ted_star.pair_us", "us"),
    ("ted.batch.pairs_per_s", "1/s"),
    ("ted.batch.fallback_pairs", "count"),
    ("serving.workers.blocks", "count"),
    ("serving.workers.pairs_per_block", "count"),
    ("serving.workers.dispatch_ms", "ms"),
    ("serving.workers.block_ms", "ms"),
    ("serving.workers.ipc_share", "ratio"),
    ("serving.workers.fallbacks", "count"),
    ("engine.matrix.serial_pairs_per_s", "1/s"),
    ("engine.matrix.process_pairs_per_s", "1/s"),
    ("setup.interpreter_s", "s"),
    ("setup.import_s", "s"),
    ("setup.numpy_import_s", "s"),
    ("setup.scipy_import_s", "s"),
    ("setup.serving_import_s", "s"),
    ("setup.store_load_s", "s"),
    ("setup.session_s", "s"),
    ("setup.shm_export_s", "s"),
    ("setup.worker_fork_s", "s"),
    ("setup.first_result_s", "s"),
    ("setup.breakdown_error", "ratio"),
    ("engine.shards.stream_decodes", "count"),
    ("serving.shm.export_bytes", "bytes"),
    ("bench.generator_late_ms_p95", "ms"),
    ("bench.backlog_growth", "count"),
    ("bench.repeat_probe_share", "ratio"),
    ("bench.trace_overhead_ms", "ms"),
    ("ladder.kernel_ms", "ms"),
    ("ladder.resolver_ms", "ms"),
    ("ladder.session_ms", "ms"),
    ("ladder.service_ms", "ms"),
    ("ladder.sum_error", "ratio"),
)


# -------------------------------------------------------- telemetry deltas
class Telemetry:
    """Difference of two ``/v1/telemetry`` merged snapshots."""

    def __init__(self, before: Dict[str, Any], after: Dict[str, Any]) -> None:
        self.before, self.after = before, after

    def counter(self, name: str) -> float:
        return self.after["counters"].get(name, 0) - self.before["counters"].get(name, 0)

    def gauge(self, name: str) -> float:
        return self.after["gauges"].get(name, 0)

    def hist(self, name: str) -> Tuple[int, float]:
        """(count, sum in seconds) observed between the two snapshots."""
        after = self.after["histograms"].get(name, {"count": 0, "sum": 0.0})
        before = self.before["histograms"].get(name, {"count": 0, "sum": 0.0})
        return after["count"] - before["count"], after["sum"] - before["sum"]

    def mean_ms(self, name: str) -> float:
        count, total = self.hist(name)
        return ratio(total, count) * 1000.0


# ------------------------------------------------------------ traced client
class ClientTrace:
    """Timing wrappers on the service client's protocol and JSON calls.

    ``NedServiceClient`` encodes with ``encode_request`` + ``json.dumps`` and
    decodes with ``json.loads`` + ``decode_response``; the module globals it
    resolves those through are swapped for timed versions while the trace
    is active, and restored afterwards.
    """

    def __init__(self) -> None:
        self.spans = Spans()
        self.request_bytes: List[int] = []
        self.response_bytes: List[int] = []
        self._saved: Dict[str, Any] = {}

    def __enter__(self) -> "ClientTrace":
        import types

        import repro.serving.client as client_module

        spans = self.spans
        dumps = spans.wrap("client.dumps", json.dumps)
        loads = spans.wrap("client.loads", json.loads)

        def sized_dumps(obj, *args, **kwargs):
            text = dumps(obj, *args, **kwargs)
            self.request_bytes.append(len(text))
            return text

        def sized_loads(raw, *args, **kwargs):
            self.response_bytes.append(len(raw))
            return loads(raw, *args, **kwargs)

        traced_json = types.SimpleNamespace(
            dumps=sized_dumps, loads=sized_loads, JSONDecodeError=json.JSONDecodeError
        )
        for name, value in (
            ("encode_request", spans.wrap("client.encode", client_module.encode_request)),
            ("decode_response", spans.wrap("client.decode", client_module.decode_response)),
            ("json", traced_json),
        ):
            self._saved[name] = getattr(client_module, name)
            setattr(client_module, name, value)
        return self

    def __exit__(self, *exc) -> None:
        import repro.serving.client as client_module

        for name, value in self._saved.items():
            setattr(client_module, name, value)

    def attach(self, client) -> None:
        client.execute = self.spans.wrap("client.execute", client.execute)

    def per_request_ms(self, names: Tuple[str, ...], requests: int) -> float:
        return ratio(sum(self.spans.inclusive[n] for n in names), requests) * 1000.0


def run_ladder(job: Dict[str, Any], work: Path) -> Dict[str, Any]:
    """Run ``ladder.py`` on ``job`` in a fresh interpreter; returns its JSON."""
    job_path = work / "ladder-job.pickle"
    with open(job_path, "wb") as handle:
        pickle.dump(job, handle)
    script = Path(__file__).resolve().parent / "ladder.py"
    completed = subprocess.run(
        [sys.executable, str(script), str(job_path)],
        capture_output=True, text=True, env=subprocess_env(), timeout=150, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def cold_start(store_dir: Path, workers: int) -> Dict[str, float]:
    """Run ``coldstart.py`` in a fresh interpreter; returns its step times."""
    script = Path(__file__).resolve().parent / "coldstart.py"
    launched = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(script), "--store-dir", str(store_dir),
         "--workers", str(workers), "--launched", repr(launched)],
        capture_output=True, text=True, env=subprocess_env(), timeout=120, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------- the run
def traced_run(run, seconds: float) -> Dict[str, Any]:
    """Service phase with a traced client, then the ladder and cold start."""
    from load import run_closed_loop
    from repro.serving.client import NedServiceClient

    open_loop = run.inputs.workload.loop == "open"
    server = run.launch()
    client = NedServiceClient(server.host, server.port, tenant="perfbench", timeout=170)
    run.warm_up(client)
    before = client.telemetry()["merged"]
    with ClientTrace() as trace:
        trace.attach(client)
        if open_loop:
            measured = run.paced(client, run.inputs.workload.nominal_rps, seconds / 2)
        else:
            measured = run_closed_loop(client.execute, run.inputs.matrix_plan, 0.0, 1)
            run.record(measured)
    after = client.telemetry()["merged"]
    run.close()
    run.verify()

    metrics: Dict[str, float] = {}
    report: Dict[str, Any] = {}
    service_layers(measured, trace, Telemetry(before, after), metrics, open_loop)
    ladder_layers(run, measured, metrics, report)
    # Layer shares of one request: client codec and server overhead as the
    # service measured them, and the server's execute time split in the
    # replay's proportions of search, resolver and kernel self time.
    split = report.pop("replay_split")
    execute_ms = metrics["engine.session.execute_ms"]
    shares = {
        "client_codec_ms": metrics["serving.client.encode_ms"]
        + metrics["serving.client.decode_ms"],
        "server_overhead_ms": metrics["serving.server.overhead_ms"],
        **{f"{layer}_ms": execute_ms * ratio(value, sum(split.values()))
           for layer, value in split.items()},
    }
    wall_ms = metrics["ladder.service_ms"]
    metrics["ladder.sum_error"] = abs(wall_ms - sum(shares.values())) / wall_ms
    cold_start_layers(run, metrics, report)
    report.update({
        "ladder_shares_ms": shares,
        "tolerances": {"ladder": LADDER_TOLERANCE, "coldstart": COLDSTART_TOLERANCE},
        "attribution_checks": {
            "ladder_sum_within_tolerance": metrics["ladder.sum_error"] <= LADDER_TOLERANCE,
            "coldstart_sum_within_tolerance": (
                metrics["setup.breakdown_error"] <= COLDSTART_TOLERANCE),
        },
        "setup_s_samples": run.setup_s,
        "first_result_s_samples": run.first_result_s,
    })
    units = dict(PER_LAYER)
    return {
        "metrics": {name: (float(metrics[name]), units[name]) for name, _ in PER_LAYER},
        "attempted": len(measured.samples),
        "failed": measured.failed,
        "report": report,
    }


def service_layers(measured, trace: ClientTrace, tele: Telemetry, metrics,
                   open_loop: bool) -> None:
    """Client, server, tick and worker layers of the traced service phase."""
    requests = len(measured.samples)
    execute_call_ms = trace.per_request_ms(("client.execute",), requests)
    encode_ms = trace.per_request_ms(("client.encode", "client.dumps"), requests)
    decode_ms = trace.per_request_ms(("client.decode", "client.loads"), requests)
    request_ms = tele.mean_ms("serving.request_seconds")
    # Every plan kind's execute histogram (the phase sends one kind).
    execute = [tele.hist(name) for name in tele.after["histograms"]
               if name.startswith("session.execute_seconds.")]
    execute_ms = ratio(sum(t for _, t in execute), sum(c for c, _ in execute)) * 1000.0
    dispatch_ms = tele.mean_ms("serving.dispatch_seconds")
    block_ms = tele.mean_ms("serving.worker_block_seconds")
    blocks = tele.counter("serving.dispatch_blocks")
    metrics.update({
        "serving.client.encode_ms": encode_ms,
        "serving.client.decode_ms": decode_ms,
        "serving.client.request_bytes": statistics.mean(trace.request_bytes),
        "serving.client.response_bytes": statistics.mean(trace.response_bytes),
        "serving.server.request_ms": request_ms,
        # Client call minus client codec minus server time: connection,
        # transfer and the server's HTTP handling outside its request timer.
        "serving.server.http_ms": execute_call_ms - encode_ms - decode_ms - request_ms,
        "serving.server.overhead_ms": request_ms - execute_ms,
        "engine.session.plans_per_tick": ratio(
            tele.counter("batch.plans"), tele.counter("batch.ticks")),
        "engine.session.dedup_ratio": ratio(
            tele.counter("batch.deduplicated_plans"), tele.counter("batch.plans")),
        "engine.session.execute_ms": execute_ms,
        "serving.ticks.tick_ms": tele.mean_ms("serving.tick_seconds"),
        "serving.queue_depth_hwm": tele.gauge("serving.queue_depth_hwm"),
        "serving.workers.blocks": blocks,
        "serving.workers.pairs_per_block": ratio(tele.counter("serving.dispatch_pairs"), blocks),
        "serving.workers.dispatch_ms": dispatch_ms,
        "serving.workers.block_ms": block_ms,
        # A block is split across the workers, which run its parts in
        # parallel: the rest of the dispatch time is pickling and IPC.
        "serving.workers.ipc_share": 1.0 - ratio(block_ms, dispatch_ms) if blocks else 0.0,
        "serving.workers.fallbacks": tele.counter("serving.dispatch_fallbacks"),
        "engine.shards.stream_decodes": tele.after["counters"].get("shards.stream_decodes", 0),
        "serving.shm.export_bytes": tele.after["counters"].get("serving.shm_export_bytes", 0),
        "ladder.service_ms": statistics.mean(
            (s.done - s.sent) * 1000.0 for s in measured.samples if s.ok),
    })
    signatures = [s.plan.probe.signature for s in measured.samples] if open_loop else []
    metrics.update({
        "bench.generator_late_ms_p95": (
            percentile(measured.lateness(), 0.95) * 1000 if open_loop else 0.0),
        "bench.backlog_growth": measured.backlog_growth() if open_loop else 0,
        "bench.repeat_probe_share": (
            1.0 - ratio(len(set(signatures)), len(signatures)) if open_loop else 0.0),
    })


def ladder_layers(run, measured, metrics, report) -> None:
    """Kernel, resolver and session layers from ``ladder.py``'s replay.

    The replay runs the plans of the traced phase (the first
    ``LADDER_PLANS`` of an open loop, the request of a closed loop) one
    tick each on a plain and a traced session, alternately: the plain time
    is what the attribution check compares, the difference is the tracing
    overhead.
    """
    from repro.engine.session import CrossMatrixPlan
    from repro.engine.tree_store import TreeStore

    inputs = run.inputs
    if inputs.workload.loop == "open":
        plans = [s.plan for s in measured.samples[:LADDER_PLANS]]
        warmup = plans[:LADDER_WARMUP_PLANS]
        columns = list({s.plan.probe.node: s.plan.probe for s in measured.samples}.values())
    else:
        plans = [measured.samples[0].plan]
        columns = plans[0].col_store.entries()
        warmup = [CrossMatrixPlan(TreeStore(inputs.store.k, columns[:LADDER_WARMUP_PLANS]))]
    result = run_ladder({
        "store_dir": str(inputs.store_dir),
        "workers": SERVER_WORKERS,
        "k": inputs.store.k,
        "warmup": [pickle.dumps(p) for p in warmup],
        "plans": [pickle.dumps(p) for p in plans],
        "matrix_rows": MATRIX_SLICE[0],
        "matrix_cols": pickle.dumps(TreeStore(inputs.store.k, columns[:MATRIX_SLICE[1]])),
    }, run.work)
    rung = result["traced"]
    spans, stats = rung["spans"], rung["stats"]
    per_plan = rung["plans"]
    to_ms = 1000.0 / per_plan

    def layer_self(prefix: str) -> float:
        return sum(v for name, v in spans["self_time"].items() if name.startswith(prefix))

    kernel_ms = (layer_self("kernel.") + layer_self("workers.")) * to_ms
    for name, value in (
        ("signature_hits", stats["signature_hits"]),
        ("level_size_decided", stats["decided_by_level_size"]),
        ("degree_decided", stats["decided_by_degree"]),
        ("pruned", stats["pruned_by_level_size"] + stats["pruned_by_degree"]),
        ("cache_hits", stats["cache_hits"]),
        ("exact_evaluations", stats["exact_evaluations"]),
    ):
        metrics[f"ted.resolver.{name}"] = value / per_plan
    plain_s = result["plain"]["seconds"]
    metrics.update({
        "engine.search.scan_self_ms": spans["self_time"].get("search.execute", 0.0) * to_ms,
        "ted.resolver.bounds_us": ratio(
            spans["inclusive"].get("resolver.bounds", 0.0),
            spans["calls"].get("resolver.bounds", 0)) * 1e6,
        "ted.resolver.exact_avoided_ratio": ratio(
            stats["exact_evaluations_avoided"], stats["pairs_considered"]),
        "ted.resolver.cache_hit_rate": stats["cache_hit_rate"],
        "ted.ted_star.pair_us": result["kernel_replay"]["pair_us"],
        "ted.batch.pairs_per_s": result["kernel_replay"]["pairs_per_s"],
        "ted.batch.fallback_pairs": rung["fallback_pairs"],
        "bench.trace_overhead_ms": (rung["seconds"] - plain_s) * to_ms,
        "ladder.kernel_ms": kernel_ms,
        "ladder.resolver_ms": kernel_ms + layer_self("resolver.") * to_ms,
        "ladder.session_ms": rung["seconds"] * to_ms,
        "engine.matrix.serial_pairs_per_s": result["matrix"]["serial"],
        "engine.matrix.process_pairs_per_s": result["matrix"]["process"],
    })
    report.update({
        "replay_split": {
            "search": spans["self_time"].get("search.execute", 0.0),
            "resolver": layer_self("resolver."),
            "kernel": layer_self("kernel.") + layer_self("workers."),
        },
        "replay_execute_ms": plain_s * to_ms,
        "ladder_plans": per_plan,
        "ladder_kernel_replay_pairs": result["kernel_replay"]["pairs"],
    })


def cold_start_layers(run, metrics, report) -> None:
    """Start-up steps in a cold interpreter, checked against ``setup_s``."""
    # Median run of several, like setup_s itself.
    runs = sorted(
        (cold_start(run.inputs.store_dir, SERVER_WORKERS) for _ in range(COLDSTART_RUNS)),
        key=lambda steps: sum(steps.values()),
    )
    steps = runs[len(runs) // 2]
    for name in ("interpreter_s", "import_s", "numpy_import_s", "scipy_import_s",
                 "serving_import_s", "store_load_s", "session_s", "shm_export_s",
                 "worker_fork_s"):
        metrics[f"setup.{name}"] = steps.get(name, 0.0)
    first_result = statistics.median(run.first_result_s)
    whole = statistics.median(run.setup_s) + first_result
    metrics["setup.first_result_s"] = first_result
    metrics["setup.breakdown_error"] = abs(sum(steps.values()) - whole) / whole
    report.update({"coldstart_steps_s": steps, "coldstart_whole_s": whole})
