"""The three workloads and their seeded inputs.

A workload's *served* store is fixed by its dataset (the dataset generator's
own default seed), so every seed measures the same service.  The workload
seed draws everything a client sends: which probes, in which order, the
anonymization of the de-anonymization copies and the arrival schedule.

* ``knn-road`` — open loop, ``KnnPlan(count=10)`` probes sampled from the
  served CAR graph's own nodes (2,500 nodes, k=3).
* ``topl-deanon`` — open loop, ``TopLPlan(top_l=5)`` probes from a
  5%-perturbation-anonymized copy of AMZN scale 0.6 (900 nodes, k=3),
  drawn Zipf(s=1) over the anonymized nodes.
* ``matrix-deanon`` — closed loop, one client, ``CrossMatrixPlan``
  requests; each ships a freshly anonymized 40-node probe store (its own
  seed, a disjoint node window) against the same 900-node store.

``BENCHMARK.json`` gates ``knn-road`` and ``matrix-deanon``;
``topl-deanon`` runs with the same command but its heavy-tailed request
cost leaves its p95 too unsteady between runs to gate on a 2-core host.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

K = 3
SHARDS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str  # "open" or "closed"
    dataset: str
    scale: float
    ladder: Tuple[float, ...] = ()
    nominal_rps: float = 0.0
    limit_ms: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="knn-road",
            loop="open",
            dataset="CAR",
            scale=1.0,
            # No 20 or 25 rps step: a knn request costs 40-55 ms as the host's
            # speed drifts, so capacity lies between them and such a step
            # passes or fails by chance.
            ladder=(5, 10, 15, 30, 40),
            nominal_rps=10,
            limit_ms=250,
        ),
        Workload(
            name="topl-deanon",
            loop="open",
            dataset="AMZN",
            scale=0.6,
            ladder=(6, 12, 18, 24, 36, 48),
            nominal_rps=12,
            limit_ms=250,
        ),
        Workload(
            name="matrix-deanon",
            loop="closed",
            dataset="AMZN",
            scale=0.6,
        ),
    )
}

#: Probe-store size of one matrix-deanon request (columns of the matrix).
MATRIX_WINDOW = 40
#: Perturbation ratio of the anonymized copies.
ANON_RATIO = 0.05


@dataclass
class Inputs:
    """Everything one run sends, generated from the workload seed."""

    workload: Workload
    seed: int
    store: Any
    store_dir: Path
    #: open loop: draws the next plan from a stream's generator.
    draw: Optional[Callable[[random.Random], Any]] = None
    #: closed loop: the i-th request's plan (built on first use).
    matrix_plan: Optional[Callable[..., Any]] = None

    def rng(self, stream: str) -> random.Random:
        """An independent, reproducible random stream per purpose."""
        return random.Random(f"{self.seed}:{stream}")

    def pairs(self, plan: Any) -> int:
        """Candidate pairs a plan covers (store rows x probe columns)."""
        col_store = getattr(plan, "col_store", None)
        return len(self.store) * (len(col_store) if col_store is not None else 1)


def _probe_store(graph, nodes):
    from repro.engine.tree_store import TreeStore

    return TreeStore.from_graph(graph, k=K, nodes=nodes)


def build_inputs(workload: Workload, seed: int, work: Path) -> Inputs:
    """Generate the served store (saved sharded under ``work``) and probes."""
    from repro.anonymize.anonymizers import perturbation_anonymization
    from repro.datasets import load_dataset
    from repro.engine.session import CrossMatrixPlan, KnnPlan, TopLPlan
    from repro.engine.shards import save_sharded
    from repro.engine.tree_store import TreeStore

    graph = load_dataset(workload.dataset, scale=workload.scale)
    store = TreeStore.from_graph(graph, k=K)
    store_dir = work / "store"
    save_sharded(store, store_dir, shards=SHARDS)
    inputs = Inputs(workload, seed, store, store_dir)

    if workload.name == "knn-road":
        entries = store.entries()

        def draw_knn(rng: random.Random):
            return KnnPlan(rng.choice(entries), 10)

        inputs.draw = draw_knn
    elif workload.name == "topl-deanon":
        anonymized = perturbation_anonymization(
            graph, ANON_RATIO, seed=inputs.rng("anonymize").randrange(1 << 30)
        )
        probes = _probe_store(anonymized.graph, anonymized.pseudonyms()).entries()
        # Zipf(s=1) over a popularity order fixed by each node's original
        # identity, so every seed sends the same hot set (its cost does not
        # change with the seed); the seed draws the sequence.
        originals = sorted(graph.nodes())
        random.Random("topl-popularity").shuffle(originals)
        rank = {node: position for position, node in enumerate(originals)}
        popularity = sorted(probes, key=lambda e: rank[anonymized.true_identity[e.node]])
        cumulative = list(accumulate(1.0 / r for r in range(1, len(popularity) + 1)))
        total = cumulative[-1]

        def draw_topl(rng: random.Random):
            index = bisect_left(cumulative, rng.random() * total)
            return TopLPlan(popularity[min(index, len(popularity) - 1)], 5)

        inputs.draw = draw_topl
    else:
        # Request i covers the same original nodes for every seed (a fixed
        # shuffle cut into disjoint windows), so the work per request does
        # not change with the seed; the seed drives the anonymization.
        originals = sorted(graph.nodes())
        random.Random("matrix-windows").shuffle(originals)
        windows = len(originals) // MATRIX_WINDOW
        cache: Dict[Tuple[int, int], Any] = {}

        def matrix_plan(index: int, size: int = MATRIX_WINDOW):
            if (index, size) not in cache:
                request_seed = inputs.rng(f"request-{index}").randrange(1 << 30)
                anonymized = perturbation_anonymization(graph, ANON_RATIO, seed=request_seed)
                pseudonym = {orig: anon for anon, orig in anonymized.true_identity.items()}
                start = (index % windows) * MATRIX_WINDOW
                window = [pseudonym[node] for node in originals[start:start + size]]
                cache[index, size] = CrossMatrixPlan(_probe_store(anonymized.graph, window))
            return cache[index, size]

        inputs.matrix_plan = matrix_plan
    return inputs
