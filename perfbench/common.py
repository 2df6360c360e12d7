"""Shared helpers: paths, percentiles, digests, provenance and the work dir.

Everything the benchmark writes goes under ``<checkout>/.perfbench-work``
(one sub-directory per run, removed when the run ends), so a run reads and
writes only inside the checkout it was started from.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

#: Worker processes of every measured ``ned-serve``, and its flags.
SERVER_WORKERS = 2
SERVER_FLAGS = ["--workers", str(SERVER_WORKERS)]

#: Exit code for "the program under test is not in this checkout".
EXIT_NO_PROGRAM = 2
#: Exit code for a correctness failure (a result line is still printed).
EXIT_INCORRECT = 1


def require_program() -> None:
    """Put ``src`` on the import path, or exit non-zero without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure ({SRC / 'repro'} is missing)",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_NO_PROGRAM)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def subprocess_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


@contextmanager
def work_dir() -> Iterator[Path]:
    """A private scratch directory inside the checkout, removed afterwards."""
    path = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still owns a sibling directory


# ------------------------------------------------------------------ statistics
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); ``inf`` entries sort last.

    Nearest rank keeps the reading on a measured sample: with 200 samples
    p95 is the 190th smallest, so exactly ten samples lie beyond it.
    """
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest of p99/p95/p90/p50 that keeps at least ten samples beyond."""
    for q in (0.99, 0.95, 0.90, 0.50):
        if count - math.ceil(q * count) >= 10:
            return q
    return None


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# --------------------------------------------------------------------- digests
def canonical(result: Any) -> Any:
    """A JSON-ready canonical form of a point list or a matrix result."""
    if isinstance(result, list):
        return ["point", [[repr(node), float(value)] for node, value in result]]
    return [
        "matrix",
        [repr(node) for node in result.row_nodes],
        [repr(node) for node in result.col_nodes],
        [[float(value) for value in row] for row in result.values],
    ]


def digest(result: Any) -> str:
    blob = json.dumps(canonical(result), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------ provenance
def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "not installed"


def provenance(workload: str, seed: int, server_flags: List[str]) -> Dict[str, Any]:
    """Host and provenance record printed with every result."""
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "ned_serve_flags": server_flags,
    }
