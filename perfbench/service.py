"""A real ``ned-serve`` subprocess: launch, readiness, memory, teardown.

The server is started as ``python -m repro.serving`` (the module behind the
``ned-serve`` console script) from the checkout's ``src``, so no install
step is needed.  ``setup_s`` is the time from launching the process to
reading its ready line.
"""

from __future__ import annotations

import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Set

from common import subprocess_env

#: ``ned-serve`` prints ``... at http://127.0.0.1:40123`` once it accepts.
_READY_LINE = re.compile(r"at http://([0-9.]+):(\d+)")
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def shm_segments() -> Set[str]:
    """``psm_*`` shared-memory segment names currently in ``/dev/shm``."""
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-Linux
        return set()
    return {entry.name for entry in root.iterdir() if entry.name.startswith("psm_")}


def _children(pid: int) -> List[int]:
    """Direct children of ``pid``, found by scanning ``/proc/*/stat``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            found.append(int(entry.name))
    return found


def _pss_kib(pid: int) -> int:
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1])
    return 0


class ServerProcess:
    """One ``ned-serve`` subprocess, ready to accept requests."""

    def __init__(self, store_dir: Path, flags: List[str], log_path: Path) -> None:
        command = [
            sys.executable, "-m", "repro.serving",
            "--store-dir", str(store_dir), "--port", "0", *flags,
        ]
        self._log = open(log_path, "ab")
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=subprocess_env(),
            text=True,
        )
        self.returncode: Optional[int] = None
        line = self._ready_line()
        self.ready_s = time.monotonic() - self.launched
        match = _READY_LINE.search(line)
        if not match:
            self.stop()
            raise RuntimeError(
                f"ned-serve did not come up (first line {line!r}); see {log_path}"
            )
        self.host, self.port = match.group(1), int(match.group(2))

    def _ready_line(self) -> str:
        import selectors

        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(READY_TIMEOUT_S):
                return ""
        return self.proc.stdout.readline()

    def pss_mb(self) -> float:
        """Summed PSS of the server and every descendant (workers, tracker).

        PSS charges each shared page to its sharers in proportion, so the
        shared-memory store segment is counted once across the processes.
        """
        pending, seen = [self.proc.pid], set()
        total_kib = 0
        while pending:
            pid = pending.pop()
            if pid in seen:
                continue
            seen.add(pid)
            total_kib += _pss_kib(pid)
            pending.extend(_children(pid))
        return total_kib / 1024.0

    def stop(self) -> int:
        """SIGTERM, wait for exit (kill after a timeout); returns the code."""
        if self.returncode is not None:
            return self.returncode
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        self.returncode = self.proc.returncode
        return self.returncode
