"""Run the scenario daemon in its own process, as it ships.

The daemon is ``python -m repro serve --port 0`` from the checkout's
``src`` tree (a traced run starts ``traced_serve.py`` instead, which
runs the same CLI under timing wrappers).  BLAS is pinned to one thread
in its environment so the daemon and the generator together use no more
threads than the host has cores.
"""

from __future__ import annotations

import os
import platform
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

#: Environment variables that cap BLAS/OpenMP thread pools.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

#: Seconds a daemon may take to start listening, and to drain on SIGTERM.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0

_ANNOUNCE = re.compile(r"serving on http://[^:]+:(\d+)")


def pinned_env(root: Path) -> dict[str, str]:
    """This process's environment with ``src`` importable and BLAS pinned."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    for name in BLAS_THREAD_VARS:
        env[name] = "1"
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def environment_stamp() -> dict[str, object]:
    """Host and library facts that the figures depend on."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name)
                         for name in BLAS_THREAD_VARS},
    }


class Daemon:
    """One daemon process; :meth:`stop` always reaps it."""

    def __init__(self, root: Path, log_path: Path,
                 spans_path: Path | None = None) -> None:
        if spans_path is None:
            argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            argv = [sys.executable,
                    str(Path(__file__).with_name("traced_serve.py")),
                    str(spans_path), "serve", "--port", "0"]
        log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(log_path, "ab")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=pinned_env(root), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log)
        self.port = 0
        self.listening = 0.0

    def wait_listening(self) -> int:
        """Block until the announcement line; return the port."""
        assert self.proc.stdout is not None
        deadline = self.spawned + START_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, remaining))
            if not ready:
                raise RuntimeError("daemon did not start listening within "
                                   f"{START_TIMEOUT:.0f}s")
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError(f"daemon exited with code "
                                   f"{self.proc.wait()} before listening")
            line += chunk
        self.listening = time.monotonic()
        match = _ANNOUNCE.search(line.decode("utf-8", "replace"))
        if match is None:
            raise RuntimeError(f"unexpected daemon announcement {line!r}")
        self.port = int(match.group(1))
        return self.port

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (VmHWM) in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match is None:
            raise RuntimeError("VmHWM missing from /proc status")
        return int(match.group(1)) / 1024.0

    def stop(self) -> int:
        """SIGTERM, wait for the graceful drain, kill if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    return self.proc.wait(STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
                    return -signal.SIGKILL
            return self.proc.returncode
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self._log.close()


def parse_metrics(text: str) -> dict[str, float]:
    """``name value`` lines of a Prometheus text dump (labels kept)."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values
