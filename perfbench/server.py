"""Launch ``python -m repro.cli ... serve`` the way a user does, and stop it."""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

from measure import session_pids

_ENDPOINT = re.compile(r"^endpoint:\s+http://([^:/]+):(\d+)/")
_MERGED_STATS = re.compile(r"^stats:\s+http://([^:/]+):(\d+)/stats\s+\(merged")


class ServerProcess:
    """One server launch: the command, its output, its address."""

    def __init__(self, args: Sequence[str], env: Dict[str, str],
                 cwd: str) -> None:
        self.argv = [sys.executable, "-m", "repro.cli", *args]
        self.env, self.cwd = env, cwd
        self.proc: Optional[subprocess.Popen] = None
        self.output: List[str] = []
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.stats_port: Optional[int] = None
        self._address = threading.Event()
        self._reader: Optional[threading.Thread] = None
        self.launched = 0.0

    def start(self) -> "ServerProcess":
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=self.cwd, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            start_new_session=True, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        return self

    def _read(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self.output.append(line.rstrip("\n"))
            merged = _MERGED_STATS.match(line)
            if merged:
                self.stats_port = int(merged.group(2))
            match = _ENDPOINT.match(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                self._address.set()
        self._address.set()

    def wait_healthy(self, timeout_s: float = 120.0) -> float:
        """Seconds from launch to the first ``200`` from ``/health``."""
        deadline = self.launched + timeout_s
        if not self._address.wait(timeout_s) or self.port is None:
            raise RuntimeError("server exited before printing its address:\n"
                               + "\n".join(self.output[-20:]))
        while time.perf_counter() < deadline:
            if self.proc is not None and self.proc.poll() is not None:
                raise RuntimeError("server exited during start-up:\n"
                                   + "\n".join(self.output[-20:]))
            conn = http.client.HTTPConnection(self.host, self.port, timeout=2)
            try:
                conn.request("GET", "/health")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return time.perf_counter() - self.launched
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError(f"no 200 from /health within {timeout_s:.0f}s")

    @property
    def stats_address(self):
        """Where the cluster-wide ``/stats`` lives (the pre-fork
        coordinator's port, else the server's own)."""
        return self.host, (self.stats_port or self.port)

    def pids(self) -> List[int]:
        return session_pids(self.proc.pid) if self.proc is not None else []

    def stop(self, timeout_s: float = 15.0) -> bool:
        """Interrupt the server as Ctrl+C would and wait for it and every
        process it started; kill what outlives ``timeout_s``.  Returns
        whether everything exited on its own."""
        if self.proc is None:
            return True
        leader = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + timeout_s
        while ((self.proc.poll() is None or session_pids(leader))
               and time.monotonic() < deadline):
            time.sleep(0.02)
        stragglers = session_pids(leader)
        for pid in stragglers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        if self._reader is not None:
            self._reader.join(5.0)
        return not stragglers
