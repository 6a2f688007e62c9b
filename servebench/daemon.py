"""Launch, probe and stop one evaluation daemon as its own process.

Two launchers are supported:

* the real CLI daemon, ``python -m repro.cli serve`` with default
  settings (only the port and a fresh cache directory are passed), and
* the benchmark's traced launcher (``traced_daemon.py``), which hosts
  the same :class:`repro.service.EvalService` with tracing on.

Both get the same environment: ``PYTHONPATH`` pointing at the
checkout's ``src``, ``REPRO_JOBS=1``, ``REPRO_TRACE`` pinned, and every
other inherited ``REPRO_*`` variable removed.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def daemon_env(trace: bool) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_JOBS"] = "1"
    env["REPRO_TRACE"] = "1" if trace else "0"
    return env


def admin(port: int, kind: str, timeout: float = 5.0) -> Dict[str, Any]:
    """One admin request (``readyz``/``statsz``) on a fresh connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(json.dumps({"id": kind, "kind": kind}).encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                raise ConnectionError(f"{kind}: connection closed")
            buf += chunk
    return json.loads(buf)


class Daemon:
    """One daemon process: start, wait until ready, sample /proc, stop."""

    def __init__(self, argv: List[str], env: Dict[str, str], port: int,
                 workdir: Path, log_path: Path) -> None:
        self.argv = argv
        self.env = env
        self.port = port
        self.workdir = workdir
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None

    @classmethod
    def cli(cls, workdir: Path, cache_dir: Path, name: str) -> "Daemon":
        port = free_port()
        argv = [sys.executable, "-m", "repro.cli", "serve",
                "--port", str(port), "--cache-dir", str(cache_dir)]
        return cls(argv, daemon_env(trace=False), port, workdir,
                   workdir / f"{name}.log")

    @classmethod
    def traced(cls, workdir: Path, cache_dir: Path, dump: Path,
               name: str) -> "Daemon":
        port = free_port()
        argv = [sys.executable, str(BENCH_DIR / "traced_daemon.py"),
                "--port", str(port), "--cache-dir", str(cache_dir),
                "--dump", str(dump)]
        return cls(argv, daemon_env(trace=True), port, workdir,
                   workdir / f"{name}.log")

    def start(self, timeout: float = 60.0) -> float:
        """Launch and block until ``readyz`` answers; returns seconds taken."""
        with open(self.log_path, "wb") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv, cwd=self.workdir, env=self.env,
                stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        deadline = t0 + timeout
        while True:
            try:
                if admin(self.port, "readyz", timeout=timeout).get("ok"):
                    return time.perf_counter() - t0
            except (ConnectionError, OSError):
                pass
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} before "
                    f"readyz:\n{self.log_tail()}"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError(f"daemon not ready after {timeout}s")
            time.sleep(0.002)

    def statsz_counters(self) -> Dict[str, int]:
        return dict(admin(self.port, "statsz")["metrics"].get("counters", {}))

    def cpu_seconds(self) -> float:
        """User+system CPU of the daemon process so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = fields.rsplit(")", 1)[1].split()
        # fields[11..14] = utime, stime, cutime, cstime (stat fields 14-17)
        return sum(int(f) for f in fields[11:15]) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it does not exit."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])
