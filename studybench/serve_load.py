"""serve-hot: daemon lifecycle and the closed-loop load generator.

The load generator is a closed loop of ``SERVE_CALLERS`` caller threads
in one process, sending in lock-step rounds: every caller sends one
request, all wait for their replies, then the host probe runs before the
next round.  A closed loop because ``repro submit`` callers wait for
their reply; 2 callers because the reference host has 2 CPUs.  Each
request is timed from the POST until the terminal ``stats`` record and
normalised by the probes on either side of its round.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from probe import op_record, pin_to
from workloads import SERVE_CALLERS

LISTEN_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class DaemonError(RuntimeError):
    """The daemon did not start, answer or stop as the protocol promises."""


def cpu_plan() -> Optional[Dict[str, int]]:
    """CPUs for the daemon and the load generator, or ``None`` with fewer than 2.

    The daemon (and the probe that normalises its requests) get one CPU,
    the load generator the other, so the probe measures the speed of the
    CPU that serves the requests.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {"daemon": cpus[0], "load": cpus[1]}


class Daemon:
    """One ``repro serve`` process, started until its ``listening`` line."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str], cwd: str, log_path: str,
                 cpu: Optional[int] = None) -> None:
        self._log = open(log_path, "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv), cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=self._log, bufsize=0,
            preexec_fn=pin_to(cpu),
        )
        try:
            line = self._read_line(start + LISTEN_TIMEOUT_S)
            self.startup_s = time.perf_counter() - start
            if "listening on http://" not in line:
                raise DaemonError(f"unexpected first line from the daemon: {line!r}")
            self.port = int(line.rsplit(":", 1)[1].split()[0].strip("/"))
        except BaseException:
            self.stop()
            raise

    def _read_line(self, deadline: float) -> str:
        data = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while not data.endswith(b"\n"):
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    raise DaemonError("the daemon printed no listening line in time")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise DaemonError(f"the daemon exited early (code {self.proc.poll()})")
                data += chunk
        return data.decode("utf-8", "replace")

    def _proc_field(self, name: str) -> Optional[str]:
        try:
            with open(f"/proc/{self.proc.pid}/status") as handle:
                for line in handle:
                    if line.startswith(name + ":"):
                        return line.split()[1]
        except OSError:
            return None
        return None

    def peak_rss_mb(self) -> float:
        """Peak resident set size so far (``VmHWM``)."""
        value = self._proc_field("VmHWM")
        if value is None:
            raise DaemonError("cannot read the daemon's peak RSS")
        return int(value) / 1024.0

    def cpu_s(self) -> float:
        """User plus system CPU time the daemon has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        finally:
            self._log.close()
        return self.proc.returncode


def request(port: int, spec: Dict[str, object]) -> Dict[str, object]:
    """Submit one study and time it; never raises for a failed request."""
    from repro.service.client import submit_study
    from repro.service.protocol import encode_record

    result: Dict[str, object] = {"ok": False, "study": None, "ttfb_s": None, "error": None}
    start = time.perf_counter()
    try:
        for record in submit_study(spec, port=port, timeout=LISTEN_TIMEOUT_S):
            if result["ttfb_s"] is None:
                result["ttfb_s"] = time.perf_counter() - start
            if record.get("type") == "study":
                result["study"] = encode_record(record)
            elif record.get("type") == "stats":
                result["ok"] = True
    except Exception as error:  # a failed or refused request counts as not ok
        result["error"] = f"{type(error).__name__}: {error}"
    result["latency_s"] = time.perf_counter() - start
    return result


def closed_loop(
    port: int,
    pool: List[Dict[str, object]],
    draws: List[int],
    expected: Dict[int, bytes],
    reference_ms: float,
    probe: Callable[[], float],
) -> List[Dict[str, object]]:
    """Send ``draws`` as lock-step rounds of ``SERVE_CALLERS`` requests.

    A request is ok when its stream completed and its ``study`` line is
    byte-identical to the set-up response for the same spec.
    """
    rounds = len(draws) // SERVE_CALLERS
    results: List[Optional[Dict[str, object]]] = [None] * (rounds * SERVE_CALLERS)
    go = threading.Barrier(SERVE_CALLERS + 1, timeout=LISTEN_TIMEOUT_S)
    done = threading.Barrier(SERVE_CALLERS + 1, timeout=LISTEN_TIMEOUT_S)

    def caller(slot: int) -> None:
        for round_index in range(rounds):
            go.wait()
            index = round_index * SERVE_CALLERS + slot
            results[index] = request(port, pool[draws[index]])
            done.wait()

    threads = [threading.Thread(target=caller, args=(slot,), daemon=True) for slot in range(SERVE_CALLERS)]
    for thread in threads:
        thread.start()
    records = []
    before = probe()
    for round_index in range(rounds):
        go.wait()
        done.wait()
        after = probe()
        for slot in range(SERVE_CALLERS):
            index = round_index * SERVE_CALLERS + slot
            outcome = results[index]
            record = op_record(f"spec{draws[index]}", outcome["latency_s"], before, after, reference_ms)
            record["ok"] = bool(outcome["ok"]) and outcome["study"] == expected[draws[index]]
            record["ttfb_norm_s"] = record["norm_s"] * (outcome["ttfb_s"] or 0.0) / outcome["latency_s"]
            record["error"] = outcome["error"]
            records.append(record)
        before = after
    for thread in threads:
        thread.join(timeout=LISTEN_TIMEOUT_S)
        if thread.is_alive():
            raise DaemonError("a caller thread did not finish")
    return records
