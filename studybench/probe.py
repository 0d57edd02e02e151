"""Host-speed probe and the normalisation every workload shares.

The shared host this benchmark runs on changes speed by up to ~1.8x, in
phases that last from a few milliseconds to whole 10-s windows, and CPU
time slows by the same factor as wall time.  One raw wall-clock sample
per run therefore cannot repeat within a tenth.  Each workload instead
reports every operation ("op") in *host-normalised seconds*::

    normalised = raw_seconds * reference_ms / host_ms

``reference_ms`` is the probe's time on the reference host, fixed in
``BENCHMARK.json``, so a normalised second is "a second on that host".
``host_ms`` is the mean of the speed samples taken around and during the
op: the :func:`probe` run right before it, the one run right after it,
and, for ops run under :class:`InOpSampler`, one probe unit every
``SAMPLE_PERIOD_S`` while the op runs.  The in-op samples matter for ops
longer than a few hundred milliseconds: measured on a 1-s NuOp op, the
two bracketing probes alone correlated 0.17 with the op's time and left
a 14% spread, while the in-op samples correlated 0.92 and left 5%.

The reference host's two CPUs change speed independently (speed samples
taken on both at once correlate ~0.3), so when the op runs in another
process, :class:`PinnedProbe` runs the probe in a helper pinned to the
CPU that process is pinned to.

The probe contains no ``repro`` code: it is a fixed mix of pure-Python
bookkeeping and small-matrix numpy work, the two kinds of work the
program under test does.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

UNITS_PER_PROBE = 60
"""A probe is 60 units of about 0.4 ms each, about 25 ms in all."""

SAMPLE_PERIOD_S = 0.02
"""Interval of in-op samples (one unit each, about 2% of the op's time)."""

MIN_SAMPLES_BEYOND = 10
"""A percentile is reported only when at least this many samples lie
beyond it (``p90`` therefore needs >= 100 samples)."""

_MATRIX = np.array(
    [[0.6, 0.8j, 0.0, 0.0], [0.8j, 0.6, 0.0, 0.0], [0.0, 0.0, 0.6, -0.8], [0.0, 0.0, 0.8, 0.6]],
    dtype=complex,
)


def _probe_unit() -> float:
    """About 0.4 ms of fixed work; returns a checksum so nothing is elided."""
    table: Dict[int, int] = {}
    for index in range(400):
        slot = (index * 2654435761) % 251
        table[slot] = table.get(slot, 0) + index
    state = np.eye(4, dtype=complex)
    for _ in range(30):
        state = (state @ _MATRIX).reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        state = state / np.abs(state).max()
    return float(np.abs(np.trace(state))) + table[0] % 7


def _timed_unit() -> float:
    start = time.perf_counter()
    _probe_unit()
    return time.perf_counter() - start


def probe() -> float:
    """Run the host-speed probe once; returns its time in ms."""
    return sum(_timed_unit() for _ in range(UNITS_PER_PROBE)) * 1e3


class InOpSampler:
    """Take one probe unit every ``SAMPLE_PERIOD_S`` while an op runs.

    Driven by ``SIGALRM`` on the main thread, so the samples run on the
    same thread as the op, between its bytecodes.  Each sample is scaled
    to a whole probe's time.
    """

    def __init__(self) -> None:
        self.samples_ms: List[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples_ms.append(_timed_unit() * UNITS_PER_PROBE * 1e3)

    def __enter__(self) -> "InOpSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def pin_to(cpu: Optional[int]) -> Optional[Callable[[], None]]:
    """A ``preexec_fn`` that pins a child process to ``cpu`` (``None``: no pin)."""
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


class PinnedProbe:
    """The host probe in a helper process pinned to one CPU (no ``repro`` code)."""

    def __init__(self, cpu: Optional[int], env: Dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=pin_to(cpu),
        )

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the probe helper exited")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def normalise(raw_s: float, host_ms: float, reference_ms: float) -> float:
    """Scale ``raw_s`` from the host's speed during the op to the reference host's."""
    if host_ms <= 0 or reference_ms <= 0:
        raise ValueError("the host probe time and the reference must be positive")
    return raw_s * reference_ms / host_ms


def op_record(
    name: str,
    raw_s: float,
    before_ms: float,
    after_ms: float,
    reference_ms: float,
    in_op_ms: Sequence[float] = (),
) -> Dict[str, object]:
    """One op's record: the normalised time with everything that produced it."""
    host_ms = statistics.fmean([before_ms, *in_op_ms, after_ms])
    return {
        "op": name,
        "raw_s": raw_s,
        "probe_before_ms": before_ms,
        "probe_after_ms": after_ms,
        "in_op_samples": len(in_op_ms),
        "host_ms": host_ms,
        "reference_ms": reference_ms,
        "norm_s": normalise(raw_s, host_ms, reference_ms),
    }


def percentile(values: Sequence[float], fraction: float, min_beyond: int = MIN_SAMPLES_BEYOND) -> float:
    """Nearest-rank percentile that keeps >= ``min_beyond`` samples above it.

    Raises ``ValueError`` when the sample is too small for the rank asked,
    so a workload cannot silently report a tail it did not measure.
    """
    ordered = sorted(values)
    count = len(ordered)
    rank = max(1, math.ceil(fraction * count))
    if count - rank < min_beyond:
        raise ValueError(
            f"p{fraction * 100:g} of {count} samples leaves {count - rank} beyond it; "
            f"need >= {min_beyond}"
        )
    return ordered[rank - 1]


if __name__ == "__main__":
    # The PinnedProbe helper: one probe per input line.
    for _line in sys.stdin:
        print(probe(), flush=True)
