"""Disk-cache smoke benchmark: cold process vs warm process.

The whole point of the persistent tier is to warm-start *fresh processes*
-- something the PR-1 in-memory cache cannot do.  This benchmark runs the
same 4-qubit instruction-set study in two consecutive child processes
sharing one ``REPRO_CACHE_DIR``:

1. **cold** -- empty cache directory, every compile node pays full NuOp
   cost and is persisted to disk;
2. **warm** -- a brand-new Python process whose compiles are all served
   from the disk tier.

Asserts the warm process hits the disk cache for every compilation the
cold process persisted, produces bit-identical study rows, and is
materially faster; prints both wall times (the numbers CHANGES.md and
docs/compiler.md report).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD_SCRIPT = """
import json, time
import numpy as np
from repro.applications import qv_suite
from repro.caching.disk import get_global_disk_cache
from repro.core.decomposer import NuOpDecomposer
from repro.core.instruction_sets import google_instruction_set, single_gate_set
from repro.core.pipeline import global_compilation_cache
from repro.devices.synthetic import synthetic_device
from repro.experiments.engine import run_study
from repro.experiments.runner import SimulationOptions
from repro.metrics.hop import heavy_output_probability

start = time.perf_counter()
study = run_study(
    "qv",
    qv_suite(4, 2, seed=4),
    "HOP",
    heavy_output_probability,
    lambda: synthetic_device(6, "line", seed=19),
    {
        "S1": single_gate_set("S1", vendor="google"),
        "G3": google_instruction_set("G3"),
    },
    decomposer=NuOpDecomposer(seed=21),
    options=SimulationOptions(shots=2000, seed=6),
)
elapsed = time.perf_counter() - start
rows = [
    (name, result.metric_values, result.two_qubit_counts, result.swap_counts)
    for name, result in study.per_set.items()
]
disk = get_global_disk_cache()
print(json.dumps({
    "elapsed": elapsed,
    "rows": repr(rows),
    "disk": disk.stats() if disk is not None else None,
    "memory": global_compilation_cache().stats(),
}))
"""


def _run_child(cache_dir: str) -> dict:
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = str(_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_bench_disk_cache_warms_fresh_processes(tmp_path):
    cache_dir = str(tmp_path / "compile-cache")

    cold = _run_child(cache_dir)
    warm = _run_child(cache_dir)

    print()
    print(
        f"disk-cache bench: cold_process={cold['elapsed']:.2f}s "
        f"warm_process={warm['elapsed']:.2f}s "
        f"(speedup {cold['elapsed'] / warm['elapsed']:.1f}x)"
    )
    print(f"  cold disk stats: {cold['disk']}")
    print(f"  warm disk stats: {warm['disk']}")

    # The cold process persisted every compilation it performed...
    assert cold["disk"]["writes"] == cold["memory"]["misses"] > 0
    assert cold["disk"]["hits"] == 0
    # ...and the warm process served every compile node from the disk tier.
    assert warm["disk"]["hits"] == cold["disk"]["writes"]
    assert warm["disk"]["writes"] == 0
    # Cache-cold and cache-warm processes produce bit-identical rows.
    assert warm["rows"] == cold["rows"]
    # The warm-start must be material, not incidental: compilation dominates
    # this study, so serving it from disk should at least halve wall time.
    assert warm["elapsed"] < 0.5 * cold["elapsed"]
