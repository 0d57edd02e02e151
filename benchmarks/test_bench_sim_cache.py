"""Simulation-cache smoke benchmark: warm fresh process runs zero simulations.

The compilation disk tier (``test_bench_disk_cache.py``) made fresh
processes skip the compiler; this benchmark proves the simulation-result
tier does the same for the simulate half of the toolflow.  The same
4-qubit QV study runs in two consecutive child processes sharing one
``REPRO_CACHE_DIR``:

1. **cold** -- empty cache directory: every compile node compiles and is
   persisted, every simulate node invokes a simulator backend and its
   measured distribution is persisted to the ``sim`` namespace;
2. **warm** -- a brand-new Python process: compiles *and* simulations
   are all served from disk.  The per-backend invocation counters prove
   **zero** backend invocations happened, and the rendered study report
   is byte-identical to the cold process's.
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
from repro.devices.synthetic import synthetic_device
from repro.experiments.engine import run_study, simulation_cache_stats
from repro.experiments.runner import SimulationOptions
from repro.metrics.hop import heavy_output_probability
from repro.simulators.backend import backend_invocation_counts

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
report = study.format_table() + "\\n" + study.format_pass_stats()
disk = get_global_disk_cache()
print(json.dumps({
    "elapsed": elapsed,
    "report": report,
    "disk": disk.stats() if disk is not None else None,
    "sim_memory": simulation_cache_stats(),
    "invocations": backend_invocation_counts(),
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


def test_bench_sim_cache_warms_fresh_processes(tmp_path):
    cache_dir = str(tmp_path / "repro-cache")

    cold = _run_child(cache_dir)
    warm = _run_child(cache_dir)

    print()
    print(
        f"sim-cache bench: cold_process={cold['elapsed']:.2f}s "
        f"warm_process={warm['elapsed']:.2f}s "
        f"(speedup {cold['elapsed'] / warm['elapsed']:.1f}x)"
    )
    print(f"  cold: sim_writes={cold['disk']['sim_writes']} invocations={cold['invocations']}")
    print(f"  warm: sim_hits={warm['disk']['sim_hits']} invocations={warm['invocations']}")

    # The cold process simulated every node and persisted every vector...
    assert cold["sim_memory"]["misses"] == 4  # 2 sets x 2 circuits
    assert cold["disk"]["sim_writes"] == 4
    assert cold["disk"]["sim_hits"] == 0
    assert sum(cold["invocations"].values()) > 0
    # ...and the warm fresh process served every simulate node from the
    # disk simulation cache: zero backend invocations, nothing rewritten.
    assert warm["invocations"] == {}
    assert warm["disk"]["sim_hits"] == cold["disk"]["sim_writes"]
    assert warm["disk"]["sim_writes"] == 0
    # Compilation tier still warm-starts alongside.
    assert warm["disk"]["hits"] >= cold["disk"]["writes"] > 0
    # The rendered study report is byte-identical across the processes.
    assert warm["report"] == cold["report"]
