"""Experiment-engine benchmark: warm-cache study vs the legacy serial loop.

Runs one Figure-9-style 4-qubit instruction-set study three ways:

1. the legacy serial reference implementation (no compilation cache),
2. the engine on cold caches,
3. the engine on a warm compilation cache,

asserts all three produce bit-identical rows, and prints the timings and
cache counters.  The warm compilation cache and the shared
ideal-distribution cache dominate the win.
"""

from __future__ import annotations

import time

import numpy as np

from repro.applications import qv_suite
from repro.core.instruction_sets import google_instruction_set, single_gate_set
from repro.core.pipeline import global_compilation_cache
from repro.devices.synthetic import synthetic_device
from repro.experiments.engine import clear_experiment_caches, run_study
from repro.experiments.runner import (
    SimulationOptions,
    run_instruction_set_study_reference,
)
from repro.metrics.hop import heavy_output_probability


def _rows(study):
    return [
        (name, result.metric_values, result.two_qubit_counts, result.swap_counts)
        for name, result in study.per_set.items()
    ]


def test_bench_engine_warm_cache_beats_serial_baseline(bench_decomposer):
    kwargs = dict(
        application="qv",
        circuits=qv_suite(4, 2, seed=4),
        metric_name="HOP",
        metric=heavy_output_probability,
        device_factory=lambda: synthetic_device(6, "line", seed=19),
        instruction_sets={
            "S1": single_gate_set("S1", vendor="google"),
            "S3": single_gate_set("S3", vendor="google"),
            "G3": google_instruction_set("G3"),
            "G7": google_instruction_set("G7"),
        },
        options=SimulationOptions(shots=2000, seed=6),
        decomposer=bench_decomposer,
    )

    start = time.perf_counter()
    reference = run_instruction_set_study_reference(**kwargs)
    t_reference = time.perf_counter() - start

    clear_experiment_caches()
    start = time.perf_counter()
    cold = run_study(**kwargs)
    t_cold = time.perf_counter() - start

    start = time.perf_counter()
    warm_serial = run_study(**kwargs)
    t_warm_serial = time.perf_counter() - start

    stats = global_compilation_cache().stats()
    print()
    print(
        f"engine bench: reference={t_reference:.2f}s engine_cold={t_cold:.2f}s "
        f"engine_warm={t_warm_serial:.2f}s "
        f"cache={stats}"
    )

    assert _rows(cold) == _rows(reference)
    assert _rows(warm_serial) == _rows(reference)
    assert stats["hits"] > 0
    # Warm-cache engine must clearly beat the uncached serial baseline.
    assert t_warm_serial < t_reference
