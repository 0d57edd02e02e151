"""Resilience-layer benchmark: inert overhead and chaos-run cost.

Two numbers the resilience PR stakes its acceptance on:

1. **Inert overhead** -- with no fault plan configured, a consult is a
   dictionary miss.  The benchmark times a cold study with the layer
   inert (the default every earlier PR ran under) so the artifact
   records that the fault points and retry wrappers cost nothing
   measurable on the engine's critical path.
2. **Chaos cost** -- the same study under an aggressive fault plan
   (worker failures, backend hiccups, dropped disk writes) completes
   with bit-identical rows; the recorded ``chaos_overhead`` is the
   price of the injected failures plus deterministic backoff, i.e. what
   an operator pays for a chaos drill, not what steady state pays.

The measured wall times and the retry counters land in the benchmark
JSON artifact via ``bench_json_record``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications import qv_circuit
from repro.core.instruction_sets import google_instruction_set, single_gate_set
from repro.devices.synthetic import synthetic_device
from repro.experiments.engine import clear_experiment_caches, run_study
from repro.experiments.runner import SimulationOptions
from repro.metrics.hop import heavy_output_probability
from repro.resilience import (
    RetryPolicy,
    configure_fault_plan,
    fault_stats,
    reset_fault_plan_configuration,
    reset_retry_stats,
    retry_stats,
)

CHAOS_PLAN = "worker.task:fail@2;backend.run:fail@1;disk.write:enospc%0.2;seed=7"


def _study_kwargs(bench_decomposer):
    circuits = [qv_circuit(3, rng=np.random.default_rng(index)) for index in range(2)]
    return dict(
        application="qv",
        circuits=circuits,
        metric_name="HOP",
        metric=heavy_output_probability,
        device_factory=lambda: synthetic_device(5, "line", seed=13),
        instruction_sets={
            "S1": single_gate_set("S1", vendor="google"),
            "G3": google_instruction_set("G3"),
        },
        options=SimulationOptions(shots=900, seed=5),
        decomposer=bench_decomposer,
    )


def _rows(study):
    return [
        (name, result.metric_values, result.two_qubit_counts)
        for name, result in study.per_set.items()
    ]


def test_resilience_inert_vs_chaos(
    tmp_path, run_once, bench_json_record, bench_decomposer
):
    kwargs = _study_kwargs(bench_decomposer)
    import time

    reset_fault_plan_configuration()
    reset_retry_stats()
    clear_experiment_caches()
    # Inert cold run under pytest-benchmark timing: the layer's default
    # cost on the critical path (fault points consulted, zero plans).
    inert = run_once(lambda: run_study(**kwargs))
    assert inert.resilience.get("retries", 0) == 0

    # Chaos cold run (timed manually: pytest-benchmark owns the fixture's
    # single measured run): every injected failure must be recovered and
    # the rows must stay bit-identical.
    clear_experiment_caches()
    configure_fault_plan(CHAOS_PLAN)
    started = time.perf_counter()
    with pytest.warns(RuntimeWarning, match="resilience:"):
        chaos = run_study(
            **kwargs,
            cache_dir=str(tmp_path / "chaos-cache"),
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.001, seed=7),
        )
    chaos_seconds = time.perf_counter() - started

    assert _rows(chaos) == _rows(inert)
    stats = retry_stats()
    assert stats["recoveries"] >= 1
    bench_json_record(
        chaos_wall_s=round(chaos_seconds, 4),
        retries=stats["retries"],
        recoveries=stats["recoveries"],
        injected=sum(
            count
            for kinds in fault_stats()["injected"].values()
            for count in kinds.values()
        ),
    )
    reset_fault_plan_configuration()
    reset_retry_stats()
    clear_experiment_caches()
