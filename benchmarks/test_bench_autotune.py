"""Autotuner smoke benchmark: 4-qubit QV study, ``auto`` vs ``default``.

The container is single-CPU, so this benchmark measures what the
autotuner is *for* -- delivered fidelity and cache reuse -- rather than
wall-clock parallel speedups:

* for every (circuit, instruction set) job, the auto-selected pipeline's
  **predicted compiled fidelity** must match or beat the ``default``
  pipeline's (``default`` is always a candidate, so a regression here
  means the scoring is broken);
* re-running the tuned study must be served from the **verdict memory
  tier** (zero new trial compilations), and a fresh verdict cache backed
  by the same disk directory must warm-start from the **persisted
  verdicts**;
* per-pass rewrite statistics must flow into the study report.
"""

from __future__ import annotations

import time

from repro.applications import qv_suite
from repro.caching.disk import DiskCompilationCache
from repro.compiler.autotune import (
    TunerVerdictCache,
    autotune_pipeline,
    default_candidate_pipelines,
    global_tuner_cache,
)
from repro.core.instruction_sets import google_instruction_set, single_gate_set
from repro.core.pipeline import CompilationCache, global_compilation_cache
from repro.devices.synthetic import synthetic_device
from repro.experiments.engine import clear_experiment_caches, run_study
from repro.experiments.runner import SimulationOptions
from repro.metrics.hop import heavy_output_probability


def _device():
    return synthetic_device(6, "line", seed=19)


def test_bench_autotune_fidelity_and_cache_reuse(bench_decomposer, tmp_path):
    circuits = qv_suite(4, 2, seed=4)
    instruction_sets = {
        "S1": single_gate_set("S1", vendor="google"),
        "G3": google_instruction_set("G3"),
    }
    kwargs = dict(
        application="qv",
        circuits=circuits,
        metric_name="HOP",
        metric=heavy_output_probability,
        device_factory=_device,
        instruction_sets=instruction_sets,
        options=SimulationOptions(shots=2000, seed=6),
        decomposer=bench_decomposer,
    )

    # --- fidelity: every job's verdict beats or matches 'default' ----------
    verdict_rows = []
    for set_name, instruction_set in instruction_sets.items():
        for index, circuit in enumerate(circuits):
            verdict = autotune_pipeline(
                circuit, _device(), instruction_set, decomposer=bench_decomposer
            )
            default_score = verdict.score_for("default")
            assert verdict.winning_fidelity() >= default_score.predicted_fidelity
            verdict_rows.append(
                (set_name, index, verdict.pipeline,
                 verdict.winning_fidelity(), default_score.predicted_fidelity)
            )

    # --- cache reuse: warm study re-tunes for free --------------------------
    clear_experiment_caches()
    start = time.perf_counter()
    cold = run_study(**kwargs, pipeline="auto")
    t_cold = time.perf_counter() - start
    tuner_after_cold = global_tuner_cache().stats()

    start = time.perf_counter()
    warm = run_study(**kwargs, pipeline="auto")
    t_warm = time.perf_counter() - start
    tuner_after_warm = global_tuner_cache().stats()

    jobs = len(circuits) * len(instruction_sets)
    assert tuner_after_cold["misses"] == jobs
    assert tuner_after_warm["hits"] >= jobs  # warm run: all verdicts from memory
    assert tuner_after_warm["misses"] == tuner_after_cold["misses"]

    def rows(study):
        return [
            (name, result.metric_values, result.two_qubit_counts,
             sorted(result.pipeline_usage.items()))
            for name, result in study.per_set.items()
        ]

    assert rows(warm) == rows(cold)
    assert cold.format_pass_stats()  # rewrite statistics reached the report

    # --- disk tier: a fresh verdict cache warm-starts from persisted blobs --
    # Each loop uses its own memory tiers, simulating two fresh processes
    # sharing one cache directory.
    disk = DiskCompilationCache(tmp_path)
    cold_memory = CompilationCache()
    cold_verdicts = TunerVerdictCache()
    for set_name, instruction_set in instruction_sets.items():
        for circuit in circuits:
            autotune_pipeline(
                circuit, _device(), instruction_set, decomposer=bench_decomposer,
                cache=cold_memory, disk_cache=disk, verdict_cache=cold_verdicts,
            )
    writes_before = disk.stats()["writes"]
    warm_verdicts = TunerVerdictCache()
    for set_name, instruction_set in instruction_sets.items():
        for circuit in circuits:
            autotune_pipeline(
                circuit, _device(), instruction_set, decomposer=bench_decomposer,
                cache=CompilationCache(), disk_cache=disk, verdict_cache=warm_verdicts,
            )
    disk_stats = disk.stats()
    assert disk_stats["writes"] == writes_before  # nothing re-tuned or re-compiled

    print()
    print(f"autotune bench: candidates={default_candidate_pipelines()}")
    for set_name, index, winner, auto_f, default_f in verdict_rows:
        print(
            f"  {set_name} circuit {index}: {winner:>10}  "
            f"predicted={auto_f:.5f} (default={default_f:.5f})"
        )
    print(
        f"  study cold={t_cold:.2f}s warm={t_warm:.2f}s  "
        f"tuner={tuner_after_warm} compile={global_compilation_cache().stats()}"
    )
    print(f"  disk tier: {disk_stats}")
