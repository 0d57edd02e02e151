"""Batched superoperator replay benchmark (CI smoke, ``BENCH_7.json``).

Two measurements on the error-scale sweep path PR 7 vectorises:

1. **Kernel level** -- B=16 scaled variants of one 4-qubit QV noise
   program (the Figure 10 "calibration quality Nx worse" sweep) replayed
   as one stacked
   :func:`repro.simulators.superop.apply_superop_program_batch` pass
   over a ``(B, 2^n, 2^n)`` rho tensor, against the sequential
   per-program fused replay.  Asserts **>= 2x** speedup and **<= 1e-10**
   max-abs deviation of the final probabilities (the batched contraction
   runs the same GEMMs, so the observed deviation is exactly 0).  The
   batched win amortises the per-group Python dispatch across the sweep,
   so it is largest exactly where per-job replay is overhead-bound: on
   this container ~6x at 4 qubits, shrinking to ~1.5x at 6 qubits where
   single GEMMs dominate.

2. **Study level** -- an engine error-scale sweep study run end-to-end
   with ``batch=0`` (grouped vectorised passes) vs ``batch=1``
   (sequential per-job replay), with a warm compilation tier and cold
   simulation caches.  Asserts the per-set reports are bit-identical,
   the batched run used fewer backend invocations, and a warm batched
   re-run performs **0** backend invocations while returning the
   byte-identical study output.

This module records raw baseline/batched timings only; the ``speedup``
fields in the JSON artifact are derived by ``benchmarks/conftest.py``,
which this benchmark doubles as coverage for.  CI runs it as its own
step with ``REPRO_BENCH_JSON=BENCH_7.json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.applications import qv_circuit, qv_suite
from repro.core.instruction_sets import full_fsim_set, single_gate_set
from repro.devices.synthetic import synthetic_device
from repro.experiments.engine import clear_experiment_caches, run_study
from repro.experiments.runner import SimulationOptions
from repro.metrics.hop import heavy_output_probability
from repro.simulators.backend import (
    backend_invocation_counts,
    reset_backend_invocation_counts,
)
from repro.simulators.noise_model import NoiseModel
from repro.simulators.noise_program import build_noise_program
from repro.simulators.superop import (
    apply_superop_program,
    apply_superop_program_batch,
    batch_superop_programs,
    lower_noise_program,
)

SWEEP_SCALES = tuple(1.0 + 0.125 * step for step in range(16))


def _best_of(function, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_batched_sweep_kernel(bench_json_record):
    num_qubits = 4
    circuit = qv_circuit(num_qubits, rng=np.random.default_rng(42))
    programs = [
        lower_noise_program(
            build_noise_program(
                circuit,
                NoiseModel.uniform(
                    num_qubits,
                    two_qubit_error=0.01 * scale,
                    single_qubit_error=0.001 * scale,
                ),
            )
        )
        for scale in SWEEP_SCALES
    ]
    batch = batch_superop_programs(programs)

    dim = 2**num_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    rhos = np.broadcast_to(rho, (len(programs), dim, dim)).copy()

    sequential_s = _best_of(
        lambda: [apply_superop_program(program, rho) for program in programs]
    )
    batched_s = _best_of(lambda: apply_superop_program_batch(batch, rhos))

    sequential_rhos = [apply_superop_program(program, rho) for program in programs]
    batched_rhos = apply_superop_program_batch(batch, rhos)
    deviation = max(
        float(
            np.abs(
                np.real(np.diagonal(batched_rhos[index]))
                - np.real(np.diagonal(sequential_rhos[index]))
            ).max()
        )
        for index in range(len(programs))
    )

    speedup = sequential_s / batched_s
    print()
    print(
        f"batched sweep bench (4q QV, B={len(programs)} scales): "
        f"sequential={sequential_s * 1e3:.1f}ms batched={batched_s * 1e3:.1f}ms "
        f"(speedup {speedup:.1f}x, deviation={deviation:.2e})"
    )
    bench_json_record(
        sequential_s=round(sequential_s, 6),
        batched_s=round(batched_s, 6),
        batch_items=len(programs),
        max_abs_deviation=deviation,
    )

    assert deviation <= 1e-10
    assert speedup >= 2.0, (
        f"batched replay only {speedup:.2f}x faster than sequential fused replay"
    )


def test_bench_batched_sweep_study_warm_replay(
    bench_decomposer, bench_json_record
):
    kwargs = dict(
        application="qv",
        circuits=qv_suite(4, 2, seed=11),
        metric_name="HOP",
        metric=heavy_output_probability,
        device_factory=lambda: synthetic_device(6, "line", seed=17),
        instruction_sets={
            "S1": single_gate_set("S1", vendor="google"),
            "FullfSim": full_fsim_set(),
            "FullfSim-2x": full_fsim_set(),
            "FullfSim-3x": full_fsim_set(),
        },
        error_scales={"FullfSim-2x": 2.0, "FullfSim-3x": 3.0},
        decomposer=bench_decomposer,
    )

    def rows(study):
        return [
            (name, result.metric_values, result.two_qubit_counts)
            for name, result in study.per_set.items()
        ]

    # Warm the compilation tier once so the timed runs measure the
    # simulate stage, then time cold-simulation sweeps both ways.
    clear_experiment_caches()
    run_study(**kwargs, options=SimulationOptions(shots=2000, seed=6))

    clear_experiment_caches()
    reset_backend_invocation_counts()
    start = time.perf_counter()
    sequential_study = run_study(
        **kwargs, options=SimulationOptions(shots=2001, seed=6, batch=1)
    )
    sequential_s = time.perf_counter() - start
    sequential_invocations = sum(backend_invocation_counts().values())

    clear_experiment_caches()
    reset_backend_invocation_counts()
    start = time.perf_counter()
    batched_study = run_study(
        **kwargs, options=SimulationOptions(shots=2001, seed=6, batch=0)
    )
    batched_s = time.perf_counter() - start
    batched_invocations = sum(backend_invocation_counts().values())

    # Warm re-run: everything lands in the simulation cache, so the
    # batched study replays byte-identically with zero backend work.
    warm_study = run_study(
        **kwargs, options=SimulationOptions(shots=2001, seed=6, batch=0)
    )
    warm_invocations = sum(backend_invocation_counts().values())

    print()
    print(
        f"batched sweep study (4q QV x2, 4 sets, warm compile/cold sim): "
        f"sequential={sequential_s:.2f}s/{sequential_invocations} invocations "
        f"batched={batched_s:.2f}s/{batched_invocations} invocations"
    )
    bench_json_record(
        sequential_s=round(sequential_s, 4),
        batched_s=round(batched_s, 4),
        sequential_invocations=sequential_invocations,
        batched_invocations=batched_invocations,
    )

    assert rows(batched_study) == rows(sequential_study)
    assert batched_invocations < sequential_invocations
    assert warm_invocations == batched_invocations, "warm re-run invoked the backend"
    assert rows(warm_study) == rows(batched_study)
