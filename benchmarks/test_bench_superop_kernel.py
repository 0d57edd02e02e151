"""Fused-superoperator kernel microbenchmark (CI smoke).

Two measurements on the cold simulation path the caches cannot help:

1. **Kernel level** -- the fused density-matrix kernel
   (:func:`repro.simulators.superop.apply_superop_program`, one
   contraction per fused channel group) against the pinned reference
   replay (one contraction per Kraus operator) on a 6-qubit QV program.
   Asserts **>= 2x** speedup and **<= 1e-10** max-abs deviation of the
   final probabilities; on this container the observed ratio is ~40x
   (a 2q gate + 16-operator depolarizing channel + two thermal channels
   costs ~40 tensordot/transpose pairs on the reference kernel and one
   on the fused kernel).

2. **Study level** -- a fig9-style instruction-set study run end-to-end
   under ``REPRO_SIM_KERNEL=fused`` vs ``reference`` with a warm
   compilation cache and cold simulation caches (the kernels never share
   simulation-cache entries, so each run simulates for real).  Asserts
   the fused study is faster and its report agrees with the reference
   run to 1e-10 on every metric column.

Speedups land in ``BENCH_5.json`` via the ``bench_json_record`` fixture.
"""

from __future__ import annotations

import time

import numpy as np

from repro.applications import qv_circuit, qv_suite
from repro.core.instruction_sets import google_instruction_set, single_gate_set
from repro.devices.synthetic import synthetic_device
from repro.experiments.engine import clear_experiment_caches, run_study
from repro.experiments.runner import SimulationOptions
from repro.metrics.hop import heavy_output_probability
from repro.simulators.backend import SIM_KERNEL_ENV_VAR
from repro.simulators.density_matrix import apply_program_to_density_matrix
from repro.simulators.noise_model import NoiseModel
from repro.simulators.noise_program import build_noise_program
from repro.simulators.superop import apply_superop_program, lower_noise_program


def _best_of(function, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_superop_kernel_speedup(bench_json_record):
    num_qubits = 6
    circuit = qv_circuit(num_qubits, rng=np.random.default_rng(42))
    model = NoiseModel.uniform(
        num_qubits, two_qubit_error=0.01, single_qubit_error=0.001
    )
    program = build_noise_program(circuit, model)

    dim = 2**num_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0

    reference_s = _best_of(lambda: apply_program_to_density_matrix(program, rho))

    lowering_start = time.perf_counter()
    lowered = lower_noise_program(program)
    lowering_s = time.perf_counter() - lowering_start
    fused_s = _best_of(lambda: apply_superop_program(lowered, rho))

    reference_rho = apply_program_to_density_matrix(program, rho)
    fused_rho = apply_superop_program(lowered, rho)
    deviation = float(
        np.abs(
            np.real(np.diagonal(fused_rho)) - np.real(np.diagonal(reference_rho))
        ).max()
    )

    speedup = reference_s / fused_s
    print()
    print(
        f"superop kernel bench (6q QV): reference={reference_s * 1e3:.1f}ms "
        f"fused={fused_s * 1e3:.1f}ms (speedup {speedup:.1f}x, "
        f"one-time lowering {lowering_s * 1e3:.1f}ms)"
    )
    print(
        f"  fused groups={lowered.num_groups()} vs reference "
        f"applications={lowered.source_applications}, "
        f"probability deviation={deviation:.2e}"
    )
    bench_json_record(
        speedup=round(speedup, 2),
        reference_s=round(reference_s, 6),
        fused_s=round(fused_s, 6),
        lowering_s=round(lowering_s, 6),
        max_abs_deviation=deviation,
    )

    assert deviation <= 1e-10
    assert lowered.num_groups() < lowered.source_applications / 10
    assert speedup >= 2.0, f"fused kernel only {speedup:.2f}x faster than reference"


def test_bench_fused_study_end_to_end(bench_decomposer, bench_json_record, monkeypatch):
    kwargs = dict(
        application="qv",
        circuits=qv_suite(5, 3, seed=9),
        metric_name="HOP",
        metric=heavy_output_probability,
        device_factory=lambda: synthetic_device(7, "line", seed=19),
        instruction_sets={
            "S1": single_gate_set("S1", vendor="google"),
            "G3": google_instruction_set("G3"),
        },
        decomposer=bench_decomposer,
    )

    # Warm the compilation tier once so both timed runs measure the
    # simulate stage; the kernels never share simulation-cache entries
    # (distinct backend versions), so each timed run simulates for real.
    clear_experiment_caches()
    run_study(**kwargs, options=SimulationOptions(shots=2000, seed=6))

    timed_options = SimulationOptions(shots=2001, seed=6)
    monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "reference")
    start = time.perf_counter()
    reference_study = run_study(**kwargs, options=timed_options)
    reference_s = time.perf_counter() - start

    monkeypatch.setenv(SIM_KERNEL_ENV_VAR, "fused")
    start = time.perf_counter()
    fused_study = run_study(**kwargs, options=timed_options)
    fused_s = time.perf_counter() - start

    speedup = reference_s / fused_s
    print()
    print(
        f"fused study bench (5q QV x3, 2 sets, warm compile/cold sim): "
        f"reference={reference_s:.2f}s fused={fused_s:.2f}s (speedup {speedup:.1f}x)"
    )
    bench_json_record(
        speedup=round(speedup, 2),
        reference_s=round(reference_s, 4),
        fused_s=round(fused_s, 4),
    )

    for name, reference_result in reference_study.per_set.items():
        np.testing.assert_allclose(
            fused_study.per_set[name].metric_values,
            reference_result.metric_values,
            atol=1e-10,
            rtol=0,
        )
    assert fused_s < reference_s, (
        f"fused study ({fused_s:.2f}s) not faster than reference ({reference_s:.2f}s)"
    )
