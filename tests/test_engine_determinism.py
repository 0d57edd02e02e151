"""Determinism of the experiment engine.

The contract under test: with a fixed ``SimulationOptions.seed``,

* the engine is bit-identical to the legacy serial double loop
  (:func:`run_instruction_set_study_reference`), including the device's
  lazily sampled calibration data (which depends on compilation order),
* warm-cache (compilation cache hit) runs agree bit-for-bit with
  cold-cache runs -- i.e. cache-hit replay leaves the device RNG in the
  same state the original compilation did.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications import qv_circuit
from repro.core.instruction_sets import (
    full_fsim_set,
    google_instruction_set,
    single_gate_set,
)
from repro.core.pipeline import global_compilation_cache
from repro.devices.synthetic import synthetic_device
from repro.experiments.engine import (
    ExperimentJob,
    StudyPlan,
    clear_experiment_caches,
    resolve_workers,
    run_parallel,
    run_study,
)
from repro.experiments.runner import (
    SimulationOptions,
    run_instruction_set_study,
    run_instruction_set_study_reference,
)
from repro.metrics.hop import heavy_output_probability


def _study_kwargs(shared_decomposer):
    circuits = [qv_circuit(3, rng=np.random.default_rng(index)) for index in range(2)]
    instruction_sets = {
        "S1": single_gate_set("S1", vendor="google"),
        "G3": google_instruction_set("G3"),
        "FullfSim": full_fsim_set(),
        "FullfSim-2x": full_fsim_set(),
    }
    return dict(
        application="qv",
        circuits=circuits,
        metric_name="HOP",
        metric=heavy_output_probability,
        device_factory=lambda: synthetic_device(5, "line", seed=13),
        instruction_sets=instruction_sets,
        options=SimulationOptions(shots=1200, seed=5),
        error_scales={"FullfSim-2x": 2.0},
        decomposer=shared_decomposer,
    )


def _offset_product(x, y):
    """Module-level, so a process pool can pickle it by reference."""
    return x * y + 1


def _rows(study):
    """Everything row-like in a StudyResult, in a bit-comparable form."""
    return [
        (
            name,
            result.metric_values,
            result.two_qubit_counts,
            result.swap_counts,
            sorted(result.gate_type_usage.items()),
        )
        for name, result in study.per_set.items()
    ]


@pytest.fixture(scope="module")
def studies(shared_decomposer):
    """Reference, engine and warm/cold-cache runs.

    Pinned on ``REPRO_SIM_KERNEL=reference``: the contract under test is
    bit-identity against the frozen serial loop, which only the reference
    replay kernel provides (the default fused kernel reassociates floats
    and is held to ``1e-10`` by ``tests/test_superop.py`` instead).
    """
    kwargs = _study_kwargs(shared_decomposer)

    with pytest.MonkeyPatch.context() as patcher:
        patcher.setenv("REPRO_SIM_KERNEL", "reference")

        reference = run_instruction_set_study_reference(**kwargs)

        clear_experiment_caches()
        engine_serial_cold = run_study(**kwargs)
        stats_after_cold = global_compilation_cache().stats()

        engine_warm = run_study(**kwargs)
        stats_after_warm = global_compilation_cache().stats()

        wrapper = run_instruction_set_study(
            kwargs["application"],
            kwargs["circuits"],
            kwargs["metric_name"],
            kwargs["metric"],
            kwargs["device_factory"],
            kwargs["instruction_sets"],
            decomposer=kwargs["decomposer"],
            options=kwargs["options"],
            error_scales=kwargs["error_scales"],
        )

    return {
        "reference": reference,
        "engine_serial_cold": engine_serial_cold,
        "engine_warm": engine_warm,
        "wrapper": wrapper,
        "stats_after_cold": stats_after_cold,
        "stats_after_warm": stats_after_warm,
    }


class TestEngineDeterminism:
    def test_engine_matches_legacy_serial_runner(self, studies):
        assert _rows(studies["engine_serial_cold"]) == _rows(studies["reference"])

    def test_cache_hits_match_cold_cache(self, studies):
        # The warm run after the cold run served every compile from cache...
        cold = studies["stats_after_cold"]
        warm = studies["stats_after_warm"]
        assert cold["misses"] > 0
        assert warm["hits"] >= cold["misses"]
        assert warm["misses"] == cold["misses"]
        # ...and still produced identical rows; this pins the cache's
        # side-effect replay of calibration registrations.
        assert _rows(studies["engine_warm"]) == _rows(studies["engine_serial_cold"])

    def test_compat_wrapper_delegates_to_engine(self, studies):
        assert _rows(studies["wrapper"]) == _rows(studies["engine_serial_cold"])

    def test_compat_wrapper_rejects_a_worker_pool(self, shared_decomposer):
        kwargs = _study_kwargs(shared_decomposer)
        with pytest.raises(ValueError, match="workers=2"):
            run_instruction_set_study(
                kwargs["application"],
                kwargs["circuits"],
                kwargs["metric_name"],
                kwargs["metric"],
                kwargs["device_factory"],
                kwargs["instruction_sets"],
                workers=2,
            )

    def test_per_set_bookkeeping_is_populated(self, studies):
        for _, metrics, counts, swaps, usage in _rows(studies["engine_serial_cold"]):
            assert len(metrics) == 2
            assert len(counts) == 2
            assert len(swaps) == 2
            assert usage
        # The scaled FullfSim variant sees worse hardware, so its metric
        # must not beat the unscaled variant by more than sampling noise.
        per_set = studies["engine_serial_cold"].per_set
        assert per_set["FullfSim-2x"].mean_metric <= per_set["FullfSim"].mean_metric + 0.1


class TestCalibrationFingerprint:
    def test_distinct_topologies_do_not_collide(self):
        # Same name ("synthetic-grid-9"? no: names differ by cols), same
        # seed and noise parameters, different coupling graphs: the
        # fingerprint must differ or the compilation cache could hand a
        # circuit routed for the wrong topology to the second device.
        square = synthetic_device(9, "grid", seed=3, name="dev")
        line_shaped = synthetic_device(9, "grid", grid_rows=1, seed=3, name="dev")
        assert square.calibration_fingerprint() != line_shaped.calibration_fingerprint()

    def test_registration_changes_fingerprint(self):
        device = synthetic_device(4, "line", seed=3)
        before = device.calibration_fingerprint()
        device.ensure_gate_types(["cz"])
        assert device.calibration_fingerprint() != before


class TestStudyPlan:
    def test_jobs_are_canonically_ordered(self):
        plan = StudyPlan(set_names=["A", "B"], num_circuits=2, error_scales={"B": 2.0})
        assert plan.jobs() == [
            ExperimentJob("A", 0, 1.0),
            ExperimentJob("A", 1, 1.0),
            ExperimentJob("B", 0, 2.0),
            ExperimentJob("B", 1, 2.0),
        ]
        assert len(plan) == 4

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1


class TestRunParallel:
    def test_pool_returns_serial_results_in_input_order(self):
        arguments = [(index, 7 - index) for index in range(6)]
        serial = run_parallel(_offset_product, arguments, workers=1)
        assert serial == [x * y + 1 for x, y in arguments]
        assert run_parallel(_offset_product, arguments, workers=2) == serial
