"""Pipeline autotuner: scoring, verdict caching, determinism, engine wiring.

Pins the ISSUE's acceptance properties: ``pipeline="auto"`` picks a
pipeline per (circuit, instruction set) and is bit-identical to requesting
the winning pipeline by name; on the 4-qubit QV study the auto-selected
pipeline's predicted fidelity is never below the ``default`` pipeline's;
verdicts are content-addressed and reused by both cache tiers; and the
selection is bit-identical across warm/cold caches and worker counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications import qv_circuit
from repro.caching.disk import DiskCompilationCache
from repro.compiler.autotune import (
    AUTO_PIPELINE,
    AUTOTUNE_BLOB_KIND,
    TunerVerdict,
    TunerVerdictCache,
    autotune_pipeline,
    default_candidate_pipelines,
    global_tuner_cache,
    predicted_compiled_fidelity,
    tuner_verdict_key,
)
from repro.core.instruction_sets import (
    full_fsim_set,
    google_instruction_set,
    single_gate_set,
)
from repro.core.pipeline import (
    CompilationCache,
    compile_circuit,
    compile_circuit_cached,
)
from repro.devices.synthetic import synthetic_device
from repro.experiments.engine import clear_experiment_caches, run_study
from repro.experiments.runner import SimulationOptions
from repro.metrics.hop import heavy_output_probability


def _circuit(seed: int = 3, qubits: int = 4):
    return qv_circuit(qubits, rng=np.random.default_rng(seed))


def _device():
    return synthetic_device(6, "line", seed=13)


def _assert_bit_identical(a, b):
    assert len(a.circuit) == len(b.circuit)
    for left, right in zip(a.circuit, b.circuit):
        assert left.qubits == right.qubits
        assert np.array_equal(left.gate.matrix, right.gate.matrix)
    assert a.physical_qubits == b.physical_qubits
    assert a.final_mapping == b.final_mapping
    assert a.gate_type_usage == b.gate_type_usage


@pytest.fixture(autouse=True)
def _fresh_tuner_cache():
    """Every test starts with an empty process-global verdict cache."""
    global_tuner_cache().clear()
    yield
    global_tuner_cache().clear()


class TestScoring:
    def test_predicted_fidelity_in_unit_interval(self, shared_decomposer):
        device = _device()
        compiled = compile_circuit(
            _circuit(), device, google_instruction_set("G3"), decomposer=shared_decomposer
        )
        fidelity = predicted_compiled_fidelity(compiled, device)
        assert 0.0 < fidelity <= 1.0

    def test_fewer_gates_score_higher(self, shared_decomposer):
        # The same workload compiled with SU(4) pre-fusion emits fewer
        # operations; the predictor must prefer it on an otherwise equal
        # footing (same device, same calibration).
        device_a, device_b = _device(), _device()
        default = compile_circuit(
            _circuit(), device_a, google_instruction_set("G3"),
            decomposer=shared_decomposer, pipeline="default",
        )
        fused = compile_circuit(
            _circuit(), device_b, google_instruction_set("G3"),
            decomposer=shared_decomposer, pipeline="fused",
        )
        if fused.two_qubit_gate_count < default.two_qubit_gate_count:
            assert predicted_compiled_fidelity(fused, device_b) > (
                predicted_compiled_fidelity(default, device_a)
            )


class TestVerdicts:
    def test_winner_never_predicts_worse_than_default(self, shared_decomposer):
        verdict = autotune_pipeline(
            _circuit(), _device(), google_instruction_set("G3"),
            decomposer=shared_decomposer,
        )
        assert "default" in [score.pipeline for score in verdict.scores]
        default_score = verdict.score_for("default")
        assert verdict.winning_fidelity() >= default_score.predicted_fidelity

    def test_verdict_does_not_touch_the_real_device(self, shared_decomposer):
        device = _device()
        before = device.calibration_fingerprint()
        autotune_pipeline(
            _circuit(), device, google_instruction_set("G3"),
            decomposer=shared_decomposer,
        )
        assert device.calibration_fingerprint() == before

    def test_auto_is_bit_identical_to_explicit_winner(self, shared_decomposer):
        verdict = autotune_pipeline(
            _circuit(), _device(), google_instruction_set("G3"),
            decomposer=shared_decomposer,
        )
        device_auto, device_explicit = _device(), _device()
        auto = compile_circuit(
            _circuit(), device_auto, google_instruction_set("G3"),
            decomposer=shared_decomposer, pipeline=AUTO_PIPELINE,
        )
        explicit = compile_circuit(
            _circuit(), device_explicit, google_instruction_set("G3"),
            decomposer=shared_decomposer, pipeline=verdict.pipeline,
        )
        assert auto.pipeline_name == verdict.pipeline
        _assert_bit_identical(auto, explicit)
        assert (
            device_auto.calibration_fingerprint()
            == device_explicit.calibration_fingerprint()
        )

    def test_verdict_key_tracks_calibration_and_candidates(self, shared_decomposer):
        kwargs = dict(
            decomposer=shared_decomposer,
            approximate=True,
            use_noise_adaptivity=True,
            merge_single_qubit=True,
            error_scale=1.0,
            max_layers=None,
        )
        base = tuner_verdict_key(
            _circuit(), _device(), google_instruction_set("G3"),
            candidates=("default", "optimized"), **kwargs,
        )
        assert base == tuner_verdict_key(
            _circuit(), _device(), google_instruction_set("G3"),
            candidates=("default", "optimized"), **kwargs,
        )
        assert base != tuner_verdict_key(
            _circuit(), _device(), google_instruction_set("G3"),
            candidates=("default", "fused"), **kwargs,
        )
        drifted = _device()
        drifted.ensure_gate_types(["cz"])
        assert base != tuner_verdict_key(
            _circuit(), drifted, google_instruction_set("G3"),
            candidates=("default", "optimized"), **kwargs,
        )

    def test_candidates_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUTOTUNE_PIPELINES", "default, optimized")
        assert default_candidate_pipelines() == ("default", "optimized")
        monkeypatch.delenv("REPRO_AUTOTUNE_PIPELINES")
        assert "default" in default_candidate_pipelines()

    def test_empty_candidates_rejected(self, shared_decomposer):
        with pytest.raises(ValueError):
            autotune_pipeline(
                _circuit(), _device(), google_instruction_set("G3"),
                decomposer=shared_decomposer, candidates=(),
            )


class TestVerdictCaching:
    def test_memory_tier_round_trip(self, shared_decomposer):
        verdicts = TunerVerdictCache()
        first = autotune_pipeline(
            _circuit(), _device(), google_instruction_set("G3"),
            decomposer=shared_decomposer, verdict_cache=verdicts,
        )
        again = autotune_pipeline(
            _circuit(), _device(), google_instruction_set("G3"),
            decomposer=shared_decomposer, verdict_cache=verdicts,
        )
        assert again is first  # memory hit returns the cached object
        stats = verdicts.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_disk_tier_round_trip(self, tmp_path, shared_decomposer):
        disk = DiskCompilationCache(tmp_path)
        cold = autotune_pipeline(
            _circuit(), _device(), google_instruction_set("G3"),
            decomposer=shared_decomposer, verdict_cache=TunerVerdictCache(),
            cache=CompilationCache(), disk_cache=disk,
        )
        # Fresh memory tiers, same directory: the verdict (and the trial
        # compilations) must come off disk, with no new trial compiles.
        writes_before = disk.stats()["writes"]
        warm = autotune_pipeline(
            _circuit(), _device(), google_instruction_set("G3"),
            decomposer=shared_decomposer, verdict_cache=TunerVerdictCache(),
            cache=CompilationCache(), disk_cache=disk,
        )
        assert isinstance(warm, TunerVerdict)
        assert warm.pipeline == cold.pipeline
        assert [score.as_row() for score in warm.scores] == [
            score.as_row() for score in cold.scores
        ]
        assert disk.stats()["writes"] == writes_before  # nothing recompiled

    def test_corrupt_verdict_blob_is_a_miss(self, tmp_path, shared_decomposer):
        disk = DiskCompilationCache(tmp_path)
        autotune_pipeline(
            _circuit(), _device(), google_instruction_set("G3"),
            decomposer=shared_decomposer, verdict_cache=TunerVerdictCache(),
            cache=CompilationCache(), disk_cache=disk,
        )
        blob_dir = disk.version_dir / AUTOTUNE_BLOB_KIND
        blobs = list(blob_dir.rglob("*.pkl"))
        assert len(blobs) == 1
        blobs[0].write_bytes(b"garbage")
        verdict = autotune_pipeline(
            _circuit(), _device(), google_instruction_set("G3"),
            decomposer=shared_decomposer, verdict_cache=TunerVerdictCache(),
            cache=CompilationCache(), disk_cache=disk,
        )
        assert isinstance(verdict, TunerVerdict)  # recomputed, not crashed


class TestEngineIntegration:
    def _study_kwargs(self, shared_decomposer):
        return dict(
            application="qv",
            circuits=[_circuit(seed=index) for index in range(2)],
            metric_name="HOP",
            metric=heavy_output_probability,
            device_factory=_device,
            instruction_sets={
                "S1": single_gate_set("S1", vendor="google"),
                "G3": google_instruction_set("G3"),
            },
            options=SimulationOptions(shots=800, seed=5),
            decomposer=shared_decomposer,
        )

    def _rows(self, study):
        return [
            (
                name,
                result.metric_values,
                result.two_qubit_counts,
                result.swap_counts,
                sorted(result.gate_type_usage.items()),
                sorted(result.pipeline_usage.items()),
            )
            for name, result in study.per_set.items()
        ]

    @pytest.fixture(scope="class")
    def auto_studies(self, shared_decomposer):
        kwargs = self._study_kwargs(shared_decomposer)
        clear_experiment_caches()
        cold = run_study(**kwargs, pipeline=AUTO_PIPELINE)
        warm = run_study(**kwargs, pipeline=AUTO_PIPELINE)
        clear_experiment_caches()
        default = run_study(**kwargs, pipeline="default")
        return {"cold": cold, "warm": warm, "default": default}

    def test_auto_is_deterministic_across_cache_state(self, auto_studies):
        assert self._rows(auto_studies["cold"]) == self._rows(auto_studies["warm"])

    def test_auto_records_selected_pipelines(self, auto_studies):
        candidates = set(default_candidate_pipelines())
        for result in auto_studies["cold"].per_set.values():
            assert sum(result.pipeline_usage.values()) == len(result.metric_values)
            assert set(result.pipeline_usage) <= candidates

    def test_auto_never_emits_more_two_qubit_gates_than_default(self, auto_studies):
        # The tuner optimises predicted fidelity, which on the synthetic
        # device is dominated by the 2Q budget; selecting a pipeline that
        # *grows* the budget over 'default' would mean the scoring is wired
        # backwards.
        for name, result in auto_studies["cold"].per_set.items():
            default_counts = auto_studies["default"].per_set[name].two_qubit_counts
            assert all(
                auto_count <= default_count
                for auto_count, default_count in zip(result.two_qubit_counts, default_counts)
            )

    def test_auto_pass_stats_flow_into_study(self, auto_studies):
        study = auto_studies["cold"]
        totals = study.aggregated_pass_stats()
        assert totals  # every engine compile contributes pass statistics
        assert "nuop" in totals
        assert totals["nuop"]["runs"] == 4  # 2 circuits x 2 sets
        report = study.format_pass_stats()
        assert "pass statistics" in report
        assert "pipelines used:" in report

    def test_auto_predicted_fidelity_matches_or_beats_default(self, shared_decomposer):
        # The acceptance criterion on the 4-qubit QV study: for every
        # (circuit, instruction set) job the auto-picked pipeline's
        # predicted compiled fidelity >= the default pipeline's.
        for seed in range(2):
            for instruction_set in (
                google_instruction_set("G3"),
                full_fsim_set(),
            ):
                verdict = autotune_pipeline(
                    _circuit(seed=seed), _device(), instruction_set,
                    decomposer=shared_decomposer,
                )
                default_score = verdict.score_for("default")
                assert default_score is not None
                assert verdict.winning_fidelity() >= default_score.predicted_fidelity


class TestPinnedLayout:
    def test_pinned_layout_is_honoured_and_uncached(self, shared_decomposer):
        from repro.compiler.layout import choose_layout

        device = _device()
        pinned = choose_layout(_circuit(), device, None, 50)
        verdicts = TunerVerdictCache()
        verdict = autotune_pipeline(
            _circuit(), device, google_instruction_set("G3"),
            decomposer=shared_decomposer, layout=pinned, verdict_cache=verdicts,
        )
        assert verdict.pipeline in default_candidate_pipelines()
        # Pinned-layout verdicts bypass the verdict cache entirely (the key
        # has no layout component, so caching them would serve one layout's
        # verdict to every other layout).
        assert len(verdicts) == 0

        # pipeline="auto" with a pinned layout compiles the winner on it.
        compiled = compile_circuit(
            _circuit(), _device(), google_instruction_set("G3"),
            decomposer=shared_decomposer, layout=pinned, pipeline=AUTO_PIPELINE,
        )
        assert compiled.pipeline_name in default_candidate_pipelines()
