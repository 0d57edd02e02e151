"""Figure 9: instruction-set study on the Rigetti Aspen-8 model.

Three workloads (3-qubit QV / HOP, 4-qubit QAOA / XED, 3-qubit QFT /
success rate) are compiled and simulated for the single-type sets S2-S6,
the multi-type sets R1-R5 and the continuous FullXY family, using the
Aspen-8 noise model with measured per-edge, per-gate-type fidelities
(noise variation across gate types).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.applications import qaoa_suite, qft_benchmark_circuit, qft_target_value, qv_suite
from repro.core.decomposer import NuOpDecomposer
from repro.core.instruction_sets import InstructionSet, rigetti_catalogue
from repro.devices.aspen8 import aspen8_device
from repro.experiments.runner import (
    SimulationOptions,
    StudyResult,
    run_instruction_set_study,
)
from repro.metrics.hop import heavy_output_probability
from repro.metrics.success import success_rate
from repro.metrics.xeb import cross_entropy_difference


@dataclass
class Figure9Config:
    """Workload sizes for the Aspen-8 study."""

    qv_qubits: int = 3
    qv_circuits: int = 2
    qaoa_qubits: int = 4
    qaoa_circuits: int = 2
    qft_qubits: int = 3
    shots: int = 3000
    seed: int = 9
    instruction_sets: Optional[List[str]] = None
    pipeline: str = "default"
    """Compiler pipeline for every compile node; ``"auto"`` lets the
    autotuner (:mod:`repro.compiler.autotune`) pick per (circuit,
    instruction set) by predicted compiled fidelity."""
    backend: str = "auto"
    """Simulator backend for every simulate node (see ``repro
    simulators``); ``"auto"`` is the historical qubit-threshold
    dispatch."""

    @classmethod
    def quick(cls) -> "Figure9Config":
        """Benchmark-sized configuration with a representative subset of sets."""
        return cls(
            qv_circuits=1,
            qaoa_circuits=1,
            shots=2000,
            instruction_sets=["S3", "S4", "R1", "R5", "FullXY"],
        )

    @classmethod
    def paper_scale(cls) -> "Figure9Config":
        """The paper's configuration (100 circuits per random workload, 10000 shots)."""
        return cls(qv_circuits=100, qaoa_circuits=100, shots=10000)

    def selected_sets(self) -> Dict[str, InstructionSet]:
        """The instruction sets evaluated (defaults to the whole Rigetti catalogue)."""
        catalogue = rigetti_catalogue()
        if self.instruction_sets is None:
            return catalogue
        return {name: catalogue[name] for name in self.instruction_sets}


@dataclass
class Figure9Result:
    """Per-workload study results for Figure 9."""

    qv: StudyResult
    qaoa: StudyResult
    qft: StudyResult

    def studies(self) -> List[StudyResult]:
        """All three studies (panels a, b, c)."""
        return [self.qv, self.qaoa, self.qft]

    def format_table(self) -> str:
        """Text rendering of all three panels, plus per-pass rewrite statistics."""
        parts = [study.format_table() for study in self.studies()]
        parts.extend(
            section
            for section in (study.format_pass_stats() for study in self.studies())
            if section
        )
        return "\n\n".join(parts)

    def multi_type_beats_single(self, panel: str = "qv") -> bool:
        """True when the best multi-type set beats the best single-type set."""
        study = {"qv": self.qv, "qaoa": self.qaoa, "qft": self.qft}[panel]
        single = [v.mean_metric for k, v in study.per_set.items() if k.startswith("S")]
        multi = [
            v.mean_metric
            for k, v in study.per_set.items()
            if k.startswith("R") or k.startswith("Full")
        ]
        if not single or not multi:
            return False
        return max(multi) >= max(single)


def run_figure9(
    config: Optional[Figure9Config] = None,
    decomposer: Optional[NuOpDecomposer] = None,
) -> Figure9Result:
    """Run the Aspen-8 instruction-set study."""
    config = config or Figure9Config.quick()
    decomposer = decomposer if decomposer is not None else NuOpDecomposer()
    instruction_sets = config.selected_sets()
    options = SimulationOptions(shots=config.shots, seed=config.seed)

    def device_factory():
        return aspen8_device(noise_variation=True)

    qv_study = run_instruction_set_study(
        "qv",
        qv_suite(config.qv_qubits, config.qv_circuits, seed=config.seed),
        "HOP",
        heavy_output_probability,
        device_factory,
        instruction_sets,
        decomposer=decomposer,
        options=options,
        pipeline=config.pipeline,
        backend=config.backend,
    )
    qaoa_study = run_instruction_set_study(
        "qaoa",
        qaoa_suite(config.qaoa_qubits, config.qaoa_circuits, seed=config.seed + 1),
        "XED",
        cross_entropy_difference,
        device_factory,
        instruction_sets,
        decomposer=decomposer,
        options=options,
        pipeline=config.pipeline,
        backend=config.backend,
    )
    target = qft_target_value(config.qft_qubits)
    qft_study = run_instruction_set_study(
        "qft",
        [qft_benchmark_circuit(config.qft_qubits, target)],
        "success_rate",
        lambda measured, ideal: success_rate(measured, target),
        device_factory,
        instruction_sets,
        decomposer=decomposer,
        options=options,
        pipeline=config.pipeline,
        backend=config.backend,
    )
    return Figure9Result(qv=qv_study, qaoa=qaoa_study, qft=qft_study)
