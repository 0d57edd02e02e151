"""Figure 10: instruction-set study on the Google Sycamore model.

Panels:

* (a-c) 6-qubit QV (HOP), QAOA (XED) and QFT (success rate) across the
  single-type sets S1-S7, the multi-type sets G1-G7 and FullfSim,
  including FullfSim variants with 1.5x/2x/2.5x/3x worse average error.
* (d) 10-qubit Fermi-Hubbard fidelity (linear XEB) for the same sets.
* (e) the QAOA panel repeated with no noise variation across gate types
  (isolating the instruction-count benefit from noise adaptivity).
* (f) 10/20-qubit Fermi-Hubbard fidelity versus the mean two-qubit error
  rate for the single-type S2 set versus the full G7 set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.applications import (
    fermi_hubbard_circuit,
    qaoa_suite,
    qft_benchmark_circuit,
    qft_target_value,
    qv_suite,
)
from repro.core.decomposer import NuOpDecomposer
from repro.core.instruction_sets import (
    InstructionSet,
    full_fsim_set,
    google_catalogue,
    google_instruction_set,
    single_gate_set,
)
from repro.devices.sycamore import sycamore_device
from repro.experiments.runner import (
    SimulationOptions,
    StudyResult,
    run_instruction_set_study,
)
from repro.metrics.hop import heavy_output_probability
from repro.metrics.success import success_rate
from repro.metrics.xeb import cross_entropy_difference, normalized_linear_xeb_fidelity


@dataclass
class Figure10Config:
    """Workload sizes for the Sycamore study."""

    app_qubits: int = 6
    qv_circuits: int = 2
    qaoa_circuits: int = 2
    fh_qubits: int = 10
    shots: int = 3000
    seed: int = 10
    trajectories: int = 20
    instruction_sets: Optional[List[str]] = None
    full_fsim_error_scales: List[float] = field(default_factory=lambda: [1.0, 2.0])
    include_no_variation_panel: bool = True
    pipeline: str = "default"
    """Compiler pipeline for every compile node; ``"auto"`` lets the
    autotuner (:mod:`repro.compiler.autotune`) pick per (circuit,
    instruction set) by predicted compiled fidelity."""
    backend: str = "auto"
    """Simulator backend for every simulate node (see ``repro
    simulators``); ``"auto"`` is the historical qubit-threshold
    dispatch."""

    @classmethod
    def quick(cls) -> "Figure10Config":
        """Benchmark-sized configuration."""
        return cls(
            app_qubits=4,
            qv_circuits=1,
            qaoa_circuits=1,
            fh_qubits=6,
            shots=2000,
            trajectories=10,
            instruction_sets=["S1", "S2", "G3", "G7", "FullfSim"],
            full_fsim_error_scales=[1.0, 2.0],
            include_no_variation_panel=False,
        )

    @classmethod
    def paper_scale(cls) -> "Figure10Config":
        """The paper's configuration (6-qubit apps, 100 circuits, 10000 shots)."""
        return cls(
            qv_circuits=100,
            qaoa_circuits=100,
            shots=10000,
            trajectories=100,
            full_fsim_error_scales=[1.0, 1.5, 2.0, 2.5, 3.0],
        )

    def selected_sets(self) -> Dict[str, InstructionSet]:
        """Instruction sets evaluated, including scaled FullfSim variants."""
        catalogue = google_catalogue()
        if self.instruction_sets is not None:
            catalogue = {name: catalogue[name] for name in self.instruction_sets}
        for scale in self.full_fsim_error_scales:
            if scale == 1.0:
                continue
            catalogue[f"FullfSim-{scale:g}x"] = full_fsim_set()
        return catalogue

    def error_scales(self) -> Dict[str, float]:
        """Per-set error-rate multipliers (scaled FullfSim variants)."""
        return {
            f"FullfSim-{scale:g}x": scale
            for scale in self.full_fsim_error_scales
            if scale != 1.0
        }


@dataclass
class Figure10Result:
    """All panels of Figure 10."""

    qv: StudyResult
    qaoa: StudyResult
    qft: StudyResult
    fh: StudyResult
    qaoa_no_variation: Optional[StudyResult] = None

    def studies(self) -> List[StudyResult]:
        """The main panels (a-d)."""
        return [self.qv, self.qaoa, self.qft, self.fh]

    def format_table(self) -> str:
        """Text rendering of the main panels, plus per-pass rewrite statistics."""
        parts = [study.format_table() for study in self.studies()]
        if self.qaoa_no_variation is not None:
            parts.append("(e) no noise variation:\n" + self.qaoa_no_variation.format_table())
        parts.extend(
            section
            for section in (study.format_pass_stats() for study in self.studies())
            if section
        )
        return "\n\n".join(parts)


def run_figure10(
    config: Optional[Figure10Config] = None,
    decomposer: Optional[NuOpDecomposer] = None,
) -> Figure10Result:
    """Run the Sycamore instruction-set study (panels a-e)."""
    config = config or Figure10Config.quick()
    decomposer = decomposer if decomposer is not None else NuOpDecomposer()
    instruction_sets = config.selected_sets()
    error_scales = config.error_scales()
    options = SimulationOptions(
        shots=config.shots, seed=config.seed, trajectories=config.trajectories
    )

    def device_factory():
        return sycamore_device(noise_variation=True)

    def no_variation_factory():
        return sycamore_device(noise_variation=False)

    qv_study = run_instruction_set_study(
        "qv",
        qv_suite(config.app_qubits, config.qv_circuits, seed=config.seed),
        "HOP",
        heavy_output_probability,
        device_factory,
        instruction_sets,
        decomposer=decomposer,
        options=options,
        error_scales=error_scales,
        pipeline=config.pipeline,
        backend=config.backend,
    )
    qaoa_circuits = qaoa_suite(config.app_qubits, config.qaoa_circuits, seed=config.seed + 1)
    qaoa_study = run_instruction_set_study(
        "qaoa",
        qaoa_circuits,
        "XED",
        cross_entropy_difference,
        device_factory,
        instruction_sets,
        decomposer=decomposer,
        options=options,
        error_scales=error_scales,
        pipeline=config.pipeline,
        backend=config.backend,
    )
    target = qft_target_value(config.app_qubits)
    qft_study = run_instruction_set_study(
        "qft",
        [qft_benchmark_circuit(config.app_qubits, target)],
        "success_rate",
        lambda measured, ideal: success_rate(measured, target),
        device_factory,
        instruction_sets,
        decomposer=decomposer,
        options=options,
        error_scales=error_scales,
        pipeline=config.pipeline,
        backend=config.backend,
    )
    fh_study = run_instruction_set_study(
        "fh",
        [fermi_hubbard_circuit(config.fh_qubits)],
        "XEB_fidelity",
        normalized_linear_xeb_fidelity,
        device_factory,
        instruction_sets,
        decomposer=decomposer,
        options=options,
        error_scales=error_scales,
        pipeline=config.pipeline,
        backend=config.backend,
    )
    no_variation_study = None
    if config.include_no_variation_panel:
        no_variation_study = run_instruction_set_study(
            "qaoa_no_variation",
            qaoa_circuits,
            "XED",
            cross_entropy_difference,
            no_variation_factory,
            instruction_sets,
            decomposer=decomposer,
            options=options,
            use_noise_adaptivity=False,
            error_scales=error_scales,
            pipeline=config.pipeline,
            backend=config.backend,
        )
    return Figure10Result(
        qv=qv_study,
        qaoa=qaoa_study,
        qft=qft_study,
        fh=fh_study,
        qaoa_no_variation=no_variation_study,
    )


# ---------------------------------------------------------------------------
# Panel (f): Fermi-Hubbard scaling with error rate
# ---------------------------------------------------------------------------


@dataclass
class Figure10fConfig:
    """Error-rate sweep for the Fermi-Hubbard scaling panel."""

    fh_sizes: List[int] = field(default_factory=lambda: [10])
    error_rates: List[float] = field(default_factory=lambda: [0.0036, 0.0009])
    shots: int = 2000
    trajectories: int = 15
    seed: int = 17
    pipeline: str = "default"
    backend: str = "auto"

    @classmethod
    def quick(cls) -> "Figure10fConfig":
        """Benchmark-sized configuration."""
        return cls(fh_sizes=[6], error_rates=[0.0036, 0.0009], trajectories=8)

    @classmethod
    def paper_scale(cls) -> "Figure10fConfig":
        """The paper's configuration: 10 and 20 qubits, five error rates."""
        return cls(
            fh_sizes=[10, 20],
            error_rates=[0.0036, 0.0018, 0.0009, 0.00045, 0.000225],
            shots=10000,
            trajectories=100,
        )


@dataclass
class Figure10fPoint:
    """Fidelity of S2 vs G7 at one (size, error-rate) combination."""

    num_qubits: int
    error_rate: float
    fidelity_s2: float
    fidelity_g7: float


@dataclass
class Figure10fResult:
    """All points of the panel (f) sweep."""

    points: List[Figure10fPoint] = field(default_factory=list)

    def g7_always_wins(self) -> bool:
        """True when G7 matches or beats S2 at every point (the paper's claim)."""
        return all(p.fidelity_g7 >= p.fidelity_s2 - 1e-6 for p in self.points)

    def format_table(self) -> str:
        """Text rendering of the sweep."""
        lines = ["Figure 10f: Fermi-Hubbard fidelity vs error rate"]
        lines.append(f"{'qubits':>6} | {'error rate':>10} | {'S2':>8} | {'G7':>8}")
        lines.append("-" * 42)
        for point in self.points:
            lines.append(
                f"{point.num_qubits:>6} | {point.error_rate:10.5f} | "
                f"{point.fidelity_s2:8.4f} | {point.fidelity_g7:8.4f}"
            )
        return "\n".join(lines)


def run_figure10f(
    config: Optional[Figure10fConfig] = None,
    decomposer: Optional[NuOpDecomposer] = None,
) -> Figure10fResult:
    """Run the Fermi-Hubbard error-rate scaling sweep (Figure 10f)."""
    config = config or Figure10fConfig.quick()
    decomposer = decomposer if decomposer is not None else NuOpDecomposer()
    instruction_sets = {
        "S2": single_gate_set("S2", vendor="google"),
        "G7": google_instruction_set("G7"),
    }
    options = SimulationOptions(
        shots=config.shots, seed=config.seed, trajectories=config.trajectories
    )
    result = Figure10fResult()
    for num_qubits in config.fh_sizes:
        circuit = fermi_hubbard_circuit(num_qubits)
        for error_rate in config.error_rates:
            def device_factory(rate: float = error_rate):
                return sycamore_device(
                    noise_variation=True,
                    mean_two_qubit_error=rate,
                    std_two_qubit_error=rate * 0.4,
                )

            study = run_instruction_set_study(
                "fh",
                [circuit],
                "XEB_fidelity",
                normalized_linear_xeb_fidelity,
                device_factory,
                instruction_sets,
                decomposer=decomposer,
                options=options,
                pipeline=config.pipeline,
                backend=config.backend,
            )
            result.points.append(
                Figure10fPoint(
                    num_qubits=num_qubits,
                    error_rate=error_rate,
                    fidelity_s2=study.per_set["S2"].mean_metric,
                    fidelity_g7=study.per_set["G7"].mean_metric,
                )
            )
    return result
