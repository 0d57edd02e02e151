"""Figure 7: exact vs approximate decomposition across hardware error rates.

Sweeps the mean two-qubit error rate (multiples of Sycamore's 0.62%) and
compares application performance when circuits are decomposed with NuOp's
exact mode versus the approximate (Eq. 2) mode.  The paper's finding: the
two coincide at low noise, and approximation wins once error rates reach
the Sycamore regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.applications import qaoa_suite, qv_suite
from repro.core.decomposer import NuOpDecomposer
from repro.core.instruction_sets import single_gate_set
from repro.devices.sycamore import sycamore_device
from repro.experiments.runner import SimulationOptions, run_instruction_set_study
from repro.metrics.hop import heavy_output_probability
from repro.metrics.xeb import cross_entropy_difference

BASE_ERROR_RATE = 0.0062
"""Sycamore's mean simultaneous two-qubit error rate."""


@dataclass
class Figure7Config:
    """Workload and sweep sizes for Figure 7."""

    error_multipliers: List[float] = field(default_factory=lambda: [0.5, 1.0, 2.0, 4.0])
    qv_qubits: int = 5
    qv_circuits: int = 2
    qaoa_qubits: int = 4
    qaoa_circuits: int = 2
    shots: int = 2000
    seed: int = 7

    @classmethod
    def quick(cls) -> "Figure7Config":
        """Benchmark-sized configuration."""
        return cls(error_multipliers=[0.5, 2.0], qv_qubits=4, qv_circuits=1, qaoa_circuits=1)

    @classmethod
    def paper_scale(cls) -> "Figure7Config":
        """The paper's configuration (100 circuits, 8 error points, 10000 shots)."""
        return cls(
            error_multipliers=[0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0],
            qv_circuits=100,
            qaoa_circuits=100,
            shots=10000,
        )


@dataclass
class Figure7Point:
    """Metric values of exact vs approximate decomposition at one error rate."""

    error_multiplier: float
    application: str
    exact_metric: float
    approximate_metric: float


@dataclass
class Figure7Result:
    """All sweep points of the Figure 7 study."""

    points: List[Figure7Point] = field(default_factory=list)

    def crossover_multiplier(self, application: str) -> Optional[float]:
        """Smallest error multiplier at which approximation beats exact decomposition."""
        candidates = [
            point.error_multiplier
            for point in self.points
            if point.application == application
            and point.approximate_metric > point.exact_metric
        ]
        return min(candidates) if candidates else None

    def format_table(self) -> str:
        """Text table of the sweep."""
        lines = ["Figure 7: exact vs approximate decomposition"]
        lines.append(f"{'app':>6} | {'error x0.62%':>12} | {'exact':>8} | {'approx':>8}")
        lines.append("-" * 44)
        for point in self.points:
            lines.append(
                f"{point.application:>6} | {point.error_multiplier:12.2f} | "
                f"{point.exact_metric:8.4f} | {point.approximate_metric:8.4f}"
            )
        return "\n".join(lines)


def run_figure7(
    config: Optional[Figure7Config] = None,
    decomposer: Optional[NuOpDecomposer] = None,
) -> Figure7Result:
    """Run the exact-vs-approximate sweep of Figure 7."""
    config = config or Figure7Config.quick()
    decomposer = decomposer if decomposer is not None else NuOpDecomposer()
    result = Figure7Result()

    qv_circuits = qv_suite(config.qv_qubits, config.qv_circuits, seed=config.seed)
    qaoa_circuits = qaoa_suite(config.qaoa_qubits, config.qaoa_circuits, seed=config.seed + 1)
    instruction_sets = {"S1": single_gate_set("S1", vendor="google")}
    options = SimulationOptions(shots=config.shots, seed=config.seed)

    workloads = [
        ("qv", qv_circuits, "HOP", heavy_output_probability),
        ("qaoa", qaoa_circuits, "XED", cross_entropy_difference),
    ]

    for multiplier in config.error_multipliers:
        def device_factory(multiplier: float = multiplier):
            return sycamore_device(
                noise_variation=False,
                mean_two_qubit_error=BASE_ERROR_RATE * multiplier,
                std_two_qubit_error=0.0,
            )

        for application, circuits, metric_name, metric in workloads:
            exact_study = run_instruction_set_study(
                application,
                circuits,
                metric_name,
                metric,
                device_factory,
                instruction_sets,
                decomposer=decomposer,
                options=options,
                approximate=False,
            )
            approx_study = run_instruction_set_study(
                application,
                circuits,
                metric_name,
                metric,
                device_factory,
                instruction_sets,
                decomposer=decomposer,
                options=options,
                approximate=True,
            )
            result.points.append(
                Figure7Point(
                    error_multiplier=multiplier,
                    application=application,
                    exact_metric=exact_study.per_set["S1"].mean_metric,
                    approximate_metric=approx_study.per_set["S1"].mean_metric,
                )
            )
    return result
