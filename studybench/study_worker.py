"""Child process that runs the study ops (the process under test).

Run by ``run.py``; one invocation is one pass of a study workload::

    python studybench/study_worker.py --mode cold --seed 1 --reference-ms 20 --out rec.json

``--mode fill`` runs the 18 ops once against an empty disk cache and
records each op's report table (the warm-study fixture); ``cold`` is the
same pass, timed; ``warm`` runs the ops for ``WARM_CYCLES`` cycles
against the filled cache, clearing the memory tiers before each cycle,
and checks every table against the fixture's.  ``REPRO_CACHE_DIR`` names
the disk tier.  The host probe runs between every two ops and samples
the host's speed during each op (``probe.InOpSampler``).  ``--trace``
installs the layer tracer first and adds per-layer counts to the output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from typing import Dict, List

from probe import InOpSampler, op_record, probe
from workloads import WARM_CYCLES, build_study_inputs, study_ops


def _run_op(inputs: Dict[str, object], app: str, set_name: str):
    from repro.experiments import run_instruction_set_study

    metric_name, module, function = inputs["metrics"][app]
    scale = inputs["error_scales"].get(set_name)
    return run_instruction_set_study(
        app,
        inputs["circuits"][app],
        metric_name,
        getattr(module, function),
        inputs["device_factory"],
        {set_name: inputs["sets"][set_name]},
        decomposer=inputs["decomposer"],
        options=inputs["options"],
        error_scales={set_name: scale} if scale else None,
        workers=1,
    )


def _check(study, set_name: str) -> bool:
    """Cold-path output check: one finite, compiled row and a quiet resilience layer."""
    # "attempts" counts every simulate call; only the other counters mean trouble.
    troubles = {key: value for key, value in study.resilience.items() if key != "attempts"}
    if list(study.per_set) != [set_name] or any(troubles.values()):
        return False
    row = study.per_set[set_name]
    return math.isfinite(row.mean_metric) and row.mean_two_qubit_count > 0


def _resetting_counters() -> Dict[str, int]:
    """Counters that ``clear_experiment_caches`` zeroes; summed across cycles."""
    from repro.core.pipeline import global_compilation_cache
    from repro.simulators.noise_program import noise_program_cache_stats

    compiles = global_compilation_cache().stats()
    programs = noise_program_cache_stats()
    return {
        "compile_memory_hits": compiles["hits"],
        "program_hits": programs["hits"],
        "program_misses": programs["misses"],
    }


def _tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _, names in os.walk(root)
        for name in names
    )


def _final_counters(totals: Dict[str, int]) -> Dict[str, object]:
    from repro.caching.disk import get_global_disk_cache
    from repro.core.decomposer import profile_cache_stats
    from repro.resilience import fault_stats, retry_stats
    from repro.simulators.backend import backend_invocation_counts

    disk = get_global_disk_cache().stats()
    injected = fault_stats()["injected"]
    return {
        **totals,
        "profile": profile_cache_stats(),
        "disk": {key: disk[key] for key in (
            "hits", "misses", "writes", "sim_hits", "sim_misses", "sim_writes",
            "decomp_hits", "decomp_misses", "decomp_writes",
        )},
        "backend_invocations": sum(backend_invocation_counts().values()),
        "retries": retry_stats()["retries"],
        "faults": sum(sum(kinds.values()) for kinds in injected.values()),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("fill", "cold", "warm"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reference-ms", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--expect", help="fill output whose tables warm ops must match")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.compiler.tabulation import clear_table_cache
    from repro.core.decomposer import NuOpDecomposer, clear_profile_cache
    from repro.experiments import clear_experiment_caches

    inputs = build_study_inputs(args.seed)
    inputs["decomposer"] = NuOpDecomposer()
    expected = {}
    if args.expect:
        with open(args.expect) as handle:
            expected = json.load(handle)["tables"]
    tracer = None
    if args.trace:
        from tracer import STUDY_ENTRY_POINTS, Tracer

        tracer = Tracer()
        tracer.install(STUDY_ENTRY_POINTS)

    ops = study_ops()
    cycles = WARM_CYCLES if args.mode == "warm" else 1
    records, tables = [], {}
    totals = {key: 0 for key in _resetting_counters()}
    totals["disk_bytes_start"] = _tree_bytes(os.environ["REPRO_CACHE_DIR"])
    cpu_start = time.process_time()
    before = probe()
    for _cycle in range(cycles):
        if args.mode == "warm":
            for key, value in _resetting_counters().items():
                totals[key] += value
            clear_experiment_caches()
            clear_profile_cache()
            clear_table_cache()
        for app, set_name in ops:
            key = f"{app}/{set_name}"
            with InOpSampler() as sampler:
                start = time.perf_counter()
                study = _run_op(inputs, app, set_name)
                raw = time.perf_counter() - start
            after = probe()
            record = op_record(key, raw, before, after, args.reference_ms, sampler.samples_ms)
            table = study.format_table()
            ok = _check(study, set_name)
            if args.mode == "warm":
                ok = ok and table == expected.get(key)
            record["ok"] = ok
            records.append(record)
            tables[key] = table
            before = after
    cpu_s = time.process_time() - cpu_start
    for key, value in _resetting_counters().items():
        totals[key] += value
    totals["disk_bytes_end"] = _tree_bytes(os.environ["REPRO_CACHE_DIR"])

    output = {
        "records": records,
        "tables": tables,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": _final_counters(totals),
    }
    if tracer is not None:
        tracer.uninstall()
        output["layers"] = tracer.report()
    tmp = f"{args.out}.tmp"
    with open(tmp, "w") as handle:
        json.dump(output, handle)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
