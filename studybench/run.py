"""Host-normalised benchmark of the instruction-set study reproduction.

Run from the repository root::

    python3 studybench/run.py --workload warm-study --seed 3 --seconds 10 --trace 0 --probe-ref-ms 25

Workloads (``--seed`` builds every input the program receives):

``cold-study``
    The Figure-10 quick configuration as 18 single-set studies
    ({qv, qaoa, fh} x {S1, S2, G3, G7, FullfSim, FullfSim-2x}) through
    ``run_instruction_set_study``, in a fresh process with empty memory
    caches, an empty disk-cache directory and a fresh decomposer: how a
    researcher first regenerates a figure.  NuOp and the PassManager do
    most of the work; the disk tier only takes writes.
``warm-study``
    The same 18 ops for 8 cycles against a disk cache the same sequence
    filled first (an untimed fixture), clearing the memory tiers before
    every cycle so each cycle reads from disk like a fresh process: a
    re-run on a warm cache.  Disk reads and noise-program lowering
    dominate; NuOp makes no calls.
``serve-hot``
    A ``repro serve`` daemon with no ``--cache-dir``, 12 specs
    ({qv, qaoa, ghz, bv, tfim, cluster} x {S2, G3}, 3 qubits) each
    answered once in set-up, then 600 seeded draws sent by a closed loop
    of 2 lock-step callers: every request is a memory-tier hit, which
    isolates the HTTP, protocol and per-request scheduling path.

Every op time is host-normalised (see ``probe.py``) against
``--probe-ref-ms``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reruns the workload untraced once and traced twice, with
wrappers on every layer's entry point (``tracer.py``), and reports the
per-layer metrics.  The last line of stdout is the result JSON; the line
before it is an audit record with every op's raw and normalised time.
Every process the benchmark starts gets the thread pin below, so the
BLAS pool cannot spin on the 2 shared CPUs.
"""

from __future__ import annotations

import os

THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)  # before numpy loads, for this process's own probe

import argparse  # noqa: E402
import compileall  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

from probe import MIN_SAMPLES_BEYOND, PinnedProbe, op_record, percentile, pin_to  # noqa: E402
from workloads import serve_draws, serve_pool  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".studybench_work"

WORKLOADS = ("cold-study", "warm-study", "serve-hot")
STUDY_STARTS = 5
"""Fresh interpreter starts per ``setup_s`` of a study workload (median)."""
DAEMON_STARTS = 7
"""Daemon starts per ``setup_s`` of serve-hot (median); the last one serves."""
CHILD_TIMEOUT_S = 170
STUDY_IMPORTS = "import repro.experiments, repro.devices.sycamore, repro.applications, repro.metrics"
"""What a study op needs loaded: the fresh-start cost ``setup_s`` measures."""
SERVE_IMPORTS = "import repro.cli, repro.service.server"
"""What the daemon loads before its ``listening`` line."""
IMPORT_SUBPACKAGES = ("repro.experiments", "repro.core", "repro.circuits")
"""The three costliest ``repro`` subpackages to import (``-X importtime``)."""

END_TO_END_UNITS = {
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


class BenchError(RuntimeError):
    """The program under test failed in a way that leaves nothing to measure."""


# -- processes ------------------------------------------------------------------


def child_env(work: Path) -> Dict[str, str]:
    """Environment of every child: no inherited ``REPRO_*`` knobs, pinned BLAS."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(THREAD_PIN)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work / "tmp")
    return env


def run_child(argv: List[str], env: Dict[str, str], what: str, cpu: int = None) -> subprocess.CompletedProcess:
    done = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        preexec_fn=pin_to(cpu),
    )
    if done.returncode != 0:
        raise BenchError(f"{what} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done


def fresh_starts(imports: str, count: int, env: Dict[str, str], reference_ms: float) -> List[Dict]:
    """Time ``count`` fresh interpreters that load ``imports`` and exit.

    Each start and the probes around it run pinned to one CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    probe = PinnedProbe(cpu, env)
    records = []
    try:
        before = probe()
        for index in range(count):
            start = time.perf_counter()
            run_child([sys.executable, "-c", imports], env, "a fresh start", cpu)
            raw = time.perf_counter() - start
            after = probe()
            records.append(op_record(f"start{index}", raw, before, after, reference_ms))
            before = after
    finally:
        probe.close()
    return records


def import_times(imports: str, env: Dict[str, str]) -> Dict[str, float]:
    """``-X importtime``: all ``repro`` imports and the three costliest subpackages, in s."""
    done = run_child([sys.executable, "-X", "importtime", "-c", imports], env, "-X importtime")
    cumulative: Dict[str, int] = {}
    top_level_us = 0
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative_us, name = line.split("|")
        if not cumulative_us.strip().isdigit():
            continue
        package = name.strip()
        cumulative.setdefault(package, int(cumulative_us))
        if name.startswith(" repro") and (package == "repro" or package.startswith("repro.")):
            top_level_us += int(cumulative_us)
    times = {"import.repro_s": top_level_us / 1e6}
    for package in IMPORT_SUBPACKAGES:
        times[f"import.{package}_s"] = cumulative.get(package, 0) / 1e6
    return times


# -- study workloads ------------------------------------------------------------


def study_pass(mode: str, seed: int, cache: Path, work: Path, reference_ms: float,
               expect: Path = None, trace: bool = False) -> Dict:
    """One ``study_worker.py`` process; returns its output record."""
    out = work / f"pass-{time.monotonic_ns()}.json"
    env = child_env(work)
    env["REPRO_CACHE_DIR"] = str(cache)
    argv = [sys.executable, str(BENCH_DIR / "study_worker.py"), "--mode", mode, "--seed", str(seed),
            "--reference-ms", repr(reference_ms), "--out", str(out)]
    if expect is not None:
        argv += ["--expect", str(expect)]
    if trace:
        argv.append("--trace")
    run_child(argv, env, f"the {mode} study worker")
    with open(out) as handle:
        return json.load(handle)


def pass_ok(output: Dict) -> List[bool]:
    """Per-op verdicts, failing every op when the resilience layer was active."""
    quiet = output["counters"]["retries"] == 0 and output["counters"]["faults"] == 0
    return [bool(record["ok"]) and quiet for record in output["records"]]


def study_e2e(workload: str, seed: int, seconds: float, reference_ms: float, work: Path):
    env = child_env(work)
    setup = fresh_starts(STUDY_IMPORTS, STUDY_STARTS, env, reference_ms)
    fixture = _fill(seed, work, reference_ms) if workload == "warm-study" else None
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(_measured_pass(seed, work, reference_ms, fixture, len(passes)))
    return passes, setup


def _measured_pass(seed: int, work: Path, reference_ms: float, fixture, index: int, trace: bool = False) -> Dict:
    """A cold pass into a fresh cache, or, given the fixture, a warm pass against it."""
    if fixture is None:
        return study_pass("cold", seed, work / f"cache-{index}", work, reference_ms, trace=trace)
    return study_pass("warm", seed, fixture[0], work, reference_ms, expect=fixture[1], trace=trace)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def _fill(seed: int, work: Path, reference_ms: float) -> Tuple[Path, Path]:
    """The warm-study fixture: the 18 ops once, filling the disk cache.

    The cache directory outlives the run, keyed by a digest of the
    program's source.  Its compile entries do not depend on the seed, so
    later runs of the same source fill from disk hits instead of spending
    ~30 s recompiling; the seed's own simulation entries are written here.
    """
    cache = WORK_ROOT / f"warm-fixture-{_source_digest()}"
    for stale in WORK_ROOT.glob("warm-fixture-*"):
        if stale != cache:
            shutil.rmtree(stale, ignore_errors=True)
    output = study_pass("fill", seed, cache, work, reference_ms)
    if not all(pass_ok(output)):
        raise BenchError("the warm-study fill produced failing ops")
    expect = work / "fill.json"
    with open(expect, "w") as handle:
        json.dump(output, handle)
    return cache, expect


def study_trace(workload: str, seed: int, reference_ms: float, work: Path):
    fixture = _fill(seed, work, reference_ms) if workload == "warm-study" else None
    untraced = _measured_pass(seed, work, reference_ms, fixture, 0)
    traced = [_measured_pass(seed, work, reference_ms, fixture, index, trace=True) for index in (1, 2)]
    layers = [study_layers(output) for output in traced]
    imports = import_times(STUDY_IMPORTS, child_env(work))
    return untraced, traced, layers, imports


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _factor(records: List[Dict]) -> float:
    """Host-normalisation factor of a whole pass (normalised / raw seconds)."""
    return sum(r["norm_s"] for r in records) / sum(r["raw_s"] for r in records)


def layer_metrics(layers: Dict, counts: Dict, factor: float, service: Dict) -> Dict[str, float]:
    """Per-layer metrics from tracer totals and the program's public counters.

    Span times are host-normalised with the pass's overall ``factor``;
    ``counts`` carries the counters under the names both kinds of workload
    share, and ``service`` the daemon's own metrics (zeros for studies).
    """

    def span(layer: str, key: str = "s") -> float:
        return layers.get(layer, {}).get(key, 0.0) * factor

    def calls(layer: str) -> int:
        return int(layers.get(layer, {}).get("calls", 0))

    return {
        "core.decomposer.calls": calls("core.decomposer"),
        "core.decomposer.self_s": span("core.decomposer", "self_s"),
        "core.decomposer.profile_hit_ratio": _ratio(counts["profile_hits"], counts["profile_misses"]),
        "core.templates.objective_evals": calls("core.templates.objective"),
        "compiler.nuop.s": span("compiler.nuop"),
        "compiler.layout.s": span("compiler.layout", "self_s"),
        "compiler.routing.s": span("compiler.routing", "self_s"),
        "compiler.merge.s": span("compiler.merge", "self_s"),
        "core.pipeline.compiles": calls("core.pipeline"),
        "core.pipeline.compile_s": span("core.pipeline"),
        "core.pipeline.memory_hits": counts["compile_memory_hits"],
        "core.pipeline.disk_hits": counts["compile_disk_hits"],
        "simulators.noise_program.lowerings": counts["program_misses"],
        "simulators.noise_program.lower_s": span("simulators.noise_program"),
        "simulators.noise_program.cache_hit_ratio": _ratio(counts["program_hits"], counts["program_misses"]),
        "caching.disk.reads": calls("caching.disk.read"),
        "caching.disk.read_s": span("caching.disk.read"),
        "caching.disk.hit_ratio": _ratio(counts["disk_hits"], counts["disk_misses"]),
        "caching.disk.writes": calls("caching.disk.write"),
        "caching.disk.write_s": span("caching.disk.write"),
        "caching.disk.bytes_written": counts["disk_bytes_written"],
        **{
            f"experiments.engine.{name}_s": span(f"experiments.engine.{name}", "self_s")
            for name in ("prepare", "sim_key", "ideal", "store", "merge")
        },
        "service.build_study_s": span("service.build_study"),
        **service,
        "simulators.backend.runs": counts["backend_invocations"],
        "simulators.backend.batch_runs": calls("simulators.backend.batch"),
        "simulators.backend.run_s": span("simulators.backend.run") + span("simulators.backend.batch"),
        "metrics.score_s": span("metrics.score"),
        "resilience.retries": counts["retries"],
        "resilience.faults": counts["faults"],
    }


def study_layers(output: Dict) -> Dict[str, float]:
    """Per-layer metrics of one traced study pass."""
    counters, disk = output["counters"], output["counters"]["disk"]
    counts = {
        **counters,
        "profile_hits": counters["profile"]["hits"],
        "profile_misses": counters["profile"]["misses"],
        "compile_disk_hits": disk["hits"],
        "disk_hits": disk["hits"] + disk["sim_hits"] + disk["decomp_hits"],
        "disk_misses": disk["misses"] + disk["sim_misses"] + disk["decomp_misses"],
        "disk_bytes_written": counters["disk_bytes_end"] - counters["disk_bytes_start"],
    }
    service = {name: 0 for name in (
        "service.request_ttfb_ms", "service.jobs_memory", "service.jobs_backend",
        "service.jobs_inflight", "service.daemon_cpu_s",
    )}
    return layer_metrics(output["layers"], counts, _factor(output["records"]), service)


# -- serve-hot --------------------------------------------------------------------


def _serve_argv(work: Path, traced: bool, index: int) -> List[str]:
    if not traced:
        return [sys.executable, "-m", "repro", "serve", "--port", "0"]
    report = work / f"trace-{index}"
    report.mkdir()
    return [sys.executable, str(BENCH_DIR / "serve_launcher.py"), "--port", "0", "--report", str(report)]


def _set_up(daemon, pool) -> Dict[int, bytes]:
    """Answer every spec once; the responses are the byte references."""
    from serve_load import request

    expected = {}
    for index, spec in enumerate(pool):
        outcome = request(daemon.port, spec)
        if not outcome["ok"] or outcome["study"] is None:
            raise BenchError(f"set-up request {spec} failed: {outcome['error']}")
        expected[index] = outcome["study"]
    return expected


def _service_counts(stats: Dict) -> Dict[str, int]:
    caches = stats["caches"]
    injected = stats["resilience"]["faults"]["injected"]
    return {
        "jobs_memory": stats["service"]["jobs_memory"],
        "jobs_backend": stats["service"]["jobs_backend"],
        "jobs_inflight": stats["service"]["jobs_inflight"],
        "compile_memory_hits": caches["compilation_memory"]["hits"],
        "program_hits": caches["noise_programs"]["hits"],
        "program_misses": caches["noise_programs"]["misses"],
        "backend_invocations": sum(stats["backend_invocations"].values()),
        "retries": stats["resilience"]["retry"]["retries"],
        "faults": sum(sum(kinds.values()) for kinds in injected.values()),
    }


def serve_session(daemon, probe, seed: int, seconds: float, reference_ms: float, trace_dir: Path = None) -> Dict:
    """Set-up then measured passes on a started daemon; always stops it."""
    from repro.service.client import fetch_stats
    from serve_load import closed_loop

    try:
        pool = serve_pool(seed)
        expected = _set_up(daemon, pool)
        if trace_dir is not None:
            os.kill(daemon.proc.pid, signal.SIGUSR1)
            _wait_for(trace_dir / "setup.json")
        before = fetch_stats(port=daemon.port)
        cpu_before = daemon.cpu_s()
        passes = []
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < seconds:
            passes.append(closed_loop(daemon.port, pool, serve_draws(seed), expected, reference_ms, probe))
        cpu_s = daemon.cpu_s() - cpu_before
        after = fetch_stats(port=daemon.port)
        rss = daemon.peak_rss_mb()
    finally:
        code = daemon.stop()
    counts_before, counts_after = _service_counts(before), _service_counts(after)
    return {
        "passes": passes,
        "peak_rss_mb": rss,
        "cpu_s": cpu_s,
        "exit_code": code,
        "counts": {key: counts_after[key] - counts_before[key] for key in counts_after},
        "resilience": {key: counts_after[key] for key in ("retries", "faults")},
    }


def _wait_for(path: Path, timeout: float = 30.0) -> None:
    deadline = time.perf_counter() + timeout
    while not path.exists():
        if time.perf_counter() > deadline:
            raise BenchError(f"the traced daemon did not write {path.name}")
        time.sleep(0.01)


def _session_ok(session: Dict) -> List[bool]:
    quiet = session["exit_code"] == 0 and not any(session["resilience"].values())
    return [bool(record["ok"]) and quiet for records in session["passes"] for record in records]


def _pin_load_generator():
    """Pin this process to the load generator's CPU; returns the daemon's CPU."""
    from serve_load import cpu_plan

    plan = cpu_plan()
    if plan is None:
        return None
    os.sched_setaffinity(0, {plan["load"]})
    return plan["daemon"]


def serve_e2e(seed: int, seconds: float, reference_ms: float, work: Path):
    from serve_load import Daemon

    env = child_env(work)
    cpu = _pin_load_generator()
    probe = PinnedProbe(cpu, env)
    try:
        setup = []
        before = probe()
        for index in range(DAEMON_STARTS):
            daemon = Daemon(_serve_argv(work, False, index), env, str(ROOT), str(work / "daemon.log"), cpu)
            try:
                after = probe()
            except BaseException:
                daemon.stop()
                raise
            setup.append(op_record(f"daemon{index}", daemon.startup_s, before, after, reference_ms))
            if index < DAEMON_STARTS - 1:
                if daemon.stop() != 0:
                    raise BenchError("a daemon did not drain cleanly")
                before = probe()
        session = serve_session(daemon, probe, seed, seconds, reference_ms)
    finally:
        probe.close()
    return session, setup


def serve_trace(seed: int, reference_ms: float, work: Path):
    from serve_load import Daemon

    env = child_env(work)
    cpu = _pin_load_generator()
    probe = PinnedProbe(cpu, env)
    sessions = []
    try:
        for index, traced in enumerate((False, True, True)):
            argv = _serve_argv(work, traced, index)
            daemon = Daemon(argv, env, str(ROOT), str(work / "daemon.log"), cpu)
            trace_dir = work / f"trace-{index}" if traced else None
            session = serve_session(daemon, probe, seed, 0.0, reference_ms, trace_dir)
            if traced:
                with open(trace_dir / "setup.json") as handle:
                    setup_layers = json.load(handle)
                with open(trace_dir / "final.json") as handle:
                    final_layers = json.load(handle)
                session["layers"] = {
                    layer: {key: totals[key] - setup_layers.get(layer, {}).get(key, 0) for key in totals}
                    for layer, totals in final_layers.items()
                }
            sessions.append(session)
    finally:
        probe.close()
    imports = import_times(SERVE_IMPORTS, env)
    return sessions, imports


def serve_layers(session: Dict) -> Dict[str, float]:
    """Per-layer metrics of one traced serve session (measured loop only).

    The daemon runs with no disk tier and ``/v1/stats`` has no profile
    counters, so those counts are zero.
    """
    counts = {
        **session["counts"],
        **session["resilience"],
        "profile_hits": 0,
        "profile_misses": 0,
        "compile_disk_hits": 0,
        "disk_hits": 0,
        "disk_misses": 0,
        "disk_bytes_written": 0,
    }
    records = [record for records in session["passes"] for record in records]
    service = {
        "service.request_ttfb_ms": statistics.median(r["ttfb_norm_s"] for r in records) * 1e3,
        "service.jobs_memory": counts["jobs_memory"],
        "service.jobs_backend": counts["jobs_backend"],
        "service.jobs_inflight": counts["jobs_inflight"],
        "service.daemon_cpu_s": session["cpu_s"],
    }
    return layer_metrics(session["layers"], counts, _factor(records), service)


# -- metrics ----------------------------------------------------------------------


def _pass_sums(passes: List[List[Dict]], key: str) -> float:
    return statistics.median(sum(record[key] for record in records) for records in passes)


def end_to_end(workload: str, passes: List[List[Dict]], setup: List[Dict], peak_rss_mb: float,
               oks: List[bool]) -> Dict:
    records = [record for records in passes for record in records]
    norm = [record["norm_s"] for record in records]
    # cold-study has 18 ops, too few for percentiles with 10 samples beyond
    # them.  The benchmark reports every end-to-end metric on every
    # workload, so cold-study gives nearest-rank values over its 18 ops
    # (9 and 1 beyond): descriptive only, not tail latencies.
    min_beyond = 0 if workload == "cold-study" else MIN_SAMPLES_BEYOND
    values = {
        "run_s": _pass_sums(passes, "norm_s"),
        "op_p50_ms": percentile(norm, 0.5, min_beyond) * 1e3,
        "op_p90_ms": percentile(norm, 0.9, min_beyond) * 1e3,
        "setup_s": statistics.median(record["norm_s"] for record in setup),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": sum(oks) / len(oks),
    }
    return {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in END_TO_END_UNITS}


def audit(passes: List[List[Dict]], setup: List[Dict]) -> Dict:
    return {
        "raw_run_s": _pass_sums(passes, "raw_s"),
        "norm_run_s": _pass_sums(passes, "norm_s"),
        "raw_setup_s": statistics.median(record["raw_s"] for record in setup) if setup else None,
        "probe_median_ms": statistics.median(r["host_ms"] for records in passes for r in records),
        "passes": passes,
        "setup": setup,
    }


def run_e2e(workload: str, seed: int, seconds: float, reference_ms: float, work: Path):
    if workload == "serve-hot":
        session, setup = serve_e2e(seed, seconds, reference_ms, work)
        passes, rss, oks = session["passes"], session["peak_rss_mb"], _session_ok(session)
    else:
        outputs, setup = study_e2e(workload, seed, seconds, reference_ms, work)
        passes = [output["records"] for output in outputs]
        rss = max(output["peak_rss_mb"] for output in outputs)
        oks = [ok for output in outputs for ok in pass_ok(output)]
    return end_to_end(workload, passes, setup, rss, oks), oks, audit(passes, setup)


PREDICTED_ZEROS = {
    "warm-study": ("core.decomposer.calls", "core.templates.objective_evals", "core.pipeline.compiles",
                   "simulators.backend.runs", "caching.disk.writes"),
    "serve-hot": ("core.decomposer.calls", "core.templates.objective_evals", "core.pipeline.compiles",
                  "simulators.noise_program.lowerings", "caching.disk.reads", "caching.disk.writes",
                  "simulators.backend.runs"),
}
"""Layer counts the workload's design says must be zero (besides resilience)."""

COUNT_SUFFIXES = (".calls", ".objective_evals", ".compiles", "_hits", ".lowerings", ".reads", ".writes",
                  ".bytes_written", ".runs", ".batch_runs", ".retries", ".faults",
                  "jobs_memory", "jobs_backend", "jobs_inflight")


def guards(workload: str, first: Dict[str, float], second: Dict[str, float]) -> List[str]:
    """Workload-validity findings: counts that did not repeat and predicted zeros that broke."""
    findings = [
        f"{name} did not repeat: {first[name]} vs {second[name]}"
        for name in first if name.endswith(COUNT_SUFFIXES) and first[name] != second[name]
    ]
    for name in ("resilience.retries", "resilience.faults") + PREDICTED_ZEROS.get(workload, ()):
        if first[name] != 0:
            findings.append(f"{name} is {first[name]}, predicted 0")
    return findings


def run_trace(workload: str, seed: int, reference_ms: float, work: Path):
    if workload == "serve-hot":
        sessions, imports = serve_trace(seed, reference_ms, work)
        untraced, traced = sessions[0], sessions[1:]
        layers = [serve_layers(session) for session in traced]
        untraced_passes = untraced["passes"]
        traced_passes = traced[0]["passes"]
        cpu_s = untraced["cpu_s"]
        oks = [ok for session in sessions for ok in _session_ok(session)]
    else:
        untraced, traced, layers, imports = study_trace(workload, seed, reference_ms, work)
        untraced_passes = [untraced["records"]]
        traced_passes = [traced[0]["records"]]
        cpu_s = untraced["cpu_s"]
        oks = [ok for output in [untraced, *traced] for ok in pass_ok(output)]
    findings = guards(workload, layers[0], layers[1])
    untraced_run_s = _pass_sums(untraced_passes, "norm_s")
    values = {
        **layers[0],
        **imports,
        "host.probe_ms": statistics.median(r["host_ms"] for records in untraced_passes for r in records),
        "host.raw_run_s": _pass_sums(untraced_passes, "raw_s"),
        "host.cpu_s": cpu_s,
        "trace.overhead_frac": _pass_sums(traced_passes, "norm_s") / untraced_run_s - 1.0,
    }
    metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in values.items()}
    return metrics, oks, {"findings": findings, "second_trace": layers[1]}


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "fraction"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


# -- entry point --------------------------------------------------------------------


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measured time: whole op sequences repeat until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-ref-ms", type=float, required=True,
                        help="the probe's time on the reference host (fixed in BENCHMARK.json)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"studybench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC), quiet=1)  # fresh starts must not pay for bytecode compilation

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    try:
        if args.trace:
            metrics, oks, details = run_trace(args.workload, args.seed, args.probe_ref_ms, work)
        else:
            metrics, oks, details = run_e2e(args.workload, args.seed, args.seconds, args.probe_ref_ms, work)
            details["findings"] = []
    except BenchError as error:
        print(f"studybench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = oks.count(False)
    for finding in details["findings"]:
        print(f"studybench: guard: {finding}", file=sys.stderr)
    print(json.dumps({"audit": {"workload": args.workload, "seed": args.seed, "reference_ms": args.probe_ref_ms,
                                "thread_pin": THREAD_PIN, **details}}))
    print(json.dumps({
        "correct": failed == 0 and not details["findings"],
        "attempted": len(oks),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
