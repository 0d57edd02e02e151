"""Tests of the benchmark's own machinery: normalisation, percentiles, tracer.

Run with ``PYTHONPATH=src python -m pytest studybench -q``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from probe import normalise, op_record, percentile  # noqa: E402
from tracer import STUDY_ENTRY_POINTS, SERVE_ENTRY_POINTS, MissingEntryPoint, Tracer  # noqa: E402


# -- normalisation ----------------------------------------------------------------


def test_normalise_scales_by_reference_over_host_speed():
    assert normalise(2.0, host_ms=50.0, reference_ms=25.0) == pytest.approx(1.0)
    assert normalise(2.0, host_ms=20.0, reference_ms=25.0) == pytest.approx(2.5)


@pytest.mark.parametrize("host_ms, reference_ms", [(0.0, 25.0), (25.0, 0.0), (-1.0, 25.0)])
def test_normalise_rejects_non_positive_probe_times(host_ms, reference_ms):
    with pytest.raises(ValueError):
        normalise(1.0, host_ms, reference_ms)


def test_op_record_averages_bracketing_probes_with_in_op_samples():
    record = op_record("op", 3.0, 20.0, 40.0, 25.0, in_op_ms=[30.0, 30.0])
    assert record["host_ms"] == pytest.approx(30.0)
    assert record["norm_s"] == pytest.approx(3.0 * 25.0 / 30.0)
    assert record["raw_s"] == 3.0 and record["reference_ms"] == 25.0
    assert (record["probe_before_ms"], record["probe_after_ms"], record["in_op_samples"]) == (20.0, 40.0, 2)
    assert op_record("op", 3.0, 20.0, 40.0, 25.0)["host_ms"] == pytest.approx(30.0)


# -- percentiles -------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(1, 101), 0.9) == 90  # 10 samples beyond
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(range(1, 100), 0.9)
    assert percentile(range(1, 21), 0.5) == 10
    with pytest.raises(ValueError):
        percentile(range(1, 19), 0.5)  # 18 samples leave 9 beyond the median


def test_percentile_rule_can_be_waived_explicitly():
    assert percentile(range(1, 19), 0.9, min_beyond=0) == 17


# -- tracer ------------------------------------------------------------------------


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.a`` defines the entry points; ``fakepkg.b`` imported one by name."""
    package = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def leaf():
        time.sleep(0.02)
        return "leaf"

    def outer(depth=0):
        time.sleep(0.01)
        if depth < 2:
            return a.outer(depth + 1)  # re-entrant: only the outermost call is timed
        return a.leaf()

    class Base:
        def run(self):
            return "base"

    class Child(Base):
        def run(self):
            return "child:" + super().run()

    a.leaf, a.outer, a.Base, a.Child = leaf, outer, Base, Child
    b.leaf = leaf
    for module in (package, a, b):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return a, b


def test_tracer_wraps_every_binding_and_unwraps(fake_package):
    a, b = fake_package
    originals = (a.leaf, a.outer, a.Base.__dict__["run"], a.Child.__dict__["run"])
    tracer = Tracer()
    tracer.install([
        ("leaf", "fakepkg.a", "leaf", "count"),
        ("outer", "fakepkg.a", "outer", "time"),
        ("pass", "fakepkg.a", "Base.run", "time"),
    ])
    assert a.leaf is not originals[0] and b.leaf is a.leaf
    assert a.Child().run() == "child:base"
    assert b.leaf() == "leaf"
    tracer.uninstall()
    assert (a.leaf, a.outer, a.Base.__dict__["run"], a.Child.__dict__["run"]) == originals
    assert b.leaf is originals[0]
    report = tracer.report()
    assert report["leaf"]["calls"] == 1
    assert report["pass"]["calls"] == 1  # Child.run calling Base.run is one outermost call


def test_tracer_times_outermost_call_and_subtracts_child_spans(fake_package):
    a, _ = fake_package
    tracer = Tracer()
    tracer.install([("outer", "fakepkg.a", "outer", "time"), ("leaf", "fakepkg.a", "leaf", "time")])
    try:
        assert a.outer() == "leaf"
    finally:
        tracer.uninstall()
    outer, leaf = tracer.report()["outer"], tracer.report()["leaf"]
    assert outer["calls"] == 1 and leaf["calls"] == 1
    assert outer["s"] >= 0.03 + leaf["s"] - 1e-3
    assert outer["self_s"] == pytest.approx(outer["s"] - leaf["s"])
    assert leaf["self_s"] == pytest.approx(leaf["s"])


def test_tracer_fails_on_missing_entry_point_and_installs_nothing(fake_package):
    a, _ = fake_package
    original = a.leaf
    tracer = Tracer()
    with pytest.raises(MissingEntryPoint, match="gone"):
        tracer.install([("leaf", "fakepkg.a", "leaf", "time"), ("gone", "fakepkg.a", "gone", "time")])
    assert a.leaf is original
    with pytest.raises(MissingEntryPoint):
        tracer.install([("run", "fakepkg.a", "Base.missing", "time")])
    with pytest.raises(MissingEntryPoint):
        tracer.install([("x", "fakepkg.nonexistent", "f", "time")])


def test_every_layer_entry_point_exists_in_the_program():
    tracer = Tracer()
    tracer.install(SERVE_ENTRY_POINTS)
    tracer.uninstall()
    layers = {layer for layer, *_ in STUDY_ENTRY_POINTS}
    assert {"core.decomposer", "compiler.nuop", "caching.disk.read", "simulators.backend.run"} <= layers


# -- command line ------------------------------------------------------------------


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "studybench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "studybench/run.py", "--workload", "cold-study", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--probe-ref-ms", "25"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
