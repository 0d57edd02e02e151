"""Outside-in layer tracer: wraps each layer's public entry point.

The program under test carries no spans of its own yet, so the traced run
rebinds entry points from outside:

* a module function is replaced in its defining module *and* in every
  loaded ``repro`` module that imported it by name (``from x import f``
  makes a second binding that must be rebound too);
* a class method is replaced on the class and on every loaded subclass
  that overrides it (``CompilerPass`` and ``SimulatorBackend`` subclasses).

Timing rules: only the outermost call of a layer per thread is timed (a
re-entrant call passes straight through), and a layer's self time is its
span minus the spans of other layers nested inside it.  Entry points in
``count`` mode only count calls, for hot functions whose timing would
cost more than they do.  A missing entry point raises
:class:`MissingEntryPoint`, so a refactor that renames a layer fails the
traced run instead of silently dropping the layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Sequence, Tuple

# (layer, module, qualified name, mode); mode is "time" or "count".
EntryPoint = Tuple[str, str, str, str]

STUDY_ENTRY_POINTS: List[EntryPoint] = [
    ("core.decomposer", "repro.core.decomposer", "NuOpDecomposer.fidelity_profile", "time"),
    ("core.decomposer", "repro.core.decomposer", "NuOpDecomposer.decompose_exact", "time"),
    ("core.decomposer", "repro.core.decomposer", "NuOpDecomposer.decompose_approximate", "time"),
    ("core.decomposer", "repro.core.decomposer", "NuOpDecomposer.decompose_for_threshold", "time"),
    ("core.templates.objective", "repro.core.templates", "TemplateSpec.objective_with_gradient", "count"),
    ("compiler.nuop", "repro.compiler.manager", "NuOpDecompositionPass.run", "time"),
    ("compiler.layout", "repro.compiler.manager", "LayoutPass.run", "time"),
    ("compiler.routing", "repro.compiler.manager", "RoutingPass.run", "time"),
    ("compiler.merge", "repro.compiler.manager", "SingleQubitMergePass.run", "time"),
    ("core.pipeline", "repro.core.pipeline", "compile_circuit", "time"),
    ("simulators.noise_program", "repro.simulators.noise_program", "noise_program_for", "time"),
    ("caching.disk.read", "repro.caching.disk", "DiskCompilationCache.get", "time"),
    ("caching.disk.read", "repro.caching.disk", "DiskCompilationCache.get_blob", "time"),
    ("caching.disk.read", "repro.caching.disk", "DiskCompilationCache.get_simulation", "time"),
    ("caching.disk.read", "repro.caching.disk", "DiskCompilationCache.get_decomposition_table", "time"),
    ("caching.disk.write", "repro.caching.disk", "DiskCompilationCache.put", "time"),
    ("caching.disk.write", "repro.caching.disk", "DiskCompilationCache.put_blob", "time"),
    ("caching.disk.write", "repro.caching.disk", "DiskCompilationCache.put_simulation", "time"),
    ("caching.disk.write", "repro.caching.disk", "DiskCompilationCache.put_decomposition_table", "time"),
    ("experiments.engine.prepare", "repro.experiments.engine", "prepare_job", "time"),
    ("experiments.engine.sim_key", "repro.experiments.engine", "simulation_cache_key", "time"),
    ("experiments.engine.ideal", "repro.experiments.engine", "ideal_distribution_cached", "time"),
    ("experiments.engine.store", "repro.experiments.engine", "store_simulation", "time"),
    ("experiments.engine.merge", "repro.experiments.engine", "merge_study_results", "time"),
    ("simulators.backend.run", "repro.simulators.backend", "SimulatorBackend.run", "time"),
    ("simulators.backend.batch", "repro.simulators.backend", "SimulatorBackend.run_batch", "time"),
    ("metrics.score", "repro.metrics.hop", "heavy_output_probability", "time"),
    ("metrics.score", "repro.metrics.xeb", "cross_entropy_difference", "time"),
    ("metrics.score", "repro.metrics.xeb", "normalized_linear_xeb_fidelity", "time"),
]
"""Entry points of every layer a study reaches."""

SERVE_ENTRY_POINTS: List[EntryPoint] = STUDY_ENTRY_POINTS + [
    ("service.build_study", "repro.service.server", "StudyService.build_study", "time"),
]
"""The study layers plus the daemon's per-request study construction."""


class MissingEntryPoint(RuntimeError):
    """A wrapped entry point no longer exists in the program."""


class Tracer:
    """Installs wrappers, accumulates per-layer spans, and removes them again."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []
        self.layers: Dict[str, Dict[str, float]] = {}

    # -- accounting -----------------------------------------------------------

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _entry(self, layer: str) -> Dict[str, float]:
        return self.layers.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of ``layer``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if any(frame[0] == layer for frame in stack):
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with self._lock:
                    entry = self._entry(layer)
                    entry["calls"] += 1
                    entry["s"] += elapsed
                    entry["self_s"] += elapsed - frame[1]

        return wrapper

    def counted(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a call counter (no timing)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self._entry(layer)["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def _set(self, owner: object, name: str, value: object) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, entry_points: Sequence[EntryPoint]) -> None:
        """Wrap every entry point; raises :class:`MissingEntryPoint` on the first gap."""
        try:
            for layer, module_name, qualname, mode in entry_points:
                self._install_one(layer, module_name, qualname, mode)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, layer: str, module_name: str, qualname: str, mode: str) -> None:
        make = self.timed if mode == "time" else self.counted
        try:
            module = importlib.import_module(module_name)
        except ImportError as error:
            raise MissingEntryPoint(f"{module_name} cannot be imported: {error}") from error
        owner_name, _, attr = qualname.rpartition(".")
        if not owner_name:
            original = module.__dict__.get(attr)
            if not callable(original):
                raise MissingEntryPoint(f"{module_name}.{qualname} no longer exists")
            wrapper = make(layer, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or loaded_name.split(".")[0] != module_name.split(".")[0]:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, key, wrapper)
            return
        cls = module.__dict__.get(owner_name)
        if not isinstance(cls, type) or attr not in cls.__dict__:
            raise MissingEntryPoint(f"{module_name}.{qualname} no longer exists")
        pending, seen = [cls], set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            raw = klass.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                self._set(klass, attr, type(raw)(make(layer, raw.__func__)))
            else:
                self._set(klass, attr, make(layer, raw))

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def report(self) -> Dict[str, Dict[str, float]]:
        """A copy of the per-layer ``calls``/``s``/``self_s`` totals."""
        with self._lock:
            return {layer: dict(entry) for layer, entry in self.layers.items()}
