"""Deterministic fault injection: named fault points under a seeded plan.

Production failures -- a worker process dying mid-study, a full disk, a
backend hiccup -- are rare, unscheduled and unreproducible, which is why
the recovery paths that handle them rot untested.  This module turns
failure into a first-class *input*: code at a failure-prone boundary
consults a named **fault point**, and a **fault plan** (the
``REPRO_FAULT_PLAN`` environment variable) decides deterministically
whether that consultation fails and how.

Fault points (the catalogue, see ``docs/resilience.md``):

========================  ====================================================
``disk.read``             reading a disk-cache payload (``caching/disk.py``)
``disk.write``            persisting a disk-cache payload
``backend.run``           a simulator-backend invocation (single or batched)
``worker.task``           one simulate job starting to execute (engine, serve)
``serve.handler``         an incoming ``POST /v1/studies`` request
``inflight.wait``         a coalesce waiter blocking on the owner's future
========================  ====================================================

Plan grammar (entries separated by ``;``)::

    REPRO_FAULT_PLAN="worker.task:crash@2;disk.write:enospc%0.1;seed=7"

* ``point:kind@N`` -- inject ``kind`` on the *N*-th consultation of
  ``point`` (1-based), exactly once.
* ``point:kind%P`` -- inject ``kind`` on each consultation of ``point``
  with probability ``P`` (0 < P < 1), drawn from a per-rule RNG.
* ``seed=<int>`` -- seeds every probabilistic rule (and the retry
  layer's jitter); same plan text => same fault sequence, replayable
  across processes.

Multiple rules may target one point; they are evaluated in declaration
order and the first firing rule wins.  Invalid entries follow the
``repro.config`` policy: a :class:`RuntimeWarning` naming the entry,
then the entry is dropped -- never an exception, never a silent ignore.

Determinism: per-rule RNGs are seeded from
``sha256(f"{seed}|{point}|{index}|{kind}")`` -- *not* the builtin
``hash`` (salted per process by ``PYTHONHASHSEED``), so the drawn
sequence replays across processes.  Consultations of a single point are
counted under a lock; with serial consultation (the engine always,
serve with ``--exec-workers 1``) the full fault sequence is exact, while
under concurrent consultation the sequence of draws is still
deterministic but its attribution to specific jobs is
scheduling-dependent (documented in ``docs/resilience.md``).

With no plan configured (the default) every consult is a dictionary
miss returning ``None``: no RNG is created, no state mutates, nothing
can raise -- the bit-identity fixtures from PR 1/PR 6 run untouched.
"""

from __future__ import annotations

import errno
import hashlib
import random
import threading
import warnings
from concurrent.futures import BrokenExecutor
from typing import Dict, List, Optional, Tuple

from repro.config import str_env

__all__ = [
    "FAULT_PLAN_ENV_VAR",
    "FAULT_POINTS",
    "InjectedFault",
    "InjectedWorkerCrash",
    "FaultPlan",
    "active_fault_plan",
    "configure_fault_plan",
    "reset_fault_plan_configuration",
    "consult_fault",
    "maybe_raise_fault",
    "maybe_raise_io_fault",
    "fault_stats",
    "reset_fault_stats",
]

FAULT_PLAN_ENV_VAR = "REPRO_FAULT_PLAN"

#: The closed catalogue of consultable fault points.  Rules naming any
#: other point are rejected at parse time -- a typo'd point name would
#: otherwise make a chaos plan silently inert.
FAULT_POINTS: Tuple[str, ...] = (
    "disk.read",
    "disk.write",
    "backend.run",
    "worker.task",
    "serve.handler",
    "inflight.wait",
)

#: Injected-fault kinds that :func:`maybe_raise_io_fault` maps onto the
#: concrete OS-level exception the real failure would raise.
_IO_FAULT_ERRNO = {
    "enospc": errno.ENOSPC,
    "eacces": errno.EACCES,
    "eio": errno.EIO,
}


class InjectedFault(RuntimeError):
    """A deterministic injected failure (transient; retry layers recover)."""

    def __init__(self, point: str, kind: str):
        super().__init__(f"injected fault {kind!r} at fault point {point!r}")
        self.point = point
        self.kind = kind

    def __reduce__(self):
        # RuntimeError's default reduce replays ``args`` (the formatted
        # message, one string) into ``__init__(point, kind)`` -- a
        # TypeError while the pool parent unpickles a worker's result,
        # which ProcessPoolExecutor misreports as "a child process
        # terminated abruptly".  Rebuild from the original fields.
        return (type(self), (self.point, self.kind))


class InjectedWorkerCrash(BrokenExecutor):
    """An injected worker-process death.

    Subclasses :class:`concurrent.futures.BrokenExecutor`, the shape a
    real ``BrokenProcessPool`` takes, so the retry layer's
    ``DEFAULT_RETRYABLE`` treats it as the transient failure it models.
    """

    def __init__(self, point: str):
        super().__init__(f"injected worker crash at fault point {point!r}")
        self.point = point

    def __reduce__(self):
        # Same pickling contract as InjectedFault: without this the
        # message doubles up on every process-boundary crossing
        # (``__init__`` re-wraps the already-formatted message).
        return (type(self), (self.point,))


def _rule_rng_seed(plan_seed: int, point: str, index: int, kind: str) -> int:
    digest = hashlib.sha256(
        f"{plan_seed}|{point}|{index}|{kind}".encode("utf-8")
    ).hexdigest()
    return int(digest[:16], 16)


class _FaultRule:
    """One parsed plan entry: ``point:kind@N`` or ``point:kind%P``."""

    __slots__ = ("point", "kind", "at", "probability", "rng", "fired")

    def __init__(
        self,
        point: str,
        kind: str,
        *,
        at: Optional[int] = None,
        probability: Optional[float] = None,
        plan_seed: int = 0,
        index: int = 0,
    ):
        self.point = point
        self.kind = kind
        self.at = at
        self.probability = probability
        self.fired = 0
        # Each probabilistic rule draws from its own RNG so adding a rule
        # never perturbs the sequence another rule replays.
        self.rng: Optional[random.Random] = None
        if probability is not None:
            self.rng = random.Random(_rule_rng_seed(plan_seed, point, index, kind))

    def decide(self, consultation: int) -> bool:
        """Whether this rule fires on the given (1-based) consultation."""
        if self.at is not None:
            if consultation == self.at and self.fired == 0:
                self.fired += 1
                return True
            return False
        assert self.rng is not None and self.probability is not None
        if self.rng.random() < self.probability:
            self.fired += 1
            return True
        return False


def _parse_entries(raw: str) -> Tuple[int, List[Tuple[str, str, str, str]]]:
    """Split plan text into (seed, [(point, kind, operator, operand)])."""
    seed = 0
    entries: List[Tuple[str, str, str, str]] = []
    for chunk in raw.split(";"):
        entry = chunk.strip()
        if not entry:
            continue
        if entry.startswith("seed="):
            try:
                seed = int(entry[len("seed=") :])
            except ValueError:
                warnings.warn(
                    f"ignoring invalid {FAULT_PLAN_ENV_VAR} entry {entry!r} "
                    "(need seed=<int>)",
                    RuntimeWarning,
                    stacklevel=4,
                )
            continue
        point, sep, spec = entry.partition(":")
        point = point.strip()
        operator = "@" if "@" in spec else "%" if "%" in spec else ""
        kind, _, operand = spec.partition(operator) if operator else (spec, "", "")
        kind = kind.strip()
        operand = operand.strip()
        if not sep or not operator or not kind or not operand:
            warnings.warn(
                f"ignoring invalid {FAULT_PLAN_ENV_VAR} entry {entry!r} "
                "(need point:kind@N or point:kind%P)",
                RuntimeWarning,
                stacklevel=4,
            )
            continue
        if point not in FAULT_POINTS:
            warnings.warn(
                f"ignoring invalid {FAULT_PLAN_ENV_VAR} entry {entry!r} "
                f"(unknown fault point {point!r}; known: {', '.join(FAULT_POINTS)})",
                RuntimeWarning,
                stacklevel=4,
            )
            continue
        entries.append((point, kind, operator, operand))
    return seed, entries


class FaultPlan:
    """A parsed, stateful fault plan: rules plus consultation counters."""

    def __init__(self, raw: str):
        self.raw = raw
        self._lock = threading.Lock()
        self.seed, entries = _parse_entries(raw)
        self._rules: Dict[str, List[_FaultRule]] = {}
        self._consultations: Dict[str, int] = {}
        self._injected: Dict[str, Dict[str, int]] = {}
        for index, (point, kind, operator, operand) in enumerate(entries):
            rule: Optional[_FaultRule] = None
            if operator == "@":
                try:
                    at = int(operand)
                except ValueError:
                    at = 0
                if at >= 1:
                    rule = _FaultRule(point, kind, at=at)
            else:
                try:
                    probability = float(operand)
                except ValueError:
                    probability = -1.0
                if 0.0 < probability < 1.0:
                    rule = _FaultRule(
                        point,
                        kind,
                        probability=probability,
                        plan_seed=self.seed,
                        index=index,
                    )
            if rule is None:
                warnings.warn(
                    f"ignoring invalid {FAULT_PLAN_ENV_VAR} entry "
                    f"{point}:{kind}{operator}{operand} (@N needs an integer "
                    ">= 1, %P a probability in (0, 1))",
                    RuntimeWarning,
                    stacklevel=4,
                )
                continue
            self._rules.setdefault(point, []).append(rule)

    def consult(self, point: str) -> Optional[str]:
        """Record a consultation of ``point``; return a fault kind or None."""
        rules = self._rules.get(point)
        if rules is None:
            return None
        with self._lock:
            consultation = self._consultations.get(point, 0) + 1
            self._consultations[point] = consultation
            for rule in rules:
                if rule.decide(consultation):
                    per_point = self._injected.setdefault(point, {})
                    per_point[rule.kind] = per_point.get(rule.kind, 0) + 1
                    return rule.kind
        return None

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "plan": self.raw,
                "seed": self.seed,
                "consultations": dict(self._consultations),
                "injected": {
                    point: dict(kinds) for point, kinds in self._injected.items()
                },
            }


# Registry state: mirrors the disk-cache registry's explicit-override
# pattern.  ``_EXPLICIT`` set via configure_fault_plan() wins over the
# environment; ``_UNSET`` means "the environment governs".
_UNSET = object()
_PLAN_STATE_LOCK = threading.Lock()
_PLAN_STATE: Optional[FaultPlan] = None
_EXPLICIT: object = _UNSET


def configure_fault_plan(plan: Optional[str]) -> Optional[FaultPlan]:
    """Explicitly set (or, with ``None``, disable) the process fault plan.

    Overrides ``REPRO_FAULT_PLAN`` until
    :func:`reset_fault_plan_configuration`.  Returns the freshly parsed
    (zero-consultation) plan, so tests can replay a sequence from a
    clean slate.
    """
    global _EXPLICIT, _PLAN_STATE
    with _PLAN_STATE_LOCK:
        _EXPLICIT = plan
        _PLAN_STATE = FaultPlan(plan) if plan else None
        return _PLAN_STATE


def reset_fault_plan_configuration() -> None:
    """Drop any explicit plan and parsed state; the environment governs."""
    global _EXPLICIT, _PLAN_STATE
    with _PLAN_STATE_LOCK:
        _EXPLICIT = _UNSET
        _PLAN_STATE = None


def reset_fault_stats() -> None:
    """Re-arm the active plan: fresh counters, fresh RNG streams."""
    global _PLAN_STATE
    with _PLAN_STATE_LOCK:
        if _PLAN_STATE is not None:
            _PLAN_STATE = FaultPlan(_PLAN_STATE.raw)


def active_fault_plan() -> Optional[FaultPlan]:
    """The process fault plan, or ``None`` when no plan is configured.

    Re-reads ``REPRO_FAULT_PLAN`` on every call (the long-lived-daemon
    policy of ``REPRO_CACHE_DIR``), re-parsing only when the text
    changes so counters survive across consultations.
    """
    global _PLAN_STATE
    raw = _EXPLICIT if _EXPLICIT is not _UNSET else str_env(FAULT_PLAN_ENV_VAR)
    if not raw:
        return None
    assert isinstance(raw, str)
    with _PLAN_STATE_LOCK:
        if _PLAN_STATE is None or _PLAN_STATE.raw != raw:
            _PLAN_STATE = FaultPlan(raw)
        return _PLAN_STATE


def consult_fault(point: str) -> Optional[str]:
    """Consult ``point``: the planned fault kind to inject, or ``None``."""
    plan = active_fault_plan()
    if plan is None:
        return None
    return plan.consult(point)


def maybe_raise_fault(point: str) -> None:
    """Consult ``point`` and raise the planned fault, if any.

    ``crash`` raises :class:`InjectedWorkerCrash` (a ``BrokenExecutor``,
    i.e. the executing worker dies); every other kind raises
    :class:`InjectedFault` (a transient task failure the retry layer
    absorbs).
    """
    kind = consult_fault(point)
    if kind is None:
        return
    if kind == "crash":
        raise InjectedWorkerCrash(point)
    raise InjectedFault(point, kind)


def maybe_raise_io_fault(point: str) -> None:
    """Consult ``point`` and raise the planned fault as the OS would.

    Called from *inside* the disk tier's existing ``try`` blocks so the
    injected ``OSError``/``EOFError`` exercises the very ``except``
    branches a real full disk or truncated pickle would: ``enospc`` /
    ``eacces`` / ``eio`` raise :class:`OSError` with the matching
    ``errno``; ``truncate`` raises :class:`EOFError` (what
    ``pickle.load`` raises on a short file); any other kind raises a
    generic :class:`OSError`.
    """
    kind = consult_fault(point)
    if kind is None:
        return
    if kind == "truncate":
        raise EOFError(f"injected truncated read at fault point {point!r}")
    code = _IO_FAULT_ERRNO.get(kind, errno.EIO)
    raise OSError(code, f"injected fault {kind!r} at fault point {point!r}")


def fault_stats() -> Dict[str, object]:
    """Counters for the active plan (inert shape when no plan is set)."""
    plan = active_fault_plan()
    if plan is None:
        return {"plan": None, "seed": 0, "consultations": {}, "injected": {}}
    return plan.stats()
