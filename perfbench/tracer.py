"""Outside-in tracing: time the calls into each layer without touching ``src/``.

A :class:`Hook` names one public function a layer exports and the place the
*calling* module looks it up (a module attribute, or an attribute of a
class).  :meth:`Tracer.install` swaps each of those names for a timing
wrapper and :meth:`Tracer.uninstall` puts the exact original objects back.
A hook whose target no longer exists makes ``install`` raise
:class:`MissingLayerError` before anything is wrapped, so a rename in the
program cannot silently drop a layer from the benchmark.

Spans are named ``<module>.<function>`` (``datasets.prepare_dataset``,
``service.submit_traced``), the naming scheme of the ROADMAP observability
item, so spans recorded inside the program later line up with these.
Every call is aggregated (calls, seconds, optional row counts, victim
keys); the first :data:`MAX_EVENTS_PER_SPAN` calls of each span are also
kept as Chrome trace events, which Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Trace events kept per span name; aggregates always cover every call.
MAX_EVENTS_PER_SPAN = 2000

#: Spans whose individual durations are kept for percentiles.
_KEEP_DURATIONS = frozenset({"service.submit_traced", "experiments.run_job"})


class MissingLayerError(RuntimeError):
    """A hooked function is gone: the benchmark no longer measures a layer."""


@dataclass(frozen=True)
class Hook:
    """One traced call site.

    ``target`` is ``"package.module"`` or ``"package.module:Class"``;
    ``attr`` is the name looked up there.  ``rows`` maps the call's
    positional arguments to a row count; ``key`` maps them to a hashable
    identity whose distinct values the tracer counts.
    """

    span: str
    target: str
    attr: str
    rows: Optional[Callable[[tuple], int]] = None
    key: Optional[Callable[[tuple, dict], Any]] = None


def _batch_rows(args: tuple) -> int:
    """Rows of the batch passed as the first argument after ``self``."""
    shape = getattr(args[1], "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


def _victim_key(args: tuple, kwargs: dict):
    """What a trained victim depends on: scenario training knobs, scale, seed."""
    spec, _dataset, scale = args[:3]
    return (
        spec.dataset,
        spec.activation,
        spec.defense,
        spec.defense_strength,
        scale.n_train,
        scale.n_test,
        scale.train_epochs,
        kwargs.get("random_state"),
    )


#: Every layer the benchmark times, at the name its caller looks it up under.
LAYER_HOOKS: Sequence[Hook] = (
    Hook("datasets.prepare_dataset", "repro.experiments.sweep", "prepare_dataset"),
    Hook("datasets.prepare_dataset", "repro.experiments.cross_tenant", "prepare_dataset"),
    Hook(
        "nn.build_victim",
        "repro.experiments.scenario:ScenarioSpec",
        "build_victim",
        key=_victim_key,
    ),
    Hook(
        "crossbar.build_accelerator",
        "repro.experiments.scenario:ScenarioSpec",
        "build_accelerator",
    ),
    Hook("sidechannel.probe_all", "repro.sidechannel.probing:ColumnNormProber", "probe_all"),
    Hook("defenses.leakage_correlation", "repro.experiments.sweep", "leakage_correlation"),
    Hook(
        "defenses.single_pixel_attack_advantage",
        "repro.experiments.sweep",
        "single_pixel_attack_advantage",
    ),
    Hook(
        "defenses.leakage_correlation",
        "repro.experiments.cross_tenant",
        "leakage_correlation",
    ),
    Hook(
        "defenses.single_pixel_attack_advantage",
        "repro.experiments.cross_tenant",
        "single_pixel_attack_advantage",
    ),
    Hook("asyncio.run", "asyncio", "run"),
    Hook(
        "sidechannel.run_coresident_attack",
        "repro.experiments.cross_tenant",
        "run_coresident_attack",
    ),
    Hook(
        "sidechannel.estimate_victim_norms",
        "repro.experiments.cross_tenant",
        "estimate_victim_norms",
    ),
    Hook("executor.execute_jobs", "repro.experiments.base", "execute_jobs"),
    Hook("service.submit_traced", "repro.service.coalescer:QueryService", "submit_traced"),
    Hook("netservice.encode_frame", "repro.netservice.server", "encode_frame"),
    Hook(
        "crossbar.forward_with_power",
        "repro.crossbar.accelerator:CrossbarAccelerator",
        "forward_with_power",
        rows=_batch_rows,
    ),
)


def job_hook(experiment) -> Hook:
    """The hook timing each job of ``experiment`` (its class's ``run_job``)."""
    cls = type(experiment)
    return Hook("experiments.run_job", f"{cls.__module__}:{cls.__qualname__}", "run_job")


def _resolve(hook: Hook):
    """``(owner, raw attribute)`` of a hook, or raise :class:`MissingLayerError`."""
    module_name, _, class_name = hook.target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingLayerError(f"{hook.span}: cannot import {module_name!r}: {exc}") from None
    if class_name:
        owner = getattr(owner, class_name, None)
        if not inspect.isclass(owner):
            raise MissingLayerError(f"{hook.span}: {hook.target!r} is not a class")
        if hook.attr not in vars(owner):
            raise MissingLayerError(
                f"{hook.span}: {hook.target}.{hook.attr} no longer exists"
            )
        return owner, vars(owner)[hook.attr]
    if not hasattr(owner, hook.attr):
        raise MissingLayerError(f"{hook.span}: {module_name}.{hook.attr} no longer exists")
    return owner, getattr(owner, hook.attr)


class Tracer:
    """Aggregates timed calls and keeps a bounded Chrome trace of them."""

    def __init__(self, process_name: str = "perfbench"):
        self.process_name = process_name
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.rows: Dict[str, int] = defaultdict(int)
        self.keys: Dict[str, set] = defaultdict(set)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.events: List[dict] = []
        self._event_counts: Dict[str, int] = defaultdict(int)
        self._async_ids = itertools.count(1)
        self._installed: List[tuple] = []

    # ------------------------------------------------------------ recording

    def record(self, name: str, start_ns: int, end_ns: int, *, async_span=False) -> None:
        """Account one finished call (``perf_counter_ns`` timestamps)."""
        elapsed = (end_ns - start_ns) / 1e9
        self.calls[name] += 1
        self.seconds[name] += elapsed
        if name in _KEEP_DURATIONS:
            self.durations[name].append(elapsed)
        if self._event_counts[name] >= MAX_EVENTS_PER_SPAN:
            return
        self._event_counts[name] += 1
        common = {
            "name": name,
            "cat": name.split(".")[0],
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
        }
        if async_span:
            span_id = next(self._async_ids)
            self.events.append({**common, "ph": "b", "id": span_id, "ts": start_ns / 1e3})
            self.events.append({**common, "ph": "e", "id": span_id, "ts": end_ns / 1e3})
        else:
            self.events.append(
                {**common, "ph": "X", "ts": start_ns / 1e3, "dur": (end_ns - start_ns) / 1e3}
            )

    # ------------------------------------------------------------- wrapping

    def _wrap(self, hook: Hook, fn):
        record, rows, keys = self.record, self.rows, self.keys
        name, now = hook.span, time.perf_counter_ns

        if hook.span == "asyncio.run":
            return self._wrap_asyncio_run(fn)
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def timed_async(*args, **kwargs):
                start = now()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    record(name, start, now(), async_span=True)

            return timed_async

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if hook.rows is not None:
                rows[name] += hook.rows(args)
            if hook.key is not None:
                keys[name].add(hook.key(args, kwargs))
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                record(name, start, now())

        return timed

    def _wrap_asyncio_run(self, run):
        """``asyncio.run`` plus the share of it spent outside the coroutine.

        The coroutine is wrapped so its own start and end are known; the
        rest of the call (loop set-up and teardown) is ``asyncio.run.exit``.
        The coroutine's result is returned unchanged, so whatever teardown
        does with it still happens.
        """
        record, now = self.record, time.perf_counter_ns

        @functools.wraps(run)
        def timed_run(main, **kwargs):
            inner = {}

            async def timed_main():
                inner["start"] = now()
                try:
                    return await main
                finally:
                    inner["end"] = now()

            start = now()
            try:
                return run(timed_main(), **kwargs)
            finally:
                end = now()
                record("asyncio.run", start, end)
                if "end" in inner:
                    record("asyncio.run.coroutine", inner["start"], inner["end"])
                    record("asyncio.run.exit", inner["end"], end)
                    self.seconds["asyncio.run.exit"] += (inner["start"] - start) / 1e9

        return timed_run

    def install(self, hooks: Sequence[Hook]) -> "Tracer":
        """Wrap every hook; all targets are checked before any is touched."""
        resolved = [(hook, *_resolve(hook)) for hook in hooks]
        for hook, owner, raw in resolved:
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(hook, raw.__func__))
            else:
                wrapped = self._wrap(hook, raw)
            setattr(owner, hook.attr, wrapped)
            self._installed.append((owner, hook.attr, raw))
        return self

    def uninstall(self) -> None:
        """Put every original object back, last wrapped first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -------------------------------------------------------------- results

    def overhead_s(self) -> float:
        """Host seconds the tracing added: every recorded call times its cost.

        The per-call costs come from :func:`record_costs`, measured in this
        process against the unwrapped call, so a wrapper or :meth:`record`
        that gets dearer shows here, and host speed drift between runs does
        not.
        """
        kept_cost, plain_cost = record_costs()
        kept = sum(self._event_counts.values())
        return kept * kept_cost + (sum(self.calls.values()) - kept) * plain_cost

    def summary(self) -> Dict[str, Any]:
        """JSON-ready aggregates of every span seen."""
        return {
            "overhead_s": self.overhead_s(),
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "rows": dict(self.rows),
            "distinct_keys": {name: len(keys) for name, keys in self.keys.items()},
            "durations": {name: list(values) for name, values in self.durations.items()},
        }

    def chrome_events(self) -> List[dict]:
        """The kept events plus a process-name record for the viewer."""
        meta = {
            "name": "process_name",
            "ph": "M",
            "pid": os.getpid(),
            "args": {"name": f"{self.process_name} (pid {os.getpid()})"},
        }
        return [meta] + self.events


def _loop_ns(fn, calls: int) -> int:
    start = time.perf_counter_ns()
    for _ in range(calls):
        fn()
    return time.perf_counter_ns() - start


@functools.lru_cache(maxsize=None)
def record_costs(trials: int = 5) -> Tuple[float, float]:
    """Seconds one traced call adds over the bare call, in this process.

    Returns ``(cost while the span's trace events are still kept, cost once
    only the aggregates are updated)``.  Each is the best of ``trials``
    loops of :data:`MAX_EVENTS_PER_SPAN` calls of a wrapped no-op, minus the
    best loop of the bare no-op.  Measured once per process and cached.
    """

    def noop():
        return None

    calls = MAX_EVENTS_PER_SPAN
    bare = kept = plain = float("inf")
    for _ in range(trials):
        timed = Tracer()._wrap(Hook("calibration", "", ""), noop)
        bare = min(bare, _loop_ns(noop, calls))
        kept = min(kept, _loop_ns(timed, calls))  # fills the span's event quota
        plain = min(plain, _loop_ns(timed, calls))
    return max(kept - bare, 0) / calls / 1e9, max(plain - bare, 0) / calls / 1e9
