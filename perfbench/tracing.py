"""Outside-in span recorder for the traced benchmark run.

:func:`install` wraps the public entry points of each layer of the program
(the overlay builders, the failure models, the kernel backends, the routing
drivers, the churn simulator, the result store, the job manager and the
HTTP dispatcher) from the benchmark's own code; nothing under ``src/`` is
edited.  Each wrapped call records one span — name, layer, start, end,
parent and, where the call carries one, a job id — in memory.  The parent
is tracked with a context variable, so spans are parented per thread and
per asyncio task.  :func:`layer_metrics` turns a list of spans into the
per-layer metrics, using self time: a span's duration minus the part of it
its child spans cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import re
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Layers whose self time is reported, in report order.  Spans with layer
#: ``None`` (the benchmark's own root span, the sweep runner) are not a
#: layer: their self time is the unaccounted remainder.
LAYERS = ("dht", "failures", "prepare", "update", "hops", "engine", "reduce", "churn",
          "store_get", "store_put", "jobs", "http")

_SHARD_THREAD = re.compile(r"^rcm-shard-([0-9a-f]+)-")


class SpanRecorder:
    """Collects spans in memory; :attr:`spans` is a list of plain dicts."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _record(self, span_id, parent, name, layer, start, end, attrs) -> None:
        match = _SHARD_THREAD.match(threading.current_thread().name)
        job_id = attrs.pop("job_id", None) or (match.group(1) if match else None)
        self.spans.append(
            {
                "id": span_id,
                "parent": parent,
                "name": name,
                "layer": layer,
                "start": start,
                "end": end,
                "thread": threading.get_ident(),
                "job_id": job_id,
                "attrs": attrs,
            }
        )

    def wrap(self, func: Callable, name: str, layer: Optional[str], attrs: Optional[Callable] = None):
        """``func`` wrapped to record a span; ``attrs(args, kwargs, result)`` adds counts."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = self._next_id()
            parent = self._current.get()
            token = self._current.set(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                self._current.reset(token)
                self._record(span_id, parent, name, layer, start, end, {"error": True})
                raise
            end = time.perf_counter()
            self._current.reset(token)
            self._record(span_id, parent, name, layer, start, end,
                         attrs(args, kwargs, result) if attrs else {})
            return result

        return wrapper

    def wrap_async(self, func: Callable, name: str, layer: Optional[str]):
        """Coroutine-function variant of :meth:`wrap`."""

        @functools.wraps(func)
        async def wrapper(*args, **kwargs):
            span_id = self._next_id()
            parent = self._current.get()
            token = self._current.set(span_id)
            start = time.perf_counter()
            try:
                return await func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._current.reset(token)
                self._record(span_id, parent, name, layer, start, end, {})

        return wrapper

    @contextlib.contextmanager
    def root(self, name: str):
        """Record a layer-less root span around a block; yields its id."""
        span_id = self._next_id()
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self._record(span_id, parent, name, None, start, end, {})


# --------------------------------------------------------------------- #
# installation
# --------------------------------------------------------------------- #
def _defining_classes(classes: Iterable[type], attribute: str) -> List[type]:
    """The classes that define ``attribute`` themselves, for every class given."""
    owners = []
    for cls in classes:
        for klass in cls.__mro__:
            if attribute in klass.__dict__:
                if klass not in owners:
                    owners.append(klass)
                break
    return owners


def _all_subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        for klass in _all_subclasses(sub):
            if klass not in found:
                found.append(klass)
    return found


def _patch_function(module_name: str, attribute: str, wrapped_of: Callable) -> None:
    """Replace a function in every loaded ``repro`` module that imported it."""
    original = getattr(importlib.import_module(module_name), attribute)
    wrapped = wrapped_of(original)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            module.__dict__.get(attribute) is original
        ):
            setattr(module, attribute, wrapped)


def _patch_method(cls: type, attribute: str, wrapped_of: Callable) -> None:
    raw = cls.__dict__[attribute]
    if isinstance(raw, classmethod):
        setattr(cls, attribute, classmethod(wrapped_of(raw.__func__)))
    else:
        setattr(cls, attribute, wrapped_of(raw))


def _mask_count(args, kwargs, result) -> Dict:
    shape = getattr(result, "shape", ())
    return {"masks": int(shape[0]) if len(shape) == 2 else 1}


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's public entry points so calls record spans."""
    # Import everything whose names get patched, so module-level
    # ``from x import f`` copies exist before the scan replaces them.
    for module in ("repro.dht", "repro.dht.failures", "repro.sim.sampling", "repro.sim.engine",
                   "repro.sim.static_resilience", "repro.sim.churn", "repro.sim.backends",
                   "repro.service.store", "repro.service.jobs", "repro.service.app",
                   "repro.experiments.registry"):
        importlib.import_module(module)
    from repro.dht.failures import FailureModel
    from repro.dht.network import OVERLAY_CLASSES
    from repro.service.app import SweepService
    from repro.service.jobs import JobManager
    from repro.service.store import ResultStore
    from repro.sim.backends.base import KernelBackend
    from repro.sim.engine import BatchRouteOutcome, SweepRunner

    def span(name, layer, attrs=None):
        return lambda func: recorder.wrap(func, name, layer, attrs)

    for owner in _defining_classes(OVERLAY_CLASSES.values(), "build"):
        _patch_method(owner, "build", span(f"{owner.__name__}.build", "dht"))

    for cls in _all_subclasses(FailureModel):
        for method in ("sample", "sample_batch"):
            if method in cls.__dict__:
                _patch_method(cls, method, span(f"{cls.__name__}.{method}", "failures", _mask_count))
    _patch_function("repro.sim.sampling", "sample_survivor_pair_arrays",
                    span("sample_survivor_pair_arrays", "failures"))

    def prepare_attrs(args, kwargs, result):
        return {"table_entries": int(args[1].neighbor_array().size)}

    def run_attrs(args, kwargs, result):
        return {"pairs": int(args[3].size), "pair_hops": int(result[1].sum())}

    for cls in _all_subclasses(KernelBackend):
        if "prepare" in cls.__dict__:
            _patch_method(cls, "prepare", span(f"{cls.__name__}.prepare", "prepare", prepare_attrs))
        if "update" in cls.__dict__:
            _patch_method(cls, "update", span(f"{cls.__name__}.update", "update"))
        if "run" in cls.__dict__:
            _patch_method(cls, "run", span(f"{cls.__name__}.run", "hops", run_attrs))

    _patch_function("repro.sim.engine", "route_pairs", span("route_pairs", "engine"))
    _patch_function("repro.sim.engine", "route_pairs_stacked", span("route_pairs_stacked", "engine"))
    _patch_method(BatchRouteOutcome, "to_metrics", span("BatchRouteOutcome.to_metrics", "reduce"))

    def run_cells_attrs(args, kwargs, result):
        stats = args[0].last_run_stats
        return {"computed": stats.computed, "memo_hits": stats.memo_hits,
                "store_hits": stats.store_hits}

    _patch_method(SweepRunner, "run_cells", span("SweepRunner.run_cells", None, run_cells_attrs))

    _patch_function("repro.sim.churn", "simulate_churn",
                    span("simulate_churn", "churn", lambda a, k, r: {"steps": len(r.steps)}))

    def get_cells(func):
        wrapped = recorder.wrap(
            func, "ResultStore.get_cells", "store_get",
            lambda a, k, r: {"requested": len(a[1]), "read": len(r)},
        )
        return lambda self, cells, **kwargs: wrapped(self, list(cells), **kwargs)

    def put_cells(func):
        wrapped = recorder.wrap(
            func, "ResultStore.put_cells", "store_put", lambda a, k, r: {"written": len(a[1])}
        )
        return lambda self, results, **kwargs: wrapped(self, list(results), **kwargs)

    _patch_method(ResultStore, "get_cells", get_cells)
    _patch_method(ResultStore, "put_cells", put_cells)
    _patch_method(JobManager, "submit",
                  span("JobManager.submit", "jobs", lambda a, k, r: {"job_id": r.job_id}))
    _patch_method(SweepService, "dispatch",
                  lambda func: recorder.wrap_async(func, "SweepService.dispatch", "http"))


# --------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------- #
def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Dict]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(span["id"], ())]
        clipped = [(s, e) for s, e in clipped if e > s]
        result[span["id"]] = (end - start) - _covered(clipped)
    return result


def subtree(spans: Sequence[Dict], root_id: int) -> List[Dict]:
    """The span ``root_id`` and all its descendants."""
    children: Dict[int, List[Dict]] = defaultdict(list)
    by_id = {}
    for span in spans:
        by_id[span["id"]] = span
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    found, stack = [], [by_id[root_id]]
    while stack:
        span = stack.pop()
        found.append(span)
        stack.extend(children.get(span["id"], ()))
    return found


def layer_metrics(spans: Sequence[Dict], requests: int) -> Dict[str, float]:
    """Per-layer metrics of ``spans``: times in seconds per request, counts in total.

    ``calls`` of a layer count its outermost spans (a span whose parent is
    in another layer), so a wrapped method calling another wrapped method
    of the same layer counts once; its time is still split by self time.
    """
    by_id = {span["id"]: span for span in spans}
    own = self_times(spans)
    time_in = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(float)
    for span in spans:
        layer = span["layer"]
        time_in[layer] += own[span["id"]]
        parent = by_id.get(span["parent"])
        outermost = parent is None or parent["layer"] != layer
        if outermost:
            calls[layer] += 1
        for key, value in span["attrs"].items():
            if key != "error" and (key != "masks" or outermost):
                sums[f"{layer or 'runner'}.{key}"] += value
    per = 1.0 / max(requests, 1)
    pairs = sums["hops.pairs"]
    pair_hops = sums["hops.pair_hops"]
    requested = sums["store_get.requested"]
    return {
        "dht.build_s": time_in["dht"] * per,
        "dht.builds": calls["dht"],
        "failures.sample_s": time_in["failures"] * per,
        "failures.masks": sums["failures.masks"],
        "prepare.s": time_in["prepare"] * per,
        "prepare.calls": calls["prepare"],
        "update.s": time_in["update"] * per,
        "update.calls": calls["update"],
        "prepare.table_entries": sums["prepare.table_entries"],
        "prepare.entries_per_pair": sums["prepare.table_entries"] / pairs if pairs else 0.0,
        "hops.s": time_in["hops"] * per,
        "hops.pairs": pairs,
        "hops.pair_hops": pair_hops,
        "hops.ns_per_pair_hop": time_in["hops"] * 1e9 / pair_hops if pair_hops else 0.0,
        "engine.dispatch_self_s": time_in["engine"] * per,
        "engine.reduce_s": time_in["reduce"] * per,
        "engine.cells_computed": sums["runner.computed"],
        "engine.cells_memo_hits": sums["runner.memo_hits"],
        "engine.cells_store_hits": sums["runner.store_hits"],
        "churn.s": time_in["churn"] * per,
        "churn.steps": sums["churn.steps"],
        "store.get_s": time_in["store_get"] * per,
        "store.put_s": time_in["store_put"] * per,
        "store.cells_read": sums["store_get.read"],
        "store.cells_written": sums["store_put.written"],
        "store.cells_looked_up": requested,
        "store.hit_ratio": sums["store_get.read"] / requested if requested else 0.0,
        "jobs.submit_s": time_in["jobs"] * per,
        "http.dispatch_s": time_in["http"] * per,
        "http.requests": calls["http"],
        "trace.layer_self_s": sum(time_in[layer] for layer in LAYERS) * per,
        "trace.unaccounted_s": time_in[None] * per,
    }
