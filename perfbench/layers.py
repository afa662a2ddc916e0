"""Outside-in layer tracing for the benchmark's traced run.

:class:`LayerTracer` wraps the public functions and methods of the
``repro`` packages on their class or module attributes, measures each
call with ``perf_counter_ns`` and restores the originals afterwards.
Nothing under ``src/`` changes.

A call's *self time* is its duration minus the time spent in wrapped
calls nested inside it; a layer's self time is the sum over its
functions.  Host time spent outside every wrapped call -- the event loop
itself, generator bodies, callbacks that are not public functions -- is
reported as unattributed.

A span is kept for every call that crosses a layer boundary (its caller
is in another layer, or it has no wrapped caller).  Spans stay in memory
and are written as Chrome ``trace_event`` JSON when the run ends.
"""

from __future__ import annotations

import enum
import inspect
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Packages of ``repro`` whose public functions are wrapped, as layers.
#: ``geo``, ``durable`` and ``workflow`` are left out: no served path of
#: the workloads runs through them.  ``repro.services.wps`` is its own
#: layer so the WPS execute path shows apart from the REST stack.
LAYERS = ("sim", "services", "services.wps", "modellib", "hydrology",
          "broker", "sched", "cloud", "dataplane", "obs", "tenancy",
          "resilience", "portal", "data", "core")

#: Entry points that run the whole event loop: wrapping them would
#: nest every other call inside one layer.
_OUTER_LOOPS = {("repro.sim.kernel", "Simulator", "run"),
                ("repro.sim.kernel", "Simulator", "run_process"),
                ("repro.core.evop", "Evop", "run_for"),
                ("repro.core.evop", "Evop", "run_until")}

#: At most this many spans are kept; later ones are counted as dropped.
MAX_SPANS = 50_000


def layer_of(module_name: str) -> Optional[str]:
    """The layer a ``repro`` module belongs to, or None if not traced."""
    parts = module_name.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    if module_name == "repro.services.wps":
        return "services.wps"
    return parts[1] if parts[1] in LAYERS else None


class FunctionStats:
    """Call count and host nanoseconds of one wrapped function."""

    __slots__ = ("name", "layer", "calls", "total_ns", "self_ns")

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class LayerTracer:
    """Installs timing wrappers on every public ``repro`` function.

    ``hooks`` maps a qualified name (``module:Class.method``) to a
    callable ``hook(args, kwargs, result)`` run after each call, for the
    per-layer metrics that need arguments or results.
    """

    def __init__(self, hooks: Optional[Dict[str, Callable]] = None):
        self.hooks = dict(hooks or {})
        self.stats: Dict[str, FunctionStats] = {}
        self.spans: List[Tuple[str, str, int, int, int]] = []
        self.spans_dropped = 0
        self._restore: List[Tuple[Any, str, Any]] = []
        # per nested wrapped call: [child_ns, layer, span index]
        self._stack: List[list] = []
        self.started_ns = 0

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced layers."""
        modules = [(name, module) for name, module in sorted(sys.modules.items())
                   if module is not None and layer_of(name) is not None]
        replaced: Dict[int, Any] = {}
        for module_name, module in modules:
            layer = layer_of(module_name)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module_name:
                    wrapper = self.wrap(obj, f"{module_name}:{attr}", layer)
                    replaced[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == module_name \
                        and not issubclass(obj, (enum.Enum, BaseException,
                                                 tuple)):
                    self._wrap_class(obj, module_name, layer)
        # module functions are also bound by ``from x import f`` elsewhere
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, obj in list(vars(module).items()):
                entry = replaced.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, entry[1])
        self.started_ns = time.perf_counter_ns()

    def _wrap_class(self, cls: type, module_name: str, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or \
                    (module_name, cls.__name__, attr) in _OUTER_LOOPS:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                kind = type(raw)
            elif inspect.isfunction(raw):
                fn, kind = raw, None
            else:
                continue
            if inspect.isgeneratorfunction(fn):
                continue
            wrapper = self.wrap(fn, f"{module_name}:{cls.__name__}.{attr}",
                                 layer)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, kind(wrapper) if kind else wrapper)

    def wrap_attribute(self, owner: Any, attr: str, name: str,
                       layer: str) -> None:
        """Wrap the callable ``owner.attr`` until :meth:`uninstall`."""
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, layer))

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """A timing wrapper around ``fn``, counted as ``name`` in ``layer``."""
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = FunctionStats(name, layer)
        stack = self._stack
        spans = self.spans
        hook = self.hooks.get(name)
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_index = -1
            if parent is None or parent[1] != layer:
                if len(spans) < MAX_SPANS:
                    span_index = len(spans)
                    spans.append(None)
                else:
                    tracer.spans_dropped += 1
            frame = [0, layer, span_index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if span_index >= 0:
                    spans[span_index] = (
                        name, layer, start, elapsed,
                        parent[2] if parent is not None else -1)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ----------------------------------------------------------------

    def function(self, name: str) -> FunctionStats:
        """Stats of one wrapped function (zeros if it was never wrapped)."""
        return self.stats.get(name) or FunctionStats(name, "")

    def layer_self_ns(self) -> Dict[str, int]:
        """Self nanoseconds per layer."""
        totals = {layer: 0 for layer in LAYERS}
        for stats in self.stats.values():
            totals[stats.layer] += stats.self_ns
        return totals

    def write_spans(self, path: str) -> int:
        """Write the kept spans as Chrome trace_event JSON; returns count."""
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": "perfbench traced run"}}]
        for span in self.spans:
            if span is None:
                continue
            name, layer, start, elapsed, parent = span
            events.append({"name": name, "cat": layer, "ph": "X",
                           "pid": 1, "tid": 1,
                           "ts": (start - self.started_ns) / 1000.0,
                           "dur": elapsed / 1000.0,
                           "args": {"parent": parent}})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "otherData": {"spans_dropped": self.spans_dropped}},
                      handle)
        return len(events) - 1
