"""Wrappers around lrplab's public functions: spans, counts and captures.

lrplab modules import names into their own namespaces (`scaling`,
`dimension` and `experiments` each hold their own `sample_graph`), so a
Probe replaces every binding of a wrapped function in every loaded
lrplab module, and wraps the public methods of `RngStream`, `LrpGraph`
and `DisplacementKernel` on the class.

In trace mode every public function and method of the layer modules is
wrapped and each call appends one span `[name index, parent span, start,
end]` to an in-memory list.  Otherwise only the names that have hooks
are wrapped and no span is kept.  Hooks run after the call returns and
see the bound arguments and the result; they feed the per-layer counts
and the captures the output checks read.  In trace mode the hooks of a
call get a span of their own, `trace.hooks`, a child of the call's
parent, so the probe's own work leaves the self time of every lrplab
layer.  A name that a later version of lrplab removes is not wrapped,
so its metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("kernel", "rng", "graph", "metric", "scaling", "dimension",
          "experiments")
CLASSES = {"kernel": ("DisplacementKernel",), "rng": ("RngStream",),
           "graph": ("LrpGraph",)}
HOOKS_SPAN = "trace.hooks"     # name index 0 of every Probe

# a hook that no longer fits the program's return types must not stop
# the run: the failure is counted instead
_HOOK_ERRORS = (AttributeError, TypeError, KeyError, IndexError, ValueError)


def _plain(raw):
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__
    return raw


def _wrappable(fn) -> bool:
    return inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)


def layer_targets(layer: str):
    """(owner, attribute, span name, raw attribute) for one loaded layer.

    Generator functions are skipped: their call returns before any work
    is done, so a span around it measures nothing.
    """
    mod = sys.modules.get(f"lrplab.{layer}")
    if mod is None:
        return []
    out = []
    for name, obj in list(vars(mod).items()):
        if name.startswith("_") or not _wrappable(obj):
            continue
        if obj.__module__ == mod.__name__:
            out.append((mod, name, f"{layer}.{name}", obj))
    for cname in CLASSES.get(layer, ()):
        cls = getattr(mod, cname, None)
        if cls is None:
            continue
        for name, raw in list(vars(cls).items()):
            if not name.startswith("_") and _wrappable(_plain(raw)):
                out.append((cls, name, f"{layer}.{cname}.{name}", raw))
    return out


class Probe:
    """Installs wrappers; holds the spans and counts of one process."""

    def __init__(self, trace: bool, hooks: dict):
        self.trace = trace
        # span name -> [hook(probe, span id, bound arguments, result)]
        self.hooks = hooks
        self.names: list[str] = [HOOKS_SPAN]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.values: dict[int, float] = {}   # per-span value set by hooks
        self.hook_errors = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def install(self) -> None:
        for layer in LAYERS:
            for owner, attr, name, raw in layer_targets(layer):
                if self.trace or name in self.hooks:
                    self._wrap(owner, attr, name, raw)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, owner, attr, name, raw) -> None:
        fn = _plain(raw)
        wrapper = self._make(name, fn)
        if inspect.ismodule(owner):
            # every binding of the same function object, in every module
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "lrplab"
                                       or mod_name.startswith("lrplab.")):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._restore.append((mod, key, val))
                        setattr(mod, key, wrapper)
        else:
            if isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            elif isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapper)

    def _run_hooks(self, hooks, sig, sid, args, kwargs, result) -> None:
        try:
            bound = sig.bind(*args, **kwargs).arguments
            for hook in hooks:
                hook(self, sid, bound, result)
        except _HOOK_ERRORS:
            self.hook_errors += 1

    def _make(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        hooks = self.hooks.get(name, ())
        sig = inspect.signature(fn)
        run_hooks = self._run_hooks

        if not self.trace:
            @functools.wraps(fn)
            def captured(*args, **kwargs):
                result = fn(*args, **kwargs)
                run_hooks(hooks, sig, -1, args, kwargs, result)
                return result
            return captured

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [idx, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hooks:
                hook_span = [0, span[1], clock(), 0.0]
                spans.append(hook_span)
                run_hooks(hooks, sig, sid, args, kwargs, result)
                hook_span[3] = clock()
            return result
        return traced
