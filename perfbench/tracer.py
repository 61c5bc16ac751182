"""Span tracing of the tfa layers, installed from outside the package.

`Tracer.install()` replaces every public function of each measured layer
module (and every public method of the classes that module defines) with a
wrapper that records a span: name, start, end and parent. Because `harness`,
`cli` and the package `__init__` import names directly, every attribute of
every loaded `tfa` module that is bound to a wrapped function is rebound as
well. `uninstall()` puts every original back.

Spans live in memory, in compact `array` columns, and are written
once, by `save()`, when the benchmark ends. Self time is accumulated online:
a span's self time is its duration minus the time its child spans cover,
and a layer's self time is the sum over its spans. Time spent in modules
that are not wrapped (rng, numpy, scipy) counts toward the calling span.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self, layers: dict, hooks: dict | None = None):
        """layers maps a layer name to its module; hooks maps a qualified
        name ("models.Model.param_grad") to hook(tracer, args, kwargs,
        result), called after the wrapped call returns."""
        self.layers = list(layers)
        self.modules = dict(layers)
        self.hooks = hooks or {}
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self.self_s = [0.0] * len(self.layers)
        self.counts: dict[str, float] = {}
        self.seen: dict[str, set] = {}  # keys hooks have met in the current operation
        self._stack: list[int] = []
        self._child: list[float] = []
        self._plan: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self):
        if not self._plan:
            self._plan = self._make_plan()
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._plan):
            setattr(owner, attr, original)

    def _make_plan(self):
        """(owner, attribute, original, wrapper) for every binding to replace."""
        plan, wrappers = [], {}
        for li, layer in enumerate(self.layers):
            module = self.modules[layer]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrappers[id(value)] = (value, self._wrap(li, f"{layer}.{attr}", value))
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for name, member in list(vars(value).items()):
                        if not name.startswith("_") and inspect.isfunction(member):
                            plan.append((value, name, member, self._wrap(li, f"{layer}.{attr}.{name}", member)))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "tfa" or mod_name.startswith("tfa.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    plan.append((module, attr, value, hit[1]))
        return plan

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, layer_index: int, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        self.name_layer.append(layer_index)
        hook = self.hooks.get(qualname)
        stack, child = self._stack, self._child
        start, end, names, parents, ops = self.start, self.end, self.name_id, self.parent, self.op
        self_s = self.self_s

        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            stack.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                covered = child.pop()
                dur = t1 - t0
                self_s[layer_index] += dur - covered
                if child:
                    child[-1] += dur
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- queries used by hooks and reports ------------------------------------

    def begin_op(self, index: int):
        """Tag the following spans with operation `index`; forget seen keys."""
        self.current_op = index
        self.seen = {}

    def caller_layer(self) -> str | None:
        """Layer of the innermost open span, i.e. of the wrapped call's caller."""
        if not self._stack:
            return None
        return self.layers[self.name_layer[self.name_id[self._stack[-1]]]]

    def count(self, key: str, amount: float = 1.0):
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_layer=np.array(self.name_layer, dtype=np.int32),
            layers=np.array(self.layers),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
