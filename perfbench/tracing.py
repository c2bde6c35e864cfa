"""In-memory span tracer that instruments kgalign from the outside.

`Tracer.install()` replaces every public function of the layer modules
with a timing wrapper, in every kgalign namespace that holds a
reference to it. Calls between modules go through those namespaces
(`from .encoder import forward` binds `training.forward`), so spans
nest the way the program calls its layers, and nothing under `src/`
changes. Spans are kept in memory and written out once at the end.

Hooks attached to a span name see the call's bound arguments and its
result. They run after the span has closed, so the counts they compute
add no time to any span.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("datasets", "graphs", "adjacency", "encoder", "training", "evaluation", "runner", "cli")


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1); end is None while open
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.hooks: dict[str, callable] = {}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def _wrap(self, fn, name):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            hook = self.hooks.get(name)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result, self.spans[index])
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module, wherever bound."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"kgalign.{layer}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    targets[value] = self._wrap(value, f"{layer}.{attr}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "kgalign" and not mod_name.startswith("kgalign."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in targets:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, targets[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- summaries -------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name and end is not None]

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus child spans."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def layer_self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_times().items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += value
        return out

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "self_times": self.self_times(),
            **extra,
        }
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
