"""Span tracer that wraps library functions from outside the library.

`Tracer.install` replaces every public function of the named modules, and
the private targets below while they exist, with a wrapper that records one
span per call: name, start, end, parent span and op id.  Every module-level
binding of a function is replaced, so calls through ``from .linalg import
mat_exp`` in another module are seen too.  Spans stay in memory until
`write_spans`.  Outside an op the wrappers call straight through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from contextlib import contextmanager
from time import perf_counter_ns

# Private functions traced under a layer name of their own.  A target that
# a later version of the library removes is skipped and reports 0 calls.
PRIVATE_TARGETS = {
    ("twoqubit", "_newton_on_sphere"): "twoqubit.newton",
    ("linalg", "_haar_from_rng"): "linalg.haar_sample",
}

OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.spans = []     # (name, start_ns, end_ns, parent index or -1, op id)
        self.kept = []      # (bound arguments, result) of moduli_feasibility calls
        self._stack = []
        self._op_id = None  # None while no op runs: wrappers pass through
        self._patches = []  # (namespace, attribute, original)

    def install(self, package: str, module_names) -> None:
        pkg = importlib.import_module(package)
        modules = {m: importlib.import_module(f"{package}.{m}") for m in module_names}
        targets = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[id(fn)] = (fn, f"{short}.{attr}")
        for (short, attr), name in PRIVATE_TARGETS.items():
            fn = getattr(modules.get(short), attr, None)
            if inspect.isfunction(fn):
                targets[id(fn)] = (fn, name)
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        for ns in [pkg, *modules.values()]:
            for attr, value in list(vars(ns).items()):
                key = id(value)
                if key in targets and targets[key][0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrappers[key])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        tracer = self
        # Haar spans are split by n of SU(n); moduli_feasibility calls are
        # kept for the solution counters computed at the end.
        split = name == "linalg.haar_sample"
        signature = inspect.signature(fn) if name == "twoqubit.moduli_feasibility" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            span_name = f"{name}.n{args[0]}" if split else name
            index = tracer._open()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, span_name, start, perf_counter_ns())
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.kept.append((bound.arguments, result))
            return result

        return traced

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: int, end: int) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self._op_id)

    @contextmanager
    def op(self, op_id: int):
        """Trace one op: its root span is OP_SPAN, library calls nest under it."""
        self._op_id = op_id
        index = self._open()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(index, OP_SPAN, start, perf_counter_ns())
            self._op_id = None

    def layer_stats(self) -> dict:
        """Per span name: calls, total and self time in ms.

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap, because calls nest.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = stats.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_ns[index]
        return {name: {"calls": c, "total_ms": t / 1e6, "self_ms": s / 1e6}
                for name, (c, t, s) in stats.items()}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op_id}) + "\n")
