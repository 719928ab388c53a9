"""Span tracing for the benchmark, installed from outside the library.

The tracer wraps the public functions of each qnetmax layer in the traced
workload process only.  Each call records one span: name, start, end, the
index of the span that caused it, and the instance it belongs to.  Spans are
kept in memory and folded into per-layer call counts, total time and self
time when the run ends.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer (module of qnetmax) -> wrapped public names.  TwoQubitState is a
# class: its constructor, which validates the matrix, is what gets wrapped.
TARGETS = {
    "qstate": ("TwoQubitState", "random_state", "correlation_matrix"),
    "jacobi": ("eigvalsh_hermitian", "eigvalsh_symmetric"),
    "criteria": ("t_spectrum", "chsh_max", "bilocality_max", "star_max", "network_report"),
    "correlations": ("bilocality_value", "star_value", "outcome_distribution"),
    "swap": ("bsm_distribution", "theorem1_check"),
    "oracle": ("maximize_bilocality", "maximize_star"),
    "classify": ("classify_pair",),
}
SPAN_NAMES = tuple(f"{module}.{name}" for module, names in TARGETS.items() for name in names)
# Root span of one instance; its self time is the benchmark's own work.
INSTANCE_SPAN = "bench.instance"


class Tracer:
    """Records nested spans; `install` patches every qnetmax namespace and
    `uninstall` puts the originals back."""

    def __init__(self):
        # (name, start, end, parent span index or -1, instance id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []
        self._instance = -1
        self._patches: list[tuple[object, str, object]] = []
        self._root = self.wrap(INSTANCE_SPAN, lambda fn, *args: fn(*args))

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._instance)

        return traced

    def install(self) -> None:
        """Wrap every target in every qnetmax module that bound it.

        Modules that did `from .x import y` hold their own reference to `y`,
        so each namespace is patched, not only the defining module.
        """
        namespaces = [
            module
            for name, module in list(sys.modules.items())
            if name == "qnetmax" or name.startswith("qnetmax.")
        ]
        for module_name, names in TARGETS.items():
            module = sys.modules[f"qnetmax.{module_name}"]
            for name in names:
                original = getattr(module, name)
                span_name = f"{module_name}.{name}"
                if isinstance(original, type):
                    self._patch(original, "__init__", self.wrap(span_name, original.__init__))
                    continue
                wrapped = self.wrap(span_name, original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patch(namespace, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def run_instance(self, instance_id: int, fn, *args):
        """Call fn(*args) under a root span; spans opened inside share its id."""
        self._instance = instance_id
        try:
            return self._root(fn, *args)
        finally:
            self._instance = -1


def fold(spans) -> tuple[dict[str, list[float]], dict[int, float]]:
    """Per-name [calls, total seconds, self seconds], and self time per instance."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    per_name: dict[str, list[float]] = {}
    per_instance: dict[int, float] = {}
    for index, (name, start, end, _, instance) in enumerate(spans):
        own = (end - start) - covered[index]
        entry = per_name.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own
        per_instance[instance] = per_instance.get(instance, 0.0) + own
    return per_name, per_instance
