"""Layer spans recorded from outside the library.

The tracer rebinds the module attributes through which the library's layers
call each other (for example ``qineq.verify.eval_confluent_f`` or
``qineq.bounds.pochhammer_infinite``) to thin wrappers that record one span
per call: name, start, end, parent span and operation id.  Callers look these
names up at call time, so the wrappers see every call made while they are
bound; ``uninstall`` puts the original objects back.  No library file
changes.

Spans stay in memory until the run ends.  A layer's self time is its span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict
from pathlib import Path

# (layer name, modules whose attribute is rebound, attribute, work counter).
# A work counter names the result field summed per layer: factors multiplied
# for q-shifted factorials, terms summed for the series evaluators.
BINDINGS = (
    ("qcore.pochhammer_infinite", ("qcore", "bounds", "verify"), "pochhammer_infinite", "factors_used"),
    ("qcore.multishifted", ("qcore", "bounds"), "multishifted", None),
    ("series.eval_confluent_f", ("series", "verify", "cli"), "eval_confluent_f", "terms_used"),
    ("series.eval_phi", ("series", "verify", "cli"), "eval_phi", "terms_used"),
    ("series.eval_theta", ("series", "verify", "cli"), "eval_theta", "terms_used"),
    ("series.eval_laurent", ("series", "verify", "cli"), "eval_laurent", "terms_used"),
    ("bounds.constant_c", ("bounds",), "constant_c", None),
    ("bounds.envelope_entire", ("bounds",), "envelope_entire", None),
    ("bounds.envelope_phi", ("bounds",), "envelope_phi", None),
    ("bounds.envelope_aq_gaussian", ("bounds",), "envelope_aq_gaussian", None),
    ("bounds.envelope_theta", ("bounds",), "envelope_theta", None),
    ("bounds.theta_weighted_constant", ("bounds",), "theta_weighted_constant", None),
    ("bounds.term_peak", ("bounds",), "term_peak", None),
    ("verify.audit_target", ("verify",), "audit_target", None),
    ("verify.audit_envelope", ("verify", "cli"), "audit_envelope", None),
    ("verify.identity_euler", ("verify",), "identity_euler", None),
    ("verify.identity_qbinomial_theorem", ("verify",), "identity_qbinomial_theorem", None),
    ("verify.identity_ql_sum", ("verify",), "identity_ql_sum", None),
    ("verify.identity_theta_triple_product", ("verify",), "identity_theta_triple_product", None),
    ("cli.run", ("cli",), "run", None),
)


def bound_attributes(modules: dict) -> dict:
    """The objects currently bound at every rebinding point, keyed (module, attribute)."""
    return {
        (mod, attr): getattr(modules[mod], attr)
        for _, mods, attr, _ in BINDINGS
        for mod in mods
    }


class Tracer:
    """Span recorder; ``install`` binds the wrappers, ``uninstall`` restores."""

    def __init__(self, modules: dict, error_type: type[BaseException]):
        self.modules = modules
        self.error_type = error_type
        self.spans: list = []
        self.op = -1
        self.work: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name: str, fn, counter: str | None):
        spans, stack, work, errors = self.spans, self._stack, self.work, self.errors
        error_type = self.error_type
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op)
            if counter is not None:
                work[name] += getattr(result, counter)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, mods, attr, counter in BINDINGS:
            original = getattr(self.modules[mods[0]], attr)
            wrapper = self._wrap(name, original, counter)
            for mod in mods:
                module = self.modules[mod]
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def op_span(self, op: int, name: str):
        """Context manager for the root span of one benchmark operation."""
        return _OpSpan(self, op, name)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total and self nanoseconds, work and error counts."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = stats.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[index]
        for name, entry in stats.items():
            entry["work"] = self.work.get(name, 0)
            entry["errors"] = self.errors.get(name, 0)
        return stats

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii", newline="\n") as handle:
            handle.write("span,name,start_ns,end_ns,parent,op\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{index},{name},{start},{end},{parent},{op}\n")


class _OpSpan:
    def __init__(self, tracer: Tracer, op: int, name: str):
        self.tracer = tracer
        self.op = op
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        tracer.op = self.op
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        tracer._stack.append(self.index)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans[self.index] = (self.name, self.start, end, -1, self.op)
        return False
