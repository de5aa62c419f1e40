"""Spans recorded from outside the program, around the calls into each layer.

Nothing under ``src/`` knows it is being traced.  While a :class:`Tracer`
is installed, the module attributes listed in :data:`SITES` are replaced by
wrappers that open a span, call the original function and close the span;
on exit every attribute is restored.  Because the wrapped names are the ones
the entry points (``lint_source``, ``compile_fortran``) look up, a traced
call runs exactly the code an untraced call runs, in the same order.

A span's *self time* is its duration minus the time its direct children
cover; a layer's time is the sum of its spans' self times.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

from repro.lint.audit import DEFAULT_EXHAUSTIVE_LIMIT

#: ``(module, attribute, layer)``: each call through ``module.attribute``
#: becomes a span of ``layer``.  ``lint_source`` imports the dependence
#: graph, vectorizer and schedule verifier lazily, so their package-level
#: names are wrapped as well as the driver's own bindings.
SITES: tuple[tuple[str, str, str], ...] = (
    ("repro.lint.engine", "parse_fortran", "frontend.parse"),
    ("repro.driver", "parse_fortran", "frontend.parse"),
    ("repro.lint.engine", "normalize_program", "analysis.normalize"),
    ("repro.driver", "normalize_program", "analysis.normalize"),
    ("repro.lint.engine", "substitute_induction_variables", "analysis.induction"),
    ("repro.driver", "substitute_induction_variables", "analysis.induction"),
    ("repro.driver", "alias_groups", "analysis.linearize"),
    ("repro.driver", "linearize_program", "analysis.linearize"),
    ("repro.driver", "linearize_common", "analysis.linearize"),
    ("repro.depgraph.builder", "ensure_calls_resolved", "analysis.interproc"),
    ("repro.lint.engine", "check_program", "lint.check"),
    ("repro.lint.engine", "run_dataflow_checks", "lint.check"),
    ("repro.lint.engine", "declared_bound_assumptions", "lint.ranges"),
    ("repro.lint.engine", "analyze_ranges", "lint.ranges"),
    ("repro.lint.engine", "derive_assumptions", "lint.ranges"),
    ("repro.lint.engine", "check_bounds", "lint.ranges"),
    ("repro.depgraph.builder", "derive_assumptions", "lint.ranges"),
    ("repro.depgraph.builder", "nonempty_loop_assumptions", "lint.ranges"),
    ("repro.depgraph", "analyze_dependences", "depgraph.pair_build"),
    ("repro.driver", "analyze_dependences", "depgraph.pair_build"),
    ("repro.depgraph", "control_diagnostics", "depgraph.pair_build"),
    ("repro.depgraph.builder", "rectangular_bounds", "depgraph.pair_build"),
    ("repro.depgraph.builder", "reference_pairs", "depgraph.pair_build"),
    ("repro.depgraph.builder", "evaluate_pair", "depgraph.pair_build"),
    ("repro.depgraph.builder", "build_pair_problem", "depgraph.pair_build"),
    ("repro.depgraph.builder", "cached_delinearize", "core.solve"),
    ("repro.depgraph.builder", "audit_result", "lint.audit"),
    ("repro.vectorizer", "vectorize", "vectorizer.vectorize"),
    ("repro.driver", "vectorize", "vectorizer.vectorize"),
    ("repro.lint.schedule", "verify_schedule", "lint.schedule"),
    ("repro.driver", "verify_schedule", "lint.schedule"),
    ("repro.driver", "emit_program", "vectorizer.emit"),
)

#: Every layer, in pipeline order; ``entry`` is the entry point's own code.
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in SITES)) + ("entry",)


class Tracer:
    """Nested spans plus the counters observed at layer boundaries.

    A span is ``[name, layer, start, end, parent index]``.  Counters:

    * ``solve_calls``, ``cache_hits`` and ``verdict.<value>`` from each
      :func:`cached_delinearize` call;
    * ``audit_enumerated``/``audit_box_points``/``audit_skipped_large``/
      ``audit_skipped_symbolic``: how the auditor's exhaustive checks treat
      each problem it is handed, classified the way
      :func:`repro.lint.audit.audit_result` decides (concrete, and an
      iteration box within :data:`DEFAULT_EXHAUSTIVE_LIMIT`);
    * ``audit_diagnostics``: every finding the auditor returned;
    * ``vector_stmts``: statements each :func:`vectorize` call vectorized.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.audit_diagnostics: list = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, layer, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, function, name: str, layer: str):
        def traced(*args, **kwargs):
            with self.span(name, layer):
                if name == "cached_delinearize":
                    return self._solve(function, args, kwargs)
                result = function(*args, **kwargs)
            if name == "audit_result":
                self._audit(args[0], result)
            elif name == "vectorize":
                self.counts["vector_stmts"] += len(
                    result.vectorized_statements()
                )
            return result

        traced.__wrapped__ = function
        return traced

    def _solve(self, function, args, kwargs):
        cache = kwargs.get("cache")
        hits = cache.stats.hits if cache is not None else 0
        result = function(*args, **kwargs)
        self.counts["solve_calls"] += 1
        self.counts[f"verdict.{result.verdict.value}"] += 1
        if cache is not None and cache.stats.hits > hits:
            self.counts["cache_hits"] += 1
        return result

    def _audit(self, problem, diagnostics) -> None:
        self.audit_diagnostics.extend(diagnostics)
        if not problem.is_concrete():
            self.counts["audit_skipped_symbolic"] += 1
            return
        points = problem.iteration_count()
        if points > DEFAULT_EXHAUSTIVE_LIMIT:
            self.counts["audit_skipped_large"] += 1
        else:
            self.counts["audit_enumerated"] += 1
            self.counts["audit_box_points"] += points

    @contextmanager
    def installed(self):
        """Wrap every site in :data:`SITES` for the duration of the block."""
        saved = []
        try:
            for module_name, attribute, layer in SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute)
                saved.append((module, attribute, original))
                setattr(
                    module, attribute, self._wrap(original, attribute, layer)
                )
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)

    def layer_seconds(self) -> dict[str, float]:
        """Self time per layer, summed over every recorded span."""
        children = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for (name, layer, start, end, parent), covered in zip(
            self.spans, children
        ):
            totals[layer] += end - start - covered
        return totals

    def export(self) -> list[dict]:
        return [
            {
                "name": name,
                "layer": layer,
                "start": start,
                "end": end,
                "parent": parent,
            }
            for name, layer, start, end, parent in self.spans
        ]


@contextmanager
def captured(module_name: str, attribute: str, sink: list):
    """Append each return value of ``module.attribute`` to ``sink``.

    The untraced reference calls use this to get at the dependence graph
    that ``lint_source`` builds but does not return.
    """
    module = importlib.import_module(module_name)
    original = getattr(module, attribute)

    def capture(*args, **kwargs):
        started = time.perf_counter()
        result = original(*args, **kwargs)
        sink.append((result, time.perf_counter() - started))
        return result

    setattr(module, attribute, capture)
    try:
        yield sink
    finally:
        setattr(module, attribute, original)
