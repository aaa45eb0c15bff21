"""Span tracing from outside lipfree.

``Tracer.install`` replaces public lipfree functions with timing wrappers in
every namespace the library looks them up from (for example both
``lipfree.io.validate_metric`` and ``lipfree.validate_metric``), so calls
nested inside other traced calls become child spans.  ``uninstall`` puts
the originals back.  Spans are kept in memory; ``layer_metrics`` turns them
into busy times (outermost spans of a layer only), self times (span minus
its direct children) and the counts recorded at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

def _points(args, kwargs, result):
    return {"points": len(args[0])}


def _nodes(args, kwargs, result):
    phi = args[0]
    return {"nodes": len(phi.support) + (phi.total() != 0)}


def _pairs(args, kwargs, result):
    return {"pair_nodes": len(args[0].deduplicated()), "violations": int(not result.monotone)}


def _check_name(result):
    return "monotonicity.check_monotone" if result.monotone else "monotonicity.check_violating"


#: (span name or a function of the result, namespace, attribute, counter).
#: A dotted namespace whose last part is capitalised is a class.
TARGETS: List[Tuple[object, str, str, Optional[Callable]]] = [
    ("metric.validate_metric", "lipfree", "validate_metric", _points),
    ("metric.validate_metric", "lipfree.io", "validate_metric", _points),
    ("metric.lipschitz_build", "lipfree.metric.LipschitzPotential", "build", None),
    ("transport.optimal_coupling", "lipfree", "optimal_coupling", _nodes),
    ("transport.optimal_coupling", "lipfree.transport", "optimal_coupling", _nodes),
    ("transport.optimal_coupling", "lipfree.cli", "optimal_coupling", _nodes),
    ("transport.certificate", "lipfree", "evaluate", None),
    ("transport.certificate", "lipfree", "functional_of", None),
    ("transport.certificate", "lipfree", "norming_functions_check", None),
    ("weighting.adjoint", "lipfree", "pi_window", None),
    ("weighting.adjoint", "lipfree", "weighted_adjoint", None),
    ("weighting.adjoint", "lipfree.weighting", "daleth", None),
    (_check_name, "lipfree", "check_cyclically_monotone", _pairs),
    (_check_name, "lipfree.monotonicity", "check_cyclically_monotone", _pairs),
    (_check_name, "lipfree.cli", "check_cyclically_monotone", _pairs),
    ("monotonicity.extremal", "lipfree", "build_extremal_potential", None),
    ("monotonicity.verify", "lipfree", "verify_extremal", None),
    ("monotonicity.verify", "lipfree", "cycle_slack", None),
    ("embedding.frechet", "lipfree.cli", "frechet_embedding", None),
    ("embedding.search", "lipfree.cli", "best_embedding_search", None),
    ("exotic.generate", "lipfree.cli", "exotic_metric", None),
    ("exotic.generate", "lipfree.exotic.ExoticMetric", "as_space", None),
    ("exotic.gamma", "lipfree.cli", "gamma_pairs", None),
    ("io.load", "lipfree.io", "load_space", None),
    ("io.load", "lipfree.io", "load_functional", None),
    ("io.load", "lipfree.io", "load_pair_set", None),
    ("io.dump", "lipfree.io", "dumps", None),
    ("io.dump", "lipfree.io", "space_csv", None),
    ("cli.main", "lipfree.cli", "main", None),
]


def _owner(namespace: str):
    """The loaded module or class named by ``namespace``, or None."""
    parts = namespace.split(".")
    if parts[-1][:1].isupper():
        module = sys.modules.get(".".join(parts[:-1]))
        return None if module is None else getattr(module, parts[-1])
    return sys.modules.get(namespace)


@dataclass
class Span:
    name: str
    query: int
    parent: int
    start: float
    end: float
    counts: Dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self.query = -1

    def _open(self, name: str) -> Span:
        stack = self._stack
        span = Span(name, self.query, stack[-1] if stack else -1, 0.0, 0.0)
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around benchmark code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            span = self._open(name if isinstance(name, str) else "error")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if not isinstance(name, str):
                span.name = name(result)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, namespace, attr, counter in TARGETS:
            owner = _owner(namespace)
            if owner is None:
                continue
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, counter))
            else:
                wrapped = self._wrap(name, raw, counter)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Busy time, self time, call count and summed counts per span name.

    ``<name>.busy_s`` sums the spans of that name that have no ancestor of
    the same name, so nested calls within one layer count once;
    ``<name>.self_s`` sums span time minus the time of direct children.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: Dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for i, s in enumerate(spans):
        dur = s.end - s.start
        add(f"{s.name}.self_s", dur - child_time[i])
        add(f"{s.name}.calls", 1)
        for k, v in s.counts.items():
            add(f"{s.name}.{k}", v)
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            add(f"{s.name}.busy_s", dur)
    return out
