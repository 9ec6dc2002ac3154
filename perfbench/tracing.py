"""Spans around the public functions of each liftforge layer.

The traced run wraps each function listed in ``LAYERS`` in every liftforge
module that binds it (``from .x import f`` makes a second binding), so calls
made inside the package are seen as well as calls made by the benchmark.
Spans stay in memory; the caller turns them into per-layer metrics and may
write them out when the run ends.  Untraced runs never install a wrapper.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional


def _ddt_rows(args, kwargs, result):
    from liftforge.diffunif import necklace_representatives

    n = args[1] if len(args) > 1 else kwargs["n"]
    restrict = args[3] if len(args) > 3 else kwargs.get("restrict_necklaces", True)
    rows = len(necklace_representatives(n)) - 1 if restrict else (1 << n) - 1
    return {"n": n, "rows": rows}


def _compose_entries(args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    f = args[1] if len(args) > 1 else kwargs["f"]
    return {"entries": 1 << (g.k + f.k - 1)}


# (module, function, attributes recorded from (args, kwargs, result))
LAYERS: list[tuple[str, str, Optional[Callable[..., dict]]]] = [
    ("diffunif", "ddt_max", _ddt_rows),
    ("exprlang", "eval_expr", None),
    ("corefn", "canonicalize", None),
    ("corefn", "degree", None),
    ("catalog", "verify_catalog", None),
    ("catalog", "closure_search", lambda a, k, res: {"compositions": res.compositions, "classes": res.discovered_classes}),
    ("catalog", "default_generators", None),
    ("landscape", "enumerate_conserved", lambda a, k, res: {"landscapes": res.count}),
    ("search6", "enumerate_periodic_assignments", lambda a, k, res: {"scanned": res.scanned, "survivors": len(res.survivors)}),
    ("search6", "complete_search", None),
    ("lifting", "decide_proper", lambda a, k, res: {"verdict": "proper" if res.proper else "not_proper"}),
    ("families", "verify_order_claim", None),
    ("lifting", "compose", _compose_entries),
]


@dataclass
class Span:
    name: str
    pass_id: str  # "setup" or "round": the spans of one pass share it
    parent: int  # index of the enclosing span, -1 at top level
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the span wrappers and keeps every span of the run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, attrs: Optional[Callable[..., dict]]) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, self.pass_id, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "liftforge" or n.startswith("liftforge.")]
        for mod_name, fn_name, attrs in LAYERS:
            orig = getattr(sys.modules[f"liftforge.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, attrs)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "pass": s.pass_id, "parent": s.parent, "start": s.start, "end": s.end, **s.attrs}
            for s in self.spans
        ]


def _pass_totals(spans: list[Span], pass_id: str) -> dict[str, float]:
    """Per-layer sums over the spans of one pass (set-up or one round)."""
    tot: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    ids = [i for i, s in enumerate(spans) if s.pass_id == pass_id]
    for i in ids:
        if spans[i].parent >= 0:
            child_time[spans[i].parent] += spans[i].duration

    def add(key: str, v: float) -> None:
        tot[key] = tot.get(key, 0.0) + v

    for i in ids:
        s = spans[i]
        d = s.duration
        add(f"{s.name}.s", d)
        add(f"{s.name}.self_s", d - child_time[i])
        add(f"{s.name}.calls", 1)
        for key, v in s.attrs.items():
            if isinstance(v, str):  # a category: time the span under it
                add(f"{s.name}.{v}.s", d)
            else:
                add(f"{s.name}.{key}", v)
        if s.name == "diffunif.ddt_max" and s.attrs["n"] == 12:
            add("diffunif.ddt_max.n12.s", d)
    return tot


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced pass (set-up plus one round).  Rates
    divide the pass's work count by the layer's busy time."""
    t = _pass_totals(tracer.spans, "setup")
    for key, v in _pass_totals(tracer.spans, "round").items():
        t[key] = t.get(key, 0.0) + v
    g = lambda k: t.get(k, 0.0)  # noqa: E731
    return {
        "diffunif.ddt_max.s": (g("diffunif.ddt_max.s"), "s"),
        "diffunif.ddt_max.n12.s": (g("diffunif.ddt_max.n12.s"), "s"),
        "diffunif.ddt_max.rows_per_s": (_rate(g("diffunif.ddt_max.rows"), g("diffunif.ddt_max.s")), "1/s"),
        "exprlang.eval_expr.s": (g("exprlang.eval_expr.s"), "s"),
        "corefn.canonicalize.s": (g("corefn.canonicalize.s"), "s"),
        "corefn.degree.s": (g("corefn.degree.s"), "s"),
        "catalog.verify_catalog.self_s": (g("catalog.verify_catalog.self_s"), "s"),
        "catalog.closure_search.s": (g("catalog.closure_search.s"), "s"),
        "catalog.closure_search.compositions_per_s": (
            _rate(g("catalog.closure_search.compositions"), g("catalog.closure_search.s")),
            "1/s",
        ),
        "catalog.closure_search.compositions": (g("catalog.closure_search.compositions"), "count"),
        "catalog.closure_search.classes": (g("catalog.closure_search.classes"), "count"),
        "catalog.default_generators.s": (g("catalog.default_generators.s"), "s"),
        "landscape.enumerate_conserved.s": (g("landscape.enumerate_conserved.s"), "s"),
        "landscape.enumerate_conserved.landscapes_per_s": (
            _rate(g("landscape.enumerate_conserved.landscapes"), g("landscape.enumerate_conserved.s")),
            "1/s",
        ),
        "search6.enumerate_periodic_assignments.s": (g("search6.enumerate_periodic_assignments.s"), "s"),
        "search6.scanned_per_s": (
            _rate(g("search6.enumerate_periodic_assignments.scanned"), g("search6.enumerate_periodic_assignments.s")),
            "1/s",
        ),
        "search6.complete_search.self_s": (g("search6.complete_search.self_s"), "s"),
        "search6.survivors_per_s": (
            _rate(g("search6.enumerate_periodic_assignments.survivors"), g("search6.complete_search.self_s")),
            "1/s",
        ),
        "search6.survivors": (g("search6.enumerate_periodic_assignments.survivors"), "count"),
        "lifting.decide_proper.s": (g("lifting.decide_proper.s"), "s"),
        "lifting.decide_proper.proper.s": (g("lifting.decide_proper.proper.s"), "s"),
        "lifting.decide_proper.not_proper.s": (g("lifting.decide_proper.not_proper.s"), "s"),
        "lifting.decide_proper.rules_per_s": (
            _rate(g("lifting.decide_proper.calls"), g("lifting.decide_proper.s")),
            "1/s",
        ),
        "families.verify_order_claim.s": (g("families.verify_order_claim.s"), "s"),
        "lifting.compose.s": (g("lifting.compose.s"), "s"),
        "lifting.compose.entries_per_s": (_rate(g("lifting.compose.entries"), g("lifting.compose.s")), "1/s"),
    }
