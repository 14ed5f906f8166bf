"""In-memory span tracer that instruments ``dslab`` from the outside.

``install`` rebinds the public functions named in ``SPANS`` in every
``dslab.*`` module namespace that holds them, wraps the methods in
``METHOD_SPANS`` on their classes, and puts call counters (no spans) on the
hot methods in ``COUNTERS``.  Nothing under ``src/`` is edited; ``uninstall``
puts every original object back.

A span is ``(name, start, end, parent index, operation id)``.  The spans of
one operation are kept in memory and folded into per-name totals when the
operation ends, so memory stays bounded on workloads with millions of calls.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (layer, attribute): spanned wherever a dslab module binds the same object.
SPANS = (
    ("hclass", "restrict"),
    ("oig", "build_oig"),
    ("oig", "max_density_subfamily"),
    ("oig", "mu_with_witness"),
    ("oig", "min_max_orientation"),
    ("oig", "maximum_flow"),   # scipy, imported into dslab.oig
    ("oig", "csr_matrix"),     # scipy, imported into dslab.oig
    ("dims", "ds_dimension"),
    ("dims", "natarajan_dimension"),
    ("algebra", "audit_theorem"),
    ("algebra", "check_spanning"),
    ("algebra", "monomial_set"),
    ("algebra", "eval_matrix"),
    ("algebra", "rank_exact"),
    ("algebra", "rank_mod_p"),
    ("algebra", "rank_bareiss"),
    ("learn", "oig_list_predict"),
    ("agnostic", "build_list_cover"),
    ("agnostic", "mw_menu"),
    ("agnostic", "inside_menu_erm"),
    ("agnostic", "agnostic_pipeline"),
)

# (layer, class, method, span name)
METHOD_SPANS = (
    ("learn", "PrefixVotePredictor", "predict", "learn.PrefixVotePredictor.predict"),
    ("learn", "SyntheticDistribution", "list_error", "learn.list_error"),
)

# Hot methods called millions of times per operation: counters only, so the
# tracing overhead stays bounded.
COUNTERS = (
    ("agnostic", "CoverMember", "predict", "agnostic.CoverMember.predict"),
    ("agnostic", "Menu", "predict", "agnostic.Menu.predict"),
)

# (layer, attribute, counter name): counts the calls made from one module's
# namespace, on top of the span every caller gets.
NAMESPACE_COUNTERS = (
    ("learn", "min_max_orientation", "learn.min_max_orientation"),
)


class Tracer:
    """Collects spans for the current operation and per-name totals."""

    def __init__(self):
        self.op_id = -1
        self.spans: list = []
        self._stack: list[int] = []
        self.calls: dict[str, int] = {}       # spanned calls, folded per operation
        self._counters: dict[str, list[int]] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)

        return traced

    def counter(self, name: str, fn):
        """Count calls without a span.  Positional arguments only, as every
        call site in dslab passes them: a keyword-free wrapper costs half as
        much on the hottest methods."""
        cell = self._counters.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def counts(self) -> dict[str, int]:
        """Calls per name: spanned calls and counter-only calls together."""
        out = dict(self.calls)
        for name, cell in self._counters.items():
            out[name] = out.get(name, 0) + cell[0]
        return out

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_op(self) -> None:
        """Fold the finished operation's spans into per-name totals.

        Busy time is inclusive and counts only the outermost span of a name
        on any path; self time is a span's duration minus its children's.
        """
        if self._stack:
            raise RuntimeError("operation ended with open spans")
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent, _op) in enumerate(spans):
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child[idx]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                self.busy[name] = self.busy.get(name, 0.0) + dur
        spans.clear()

    # -- instrumentation -----------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Instrument every loaded ``dslab`` module; see the module docstring."""
        import dslab  # noqa: F401  (loads every submodule)

        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "dslab" or name.startswith("dslab."))}
        for layer, attr in SPANS:
            orig = getattr(mods["dslab." + layer], attr)
            wrapper = self.span(f"{layer}.{attr}", orig)
            for mod in mods.values():
                if mod.__dict__.get(attr) is orig:
                    self._rebind(mod, attr, wrapper)
        for layer, attr, name in NAMESPACE_COUNTERS:
            mod = mods["dslab." + layer]
            self._rebind(mod, attr, self.counter(name, mod.__dict__[attr]))
        for layer, cls_name, meth, name in METHOD_SPANS:
            cls = getattr(mods["dslab." + layer], cls_name)
            self._rebind(cls, meth, self.span(name, cls.__dict__[meth]))
        for layer, cls_name, meth, name in COUNTERS:
            cls = getattr(mods["dslab." + layer], cls_name)
            self._rebind(cls, meth, self.counter(name, cls.__dict__[meth]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
