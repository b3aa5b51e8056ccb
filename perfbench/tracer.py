"""In-memory span recorder for the traced benchmark run.

The traced run replaces module attributes of `zerogap` with timing wrappers,
at the names the package's own modules look up when they call each other.
Patching a function where it is defined is not enough: `region_scan` binds
`ell`, `fejer` and `windowed_fejer` at import, and `certification` binds
`selberg_minorant` and `ell_grid`, so each binding is patched where it is
read.  Spans stay in memory and are summarised or written out when the run
ends; every wrapper is removed again when the `patched` block exits.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

CLOCK = time.perf_counter

# (module whose attribute is replaced, attribute, span name).  The span name
# is the layer that owns the function, whichever module the binding lives in.
PATCH_POINTS = (
    ("zerogap.certification", "certify_gap", "certification.certify_gap"),
    ("zerogap.certification", "min_ell_over_mu", "certification.min_ell_over_mu"),
    ("zerogap.certification", "selberg_minorant", "extremal.selberg_minorant"),
    ("zerogap.certification", "ell_grid", "explicit_formula.ell_grid"),
    ("zerogap.region_scan", "scan_region", "region_scan.scan_region"),
    ("zerogap.region_scan", "ell", "explicit_formula.ell"),
    ("zerogap.region_scan", "fejer", "extremal.fejer"),
    ("zerogap.region_scan", "windowed_fejer", "extremal.windowed_fejer"),
    ("zerogap.explicit_formula", "ell", "explicit_formula.ell"),
    ("zerogap.explicit_formula", "fourier_at", "extremal.fourier_at"),
    ("zerogap.explicit_formula", "digamma", "special_math.digamma"),
    ("zerogap.explicit_formula", "rhs", "explicit_formula.rhs"),
    ("zerogap.explicit_formula", "zero_sum", "explicit_formula.zero_sum"),
    ("zerogap.explicit_formula", "verify", "explicit_formula.verify"),
    ("zerogap.extremal", "selberg_minorant", "extremal.selberg_minorant"),
    ("zerogap.lfunctions", "c_coefficients", "lfunctions.c_coefficients"),
    ("zerogap.lfunctions", "load_lfunction", "lfunctions.load_lfunction"),
)

# attributes a caller reads back from the function object after a call;
# the wrapper must mirror them on every call, not once at wrap time
MIRRORED_ATTRIBUTES = {"explicit_formula.ell_grid": ("last_error_bound",)}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    items: int = 0  # work units handled by the call: mu values, psi points


def _kernel_kind(f) -> str:
    # TestFunction labels read "selberg[...]@delta", "fejer@delta", ...
    return str(getattr(f, "label", "")).split("[")[0].split("@")[0] or "unlabeled"


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


def _items(name: str, args, kwargs) -> int:
    if name == "special_math.digamma":
        return _size(args[0])
    if name == "explicit_formula.ell_grid":
        re_values = args[1] if len(args) > 1 else kwargs["re_values"]
        im_values = args[2] if len(args) > 2 else kwargs["im_values"]
        return len(re_values) * len(im_values)
    return 0


class Tracer:
    """Records one span per wrapped call; single caller, single thread."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op = -1
        self._wrappers = []
        for module_name, attr, span_name in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._wrappers.append((module, attr, original, self.wrap(span_name, original)))

    @contextlib.contextmanager
    def operation(self):
        """Root span "op" of one benchmark operation; its self time is the
        benchmark's own share."""
        self.op += 1
        with self._span("op", None, 0):
            yield

    @contextlib.contextmanager
    def _span(self, name: str, parent: Optional[int], items: int):
        span = Span(name, CLOCK(), 0.0, parent, self.op, items)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = CLOCK()

    def wrap(self, name: str, fn: Callable) -> Callable:
        mirrored = MIRRORED_ATTRIBUTES.get(name, ())
        per_kernel = name == "explicit_formula.ell"

        def wrapper(*args, **kwargs):
            try:
                if not self._stack:  # outside an operation, e.g. an output check
                    return fn(*args, **kwargs)
                span_name = name
                if per_kernel:  # ell(mu, f, ...)
                    span_name += "." + _kernel_kind(args[1] if len(args) > 1 else kwargs["f"])
                with self._span(span_name, self._stack[-1], _items(name, args, kwargs)):
                    return fn(*args, **kwargs)
            finally:
                for attr in mirrored:
                    setattr(wrapper, attr, getattr(fn, attr, None))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper in PATCH_POINTS; restore the originals on exit.

        The wrappers are built once, with the tracer, so a value that a
        wrapper copied when it was built would go stale across operations."""
        try:
            for module, attr, _, wrapper in self._wrappers:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original, _ in self._wrappers:
                setattr(module, attr, original)

    def summary(self, n_ops: int) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, items, total and self seconds per operation."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: Dict[str, Dict[str, float]] = {}
        for span, children in zip(self.spans, child_time):
            row = out.setdefault(span.name, {"calls": 0, "items": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["items"] += span.items
            row["s"] += span.end - span.start
            row["self_s"] += span.end - span.start - children
        for row in out.values():
            for key in row:
                row[key] /= n_ops
        return out

    def records(self) -> dict:
        """Every span, one row each, for the run's record file."""
        fields = ["name", "start", "end", "parent", "op", "items"]
        return {"fields": fields,
                "rows": [[getattr(s, f) for f in fields] for s in self.spans]}
