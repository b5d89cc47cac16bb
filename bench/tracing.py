"""Spans and counts around planeflow's layer boundaries, from outside the program.

``Tracer.install(pf)`` replaces module attributes (``planeflow.flow.drive_field``
and the like) with wrappers; ``uninstall()`` puts the originals back.  No
program file is edited.  A span records ``[name, start, end, parent, op]``;
spans stay in memory until the run ends.  Hot, fine-grained calls (compiled
expression evaluations, right-hand-side and quadrature-integrand
evaluations, Newton corrector calls) are counted rather than spanned, so
that tracing stays affordable.
"""

from __future__ import annotations

import time
from collections import Counter

# (attribute, span name, modules whose binding is replaced).  A function
# imported with ``from .flow import drive_field`` is bound in each importing
# module, and the program calls it through that binding.  point_on_level is
# spanned only where rubel_path calls it, whose self time excludes it; the
# transit quadrature calls it once per integrand evaluation, which the
# Simpson counts already give.
SPANNED = (
    ("integrate", "flow.integrate", ("flow", "escape")),
    ("classify", "flow.classify", ("flow", "escape")),
    ("blowup_time_estimate", "flow.blowup_time_estimate", ("flow", "escape")),
    ("transit_time", "level.transit_time", ("level",)),
    ("infinite_time_criterion", "level.infinite_time_criterion", ("level",)),
    ("point_on_level", "level.point_on_level", ("escape",)),
    ("eval_jet", "jets.eval_jet", ("jets", "escape")),
    ("escape_measure", "escape.escape_measure", ("escape",)),
    ("transverse_segment", "escape.transverse_segment", ("escape",)),
    ("_segment_point", "escape.segment_point", ("escape",)),
    ("rubel_path", "escape.rubel_path", ("escape",)),
    ("dumps_report", "reports.dumps_report", ("reports",)),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._saved = []
        self.missing = set()

    # -- span bookkeeping --------------------------------------------------

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapper

    # -- wrappers that also count -----------------------------------------

    def _compile_fn(self, fn):
        counts = self.counts

        def compile_fn(expr):
            compiled = fn(expr)

            def counted(z):
                counts["expr.evals"] += 1
                return compiled(z)

            return counted

        return compile_fn

    def _drive_field(self, fn):
        counts = self.counts

        def drive_field(rhs, *args, **kwargs):
            n = [0]

            def rhs_counted(z):
                n[0] += 1
                return rhs(z)

            rec = self._open("flow.drive_field")
            try:
                out = fn(rhs_counted, *args, **kwargs)
            finally:
                self._close(rec)
            counts["flow.rhs_evals"] += n[0]
            counts["flow.steps"] += len(out.samples) - 1
            return out

        return drive_field

    def _quadrature(self, name, fn):
        counts = self.counts

        def quad(integrand, *args, **kwargs):
            n = [0]

            def counted(x):
                n[0] += 1
                return integrand(x)

            rec = self._open(name)
            try:
                return fn(counted, *args, **kwargs)
            finally:
                self._close(rec)
                counts[name + ".evals"] += n[0]

        return quad

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _trace_level(self, fn):
        inner = self._spanned("level.trace_level", fn)
        counts = self.counts

        def trace_level(*args, **kwargs):
            curve = inner(*args, **kwargs)
            counts["level.points"] += len(curve)
            return curve

        return trace_level

    # -- install / uninstall ----------------------------------------------

    def install(self, pf):
        plan = [
            ("compile_fn", self._compile_fn, ("expr", "flow", "level", "escape")),
            ("drive_field", self._drive_field, ("flow", "level", "escape")),
            ("adaptive_gauss", lambda f: self._quadrature("quadrature.gauss", f), ("flow",)),
            ("adaptive_simpson", lambda f: self._quadrature("quadrature.simpson", f), ("level",)),
            ("_corrector", lambda f: self._counted("level.corrector_calls", f), ("level",)),
            ("trace_level", self._trace_level, ("level", "escape")),
        ]
        plan += [
            (attr, (lambda name: lambda f: self._spanned(name, f))(name), homes)
            for attr, name, homes in SPANNED
        ]
        for attr, make, homes in plan:
            mods = [getattr(pf, home) for home in homes]
            orig = getattr(mods[0], attr, None)
            replacement = make(orig) if orig is not None else None
            for mod in mods:
                # a binding the program no longer has is left out, and named
                # in ``missing`` so its layer's zero is not mistaken for a gain
                if orig is None or getattr(mod, attr, None) is not orig:
                    self.missing.add(f"{mod.__name__}.{attr}")
                    continue
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, replacement)

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    # -- reductions --------------------------------------------------------

    def totals(self, first=0):
        """Per span name from index ``first`` on: (calls, inclusive s, self s).

        Self time is a span's duration minus the time its child spans cover.
        """
        child = [0.0] * (len(self.spans) - first)
        for rec in self.spans[first:]:
            if rec[3] >= first:
                child[rec[3] - first] += rec[2] - rec[1]
        out = {}
        for i, rec in enumerate(self.spans[first:]):
            calls, total, own = out.get(rec[0], (0, 0.0, 0.0))
            dur = rec[2] - rec[1]
            out[rec[0]] = (calls + 1, total + dur, own + dur - child[i])
        return out
