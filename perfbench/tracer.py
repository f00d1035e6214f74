"""In-process tracer for the sqmzoo benchmark.

The tracer wraps the public functions of each sqmzoo module from the
outside; nothing under ``src/`` knows about it.  Every wrapped call is a
span with a name, a start and an end, and the span that was open when it
began is its parent.  A span's self time is its duration minus the time
covered by its child spans.

Calls are aggregated per span name as they finish (calls, inclusive
time, self time and a few computed counts), because one pass of the
``dag-16`` workload makes about 1.5 million ``Field.eval_jet`` calls and
keeping each of those as a record would cost more memory than the
program under test.  Spans opened by the benchmark itself (passes,
scenarios, set-up steps, checks) and relation-level ``is_zero`` calls
are few, so those are also kept as records in memory and written out by
:meth:`Tracer.write` when the run ends.

Three lookups need care:

* ``verify``, ``cli`` and ``zoo`` import ``compose`` and ``is_zero`` by
  name, so a function is replaced in every ``sqmzoo`` module namespace
  that binds it, not only in the module that defines it;
* ``Field.eval_jet`` is never overridden, so one class-level wrapper
  covers every field node;
* ``Expr.eval_jet`` is overridden in each subclass, so each override is
  wrapped and only the outermost call of a nested evaluation is a span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class _Stat:
    __slots__ = ("calls", "incl", "self_s", "computed", "flops", "bytes",
                 "mul_calls")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.computed = 0
        self.flops = 0
        self.bytes = 0
        self.mul_calls = 0


def product_pairs(space):
    """Number of multi-index pairs (a, b) with |a| + |b| <= order.

    This is the number of matrix products one jet multiplication makes,
    derived from the public ``midx`` and ``order`` of a ``JetSpace``.
    """
    per_grade = [0] * (space.order + 1)
    for alpha in space.midx:
        per_grade[sum(alpha)] += 1
    return sum(per_grade[g1] * per_grade[g2]
               for g1 in range(space.order + 1)
               for g2 in range(space.order + 1 - g1))


class Tracer:
    """Span aggregation plus a small record of coarse spans."""

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.records = []
        # stack of [child_time, record_index] for every open span
        self._stack = [[0.0, -1]]
        self._patches = []
        self._pairs = {}
        self._expr_depth = 0
        self._exp_depth = 0
        self._t0 = time.perf_counter()

    # -- spans -----------------------------------------------------------

    @contextmanager
    def span(self, name):
        """A kept span around a block of the benchmark's own code."""
        token = self._open(name)
        try:
            yield
        finally:
            self._close(token)

    def _open(self, name):
        idx = len(self.records)
        self.records.append([name, time.perf_counter() - self._t0, None,
                             self._parent_record()])
        self._stack.append([0.0, idx])
        return (name, time.perf_counter(), idx)

    def _close(self, token):
        name, t0, idx = token
        dt = time.perf_counter() - t0
        child, _ = self._stack.pop()
        self._stack[-1][0] += dt
        st = self.stats[name]
        st.calls += 1
        st.incl += dt
        st.self_s += dt - child
        self.records[idx][2] = time.perf_counter() - self._t0

    def _parent_record(self):
        for _child, idx in reversed(self._stack):
            if idx >= 0:
                return idx
        return -1

    def reset(self):
        self.stats.clear()

    def _wrap(self, name, fn, before=None, keep=False):
        """Span wrapper; ``before(stat, args, kwargs)`` adds computed counts."""
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            s = stats[name]
            if before is not None:
                before(s, args, kwargs)
            idx = -1
            if keep:
                idx = len(tracer.records)
                tracer.records.append([name, clock() - tracer._t0, None,
                                       tracer._parent_record()])
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                s.calls += 1
                s.incl += dt
                s.self_s += dt - frame[0]
                if idx >= 0:
                    tracer.records[idx][2] = clock() - tracer._t0

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, orig, new):
        """Rebind ``orig`` to ``new`` in every sqmzoo module namespace."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sqmzoo"
                                   or modname.startswith("sqmzoo.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, new)

    def install(self):
        from sqmzoo import diffop, expr, fields, geometry, jets

        # fields: DAG dispatch and scale tracking
        def count_miss(s, args, kwargs):
            node, ctx = args[0], args[1]
            order = args[2] if len(args) > 2 else kwargs.get("order", 0)
            if (id(node), order) not in ctx.cache:
                s.computed += 1

        self._set(fields.Field, "eval_jet",
                  self._wrap("fields.eval_jet", fields.Field.eval_jet,
                             before=count_miss))
        self._set(fields._Mag, "update",
                  self._wrap("fields.mag_update", fields._Mag.update))

        # jets: numeric kernels with computed work counts
        def mul_counts(s, args, _kwargs):
            space, a, b = args[0], args[1], args[2]
            pairs = self._pair_count(space)
            r, m, t = a.shape
            c = b.shape[1]
            s.flops += 8 * pairs * r * m * c
            s.bytes += 16 * t * (r * m + m * c + r * c)
            if self._exp_depth:
                self.stats["jets.matrix_exp"].mul_calls += 1

        def scal_mul_counts(s, args, _kwargs):
            space, a = args[0], args[2]
            pairs = self._pair_count(space)
            r, c, t = a.shape
            s.flops += 8 * pairs * r * c
            s.bytes += 16 * t * (1 + 2 * r * c)

        self._set(jets.JetSpace, "mul",
                  self._wrap("jets.mul", jets.JetSpace.mul, mul_counts))
        self._set(jets.JetSpace, "scal_mul",
                  self._wrap("jets.scal_mul", jets.JetSpace.scal_mul,
                             scal_mul_counts))
        for attr in ("matrix_inv", "extract"):
            self._set(jets.JetSpace, attr,
                      self._wrap(f"jets.{attr}", getattr(jets.JetSpace, attr)))
        exp_span = self._wrap("jets.matrix_exp", jets.JetSpace.matrix_exp)

        def matrix_exp(*args, **kwargs):
            self._exp_depth += 1
            try:
                return exp_span(*args, **kwargs)
            finally:
                self._exp_depth -= 1

        self._set(jets.JetSpace, "matrix_exp", matrix_exp)

        # diffop: relation build and the sampled zero test
        for attr in ("compose", "similarity"):
            orig = getattr(diffop, attr)
            self._replace_everywhere(orig, self._wrap(f"diffop.{attr}", orig))

        def count_points(s, args, _kwargs):
            op, spec = args[0], args[1]
            if not op.is_structurally_zero():
                self.stats["diffop.point_evals"].calls += spec.n_points

        self._replace_everywhere(
            diffop.is_zero,
            self._wrap("diffop.is_zero", diffop.is_zero, count_points,
                       keep=True))

        # expr: DSL leaves, outermost call only
        def outermost(orig, span):
            def eval_jet(*args, **kwargs):
                if self._expr_depth:
                    return orig(*args, **kwargs)
                self._expr_depth += 1
                try:
                    return span(*args, **kwargs)
                finally:
                    self._expr_depth -= 1
            return eval_jet

        todo = [expr.Expr]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "eval_jet" in cls.__dict__ and cls is not expr.Expr:
                orig = cls.__dict__["eval_jet"]
                self._set(cls, "eval_jet", outermost(
                    orig, self._wrap("expr.eval_jet", orig)))

        # geometry: every public function, attributed to one span name
        for attr, val in list(vars(geometry).items()):
            if (callable(val) and not attr.startswith("_")
                    and getattr(val, "__module__", None) == geometry.__name__
                    and not isinstance(val, type)):
                self._replace_everywhere(val, self._wrap("geometry", val))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _pair_count(self, space):
        key = (space.nvars, space.order)
        pairs = self._pairs.get(key)
        if pairs is None:
            pairs = self._pairs[key] = product_pairs(space)
        return pairs

    # -- output ----------------------------------------------------------

    def snapshot(self):
        return {name: {k: getattr(st, k) for k in _Stat.__slots__}
                for name, st in self.stats.items()}

    def write(self, path, extra=None):
        doc = {"spans": [{"name": n, "start_s": a, "end_s": b, "parent": p}
                         for n, a, b, p in self.records],
               "totals": self.snapshot()}
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
