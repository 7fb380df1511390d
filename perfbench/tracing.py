"""Layer tracing from outside the package.

:class:`Tracer` wraps the public entry points of each layer (``linop``,
``krylov``, ``smallfun``, ``integrators``, ``problems``) while it is
installed, records one span per wrapped call and puts every original back
on exit.  Nothing under ``src/`` is modified.

A span is ``(parent, cell, key, start, end, count)``: ``parent`` indexes
the enclosing span (-1 at top level), ``cell`` is the solver slot of the
cell being run (None during set-up), so all spans of one cell share it, and
``count`` is a per-call quantity (sample times for residual curves).  A
span's self time is its duration minus the durations of its direct
children.
"""
from __future__ import annotations

import functools
import time
import weakref
from collections import defaultdict

import numpy as np

import trigkrylov
from trigkrylov import integrators, krylov, linop, problems, smallfun

_MODULES = (trigkrylov, linop, smallfun, krylov, integrators, problems)

#: (span key, owner, attribute).  Module functions are rebound in every
#: package module (and in ``integrators.SOLVERS``) that refers to them.
_TARGETS = [
    ("linop.apply", linop.LinearOperator, "apply"),
    ("krylov.step", krylov.KrylovProcess, "step"),
    ("krylov.snapshot", krylov.KrylovProcess, "snapshot"),
    ("krylov.basis", krylov.KrylovDecomposition, "V_m"),
    ("krylov.basis", krylov.KrylovDecomposition, "V"),
    ("krylov.curve", krylov.ResidualCurve, "values"),
    ("krylov.curve", krylov.CombinedResidualCurve, "values"),
    ("krylov.search", krylov, "coarse_residual_check"),
    ("krylov.search", krylov, "confirm_admissible"),
    ("krylov.search", krylov, "find_largest_admissible_step"),
    ("smallfun.factor", smallfun.SpectralCache, "from_tridiagonal"),
    ("smallfun.factor", smallfun.SpectralCache, "from_dense"),
    ("smallfun.corner", smallfun.SpectralCache, "corner_fun_e1"),
    ("smallfun.fun_e1", smallfun.SpectralCache, "fun_e1"),
    ("integrators.control", integrators, "solve"),
    *[("integrators.control", integrators, fn.__name__)
      for fn in integrators.SOLVERS.values()],
    ("problems.build", problems, "build_wave3d"),
    ("problems.build", problems, "build_transport"),
    ("problems.reference", problems, "spectral_reference_wave3d"),
    ("problems.reference", problems, "reference_solution"),
]

#: Keys whose self time is reported per cell, in print order.
SOLVE_KEYS = (
    "linop.apply", "krylov.step", "krylov.snapshot", "krylov.basis",
    "krylov.curve", "krylov.search", "smallfun.factor", "smallfun.corner",
    "smallfun.fun_e1", "integrators.control",
)


def _curve_samples(args):
    return int(np.size(args[1]))


class Tracer:
    """Context manager that installs the layer wrappers for its lifetime."""

    def __init__(self):
        self.spans: list = []
        self.cell: str | None = None
        #: Matvecs spent by Krylov processes that restart from a vector an
        #: earlier process of the same cell already started from.
        self.rebuild_matvecs: dict[str | None, int] = defaultdict(int)
        self._stack: list[int] = []
        self._starts: dict = defaultdict(set)
        self._rebuilds = weakref.WeakSet()
        self._undo: list = []

    # -- spans ---------------------------------------------------------
    def _wrap(self, key, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (parent, self.cell, key, t0, t1,
                              count(args) if count else 0)

        return traced

    # -- rebuild detection ---------------------------------------------
    def _wrap_process_init(self, init):
        @functools.wraps(init)
        def traced_init(proc, op, w, *args, **kwargs):
            init(proc, op, w, *args, **kwargs)
            w = np.asarray(w, dtype=float)
            fingerprint = (op.dim, proc.beta, w[:8].tobytes(), w[-8:].tobytes())
            seen = self._starts[self.cell]
            if fingerprint in seen:
                self._rebuilds.add(proc)
            seen.add(fingerprint)

        return traced_init

    def _wrap_process_step(self, step):
        @functools.wraps(step)
        def counted_step(proc):
            before = proc.op.matvec_count
            step(proc)
            if proc in self._rebuilds:
                self.rebuild_matvecs[self.cell] += proc.op.matvec_count - before

        return counted_step

    # -- install / remove ----------------------------------------------
    def _set_class_attr(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_function(self, original, wrapped):
        for mod in _MODULES:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapped)
        for name, value in list(integrators.SOLVERS.items()):
            if value is original:
                self._undo.append((integrators.SOLVERS, name, original))
                integrators.SOLVERS[name] = wrapped

    def __enter__(self):
        proc_cls = krylov.KrylovProcess
        self._set_class_attr(proc_cls, "__init__",
                             self._wrap_process_init(proc_cls.__init__))
        self._set_class_attr(proc_cls, "step",
                             self._wrap_process_step(proc_cls.step))
        for key, owner, attr in _TARGETS:
            # samples are counted per branch, not again for their sum
            count = _curve_samples if owner is krylov.ResidualCurve else None
            if not isinstance(owner, type):
                original = getattr(owner, attr)
                self._rebind_function(original, self._wrap(key, original, count))
                continue
            original = owner.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(self._wrap(key, original.fget), doc=original.__doc__)
            elif isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(key, original.__func__))
            else:
                wrapped = self._wrap(key, original, count)
            self._set_class_attr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        # ``step`` is wrapped twice, so compare with the first original
        originals = {}
        for owner, name, original in self._undo:
            originals.setdefault((id(owner), name), (owner, original))
        for (_, name), (owner, original) in originals.items():
            current = owner[name] if isinstance(owner, dict) else (
                owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name))
            if current is not original:
                raise RuntimeError(f"tracer left {name} wrapped on {owner!r}")
        self._undo.clear()
        return False

    # -- aggregation ---------------------------------------------------
    def summary(self):
        """Per (key, cell): self time, calls, counts, and the calls and
        inclusive time of outermost spans (those not nested in a span of
        the same key).

        A block first-order apply calls the inner apply, and that nested
        call is the same matvec, so only outermost ``linop.apply`` spans
        count as matvecs.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for parent, _, _, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        outer_s = defaultdict(float)
        calls = defaultdict(int)
        outer_calls = defaultdict(int)
        counts = defaultdict(int)
        for sid, (parent, cell, key, t0, t1, count) in enumerate(spans):
            self_s[key, cell] += (t1 - t0) - child[sid]
            calls[key, cell] += 1
            counts[key, cell] += count
            if parent < 0 or spans[parent][2] != key:
                outer_s[key, cell] += t1 - t0
                outer_calls[key, cell] += 1
        return self_s, outer_s, calls, outer_calls, counts
