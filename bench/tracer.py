"""Outside-in tracing of riccisym: spans and counts recorded by wrapping the
package's public functions from the benchmark's own code.

Python resolves a module's globals at call time, so replacing every binding
of a function object in the riccisym modules (module globals, and the
command table of the CLI) also catches calls made inside the package.
Spans are kept in memory and written out by the caller when the run ends.

Two very hot functions are not recorded span by span:

- ``eval_jet2`` is counted per calling module and timed in aggregate; its
  time counts as covered by a child when the enclosing span's self time is
  taken.  exprfn's own binding is left alone, so the recursion inside the
  evaluator is not counted.
- ``surface_eval`` is counted against the innermost open span.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

# (module, function, span name)
SPANS = (
    ("pipeline", "solve", "pipeline.solve"),
    ("rotsym", "definiteness_check", "rotsym.definiteness_check"),
    ("potential", "saddle_report", "potential.saddle_report"),
    ("potential", "seed_separatrix", "potential.seed_separatrix"),
    ("potential", "integrate_separatrix", "potential.integrate_separatrix"),
    ("potential", "check_global", "potential.check_global"),
    ("potential", "solve_n2", "potential.solve_n2"),
    ("reconstruct", "reconstruct_profile", "reconstruct.reconstruct_profile"),
    ("reconstruct", "verify_ricci", "reconstruct.verify_ricci"),
    ("cli", "_cmd_solve", "cli.solve"),
    ("cli", "_cmd_verify", "cli.verify"),
    ("cli", "write_csv", "cli.write_csv"),
)
JET_CALLERS = ("potential", "reconstruct", "rotsym", "cli")


class Span:
    __slots__ = ("id", "parent", "name", "op", "pass_no", "start", "end", "child", "surface_evals",
                 "samples", "bytes")

    def __init__(self, sid, parent, name, op, pass_no):
        self.id, self.parent, self.name, self.op, self.pass_no = sid, parent, name, op, pass_no
        self.start = self.end = self.child = 0.0
        self.surface_evals = self.samples = self.bytes = 0

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.id, "parent": self.parent.id if self.parent else None, "name": self.name,
                "op": self.op, "pass": self.pass_no, "start": self.start, "end": self.end,
                "surface_evals": self.surface_evals}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.jet_calls = dict.fromkeys(JET_CALLERS, 0)
        self.jet_time = 0.0
        self.jets_by_pass = {}
        self.op = None
        self.pass_no = None
        self._undo = []

    # -- recording ---------------------------------------------------------

    def begin(self, name, op=None):
        if op is not None:
            self.op = op
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), parent, name, self.op, self.pass_no)
        self.spans.append(span)
        self.stack.append(span)
        span.start = perf_counter()
        return span

    def end(self, span):
        span.end = perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child += span.duration

    def _span_wrapper(self, fn, name):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if name == "potential.integrate_separatrix":
                span.samples = len(result.t)
            elif name == "cli.write_csv":
                span.bytes = os.path.getsize(args[0])
            return result

        return traced

    def _jet_wrapper(self, fn, caller):
        calls, stack = self.jet_calls, self.stack

        def traced(e, t):
            t0 = perf_counter()
            result = fn(e, t)
            dt = perf_counter() - t0
            calls[caller] += 1
            self.jet_time += dt
            if stack:
                stack[-1].child += dt
            return result

        return traced

    def _surface_wrapper(self, fn):
        stack = self.stack

        def traced(*args):
            if stack:
                stack[-1].surface_evals += 1
            return fn(*args)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, pass_no):
        """Patch the package and start recording pass `pass_no`."""
        self.pass_no = pass_no
        self.jet_time = 0.0
        for caller in self.jet_calls:
            self.jet_calls[caller] = 0
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "riccisym" or name.startswith("riccisym.")}
        mod = lambda short: pkg["riccisym." + short]
        for short, func, name in SPANS:
            orig = getattr(mod(short), func)
            self._rebind(pkg.values(), orig, self._span_wrapper(orig, name))
        orig = mod("potential").surface_eval
        self._rebind(pkg.values(), orig, self._surface_wrapper(orig))
        for caller in JET_CALLERS:
            ns = vars(mod(caller))
            self._set(ns, "eval_jet2", self._jet_wrapper(ns["eval_jet2"], caller))

    def uninstall(self):
        """Restore every binding and keep the pass's eval_jet2 totals."""
        totals = {f"exprfn.eval_jet2.calls.{c}": n for c, n in self.jet_calls.items()}
        totals["exprfn.eval_jet2.busy_s"] = self.jet_time
        self.jets_by_pass[self.pass_no] = totals
        while self._undo:
            ns, key, value = self._undo.pop()
            ns[key] = value

    def _set(self, ns, key, value):
        self._undo.append((ns, key, ns[key]))
        ns[key] = value

    def _rebind(self, modules, orig, wrapper):
        for module in modules:
            ns = vars(module)
            for key, value in list(ns.items()):
                if value is orig:
                    self._set(ns, key, wrapper)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is orig:
                            self._set(value, k, wrapper)
