"""Span tracing around the calls into each dualitysim module, installed from outside the program.

A wrapper replaces a function in the namespace of its call site (for example
``dualitysim.cli.run_sweep`` or ``dualitysim.montecarlo.cell_rng``) and records
one span per call: name, start, end and the enclosing span.  Spans stay in
memory until the run ends.  A call site that a later version of the program
no longer has is reported as absent instead of failing the run; one it no
longer calls simply records zero calls.

The span stack is not thread-local: the benchmark never passes ``--workers``,
so every traced call runs on the main thread.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import time
from collections import defaultdict
from pathlib import Path

# (span name, namespace the call is made from, attribute).  The span name
# carries the module that defines the function, which is the layer it times.
CALL_SITES = (
    ("cli.config", "dualitysim.cli", "config_from_dict"),
    ("cli.run", "dualitysim.cli", "run"),
    ("montecarlo.run_sweep", "dualitysim.cli", "run_sweep"),
    ("montecarlo.run_dynamic_switch", "dualitysim.cli", "run_dynamic_switch"),
    ("estimators.duality_report", "dualitysim.cli", "duality_report"),
    ("montecarlo.cell_rng", "dualitysim.montecarlo", "cell_rng"),
    ("montecarlo.simulate_point", "dualitysim.montecarlo", "simulate_point"),
    ("montecarlo.click_probabilities", "dualitysim.montecarlo", "click_probabilities"),
    ("optics.raw_detection_probs", "dualitysim.montecarlo", "raw_detection_probs"),
)
# Every function of this module referenced from these namespaces is timed as
# an ``entropy.<name>`` span.
ENTROPY_MODULE = "dualitysim.entropy"
ENTROPY_CALLERS = ("dualitysim.cli", "dualitysim.estimators")


def _module(namespace: str):
    try:
        return importlib.import_module(namespace)
    except ImportError:
        return None


def _sites():
    """(span name, module, attribute) of every call site present in the program."""
    for name, namespace, attr in CALL_SITES:
        yield name, namespace, attr
    for namespace in ENTROPY_CALLERS:
        for attr, value in sorted(vars(_module(namespace) or object()).items()):
            if inspect.isfunction(value) and value.__module__ == ENTROPY_MODULE:
                yield f"entropy.{attr}", namespace, attr


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index or -1), in start order
        self.absent = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block, then restore the originals."""
        originals = []
        self.absent = []
        try:
            for name, namespace, attr in _sites():
                module = _module(namespace)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.absent.append(f"{namespace}.{attr}")
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def totals(self) -> dict:
        """name -> (calls, total ns, self ns); self time excludes the child spans."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for (name, start, end, _), children in zip(self.spans, child_ns):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - children
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start},{end}\n")
