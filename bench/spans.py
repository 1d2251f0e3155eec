"""Outside-in span tracer for the benchmark's traced run.

``Tracer.install`` replaces the package's public callables with timing
wrappers at the names their callers look them up by (module globals and class
attributes), so nothing under ``src/`` changes; ``uninstall`` puts the
originals back.  A span records its id, name, start, end, parent span and an
optional argument.  Spans stay in memory; sweep workers (forked from the
traced process) write theirs to one file per cell when the cell ends, and the
parent merges them after the command returns.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

# The installed tracer.  Sweep workers reach it through the module, because
# the pool pickles ``traced_run_cell`` by reference.
_ACTIVE = None
_FORK_HOOK_REGISTERED = False


def _after_fork_in_child():
    tracer = _ACTIVE
    if tracer is not None:
        # keep the inherited stack: its top is the parent's open span
        tracer.pid = os.getpid()
        tracer.spans = []


def traced_run_cell(payload):
    """Stand-in for ``flockdde.cli._run_cell``: one span per sweep cell."""
    tracer = _ACTIVE
    row = tracer.run_cell(payload)
    if tracer.pid != tracer.root_pid:
        tracer.write_worker_spans(f"cell{payload[0]:04d}")
    return row


class Tracer:
    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.pid = self.root_pid = os.getpid()
        self.seq = 0
        self.stack = []
        self.spans = []
        self.run_cell = None
        self._patches = []

    def wrap(self, name, fn, arg=None):
        """Timing wrapper; ``arg(args)`` picks a value to keep on the span."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            tracer.seq += 1
            sid = (tracer.pid, tracer.seq)
            value = None if arg is None else arg(args)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, value))

        return traced

    def _patch(self, owner, attr, name, arg=None, replacement=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement or self.wrap(name, original, arg))

    def install(self):
        global _ACTIVE, _FORK_HOOK_REGISTERED
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        from flockdde import cli, diagnostics, dynamics
        from flockdde.diagnostics import FlockingMonitor
        from flockdde.kernel import CuckerSmaleKernel
        from flockdde.state import HistoryBuffer

        def n_of_buffer(args):
            return args[0].latest.positions.shape[0]

        def n_of_ensemble(args):
            return args[0].positions.shape[0]

        def time_arg(args):
            return args[1]

        self._patch(dynamics, "step", "dynamics.step", n_of_buffer)
        self._patch(dynamics, "alignment_rhs", "dynamics.alignment_rhs",
                    n_of_ensemble)
        self._patch(dynamics, "diameters", "diagnostics.diameters")
        self._patch(diagnostics, "diameters", "diagnostics.diameters")
        self._patch(HistoryBuffer, "query", "state.HistoryBuffer.query",
                    time_arg)
        self._patch(FlockingMonitor, "observe",
                    "diagnostics.FlockingMonitor.observe", time_arg)
        for method in ("eval", "eval_deriv", "tail_integral"):
            self._patch(CuckerSmaleKernel, method, f"kernel.{method}")
        for attr, name in (("discretize", "state.discretize"),
                           ("prehistory_frames", "diagnostics.prehistory_frames"),
                           ("certify_flocking", "diagnostics.certify_flocking"),
                           ("classify", "threshold1d.classify"),
                           ("integrate", "dynamics.integrate"),
                           ("execute_run", "cli.execute_run"),
                           ("_write_run_outputs", "cli.write_outputs"),
                           ("main", "cli.main")):
            self._patch(cli, attr, name)
        self.run_cell = self.wrap("cli.sweep.cell", cli._run_cell)
        self._patch(cli, "_run_cell", None, replacement=traced_run_cell)
        _ACTIVE = self
        if not _FORK_HOOK_REGISTERED:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOK_REGISTERED = True

    def uninstall(self):
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _ACTIVE = None

    def write_worker_spans(self, tag):
        path = self.trace_dir / f"spans-{self.pid}-{tag}.json"
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)
        self.spans = []

    def collect(self):
        """All spans since the last collect, the workers' included."""
        spans, self.spans = self.spans, []
        for path in sorted(self.trace_dir.glob("spans-*.json")):
            with open(path, encoding="utf-8") as f:
                for sid, name, start, end, parent, value in json.load(f):
                    spans.append((tuple(sid), name, start, end,
                                  None if parent is None else tuple(parent),
                                  value))
            path.unlink()
        return spans


def write_spans(spans, path):
    """Write spans as JSON records: id, name, start, end, parent, arg."""
    records = [{"id": f"{sid[0]}:{sid[1]}", "name": name, "start": start,
                "end": end,
                "parent": None if parent is None else f"{parent[0]}:{parent[1]}",
                "arg": value}
               for sid, name, start, end, parent, value in spans]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(records, f)


def self_times(spans):
    """Map span id to its duration minus the time its child spans cover.

    Children of one span may overlap when they ran in parallel workers, so
    the covered time is the length of the union of their intervals.
    """
    children = {}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out
