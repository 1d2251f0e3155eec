"""flockdde benchmark: one workload, timed (--trace 0) or traced (--trace 1).

    python3 bench/run_bench.py --workload long-run-1d --seed 1 --seconds 35 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
runner writes a seeded config, drives ``flockdde.cli.main(["run"|"sweep",
"--config", ...])`` in-process, checks every output it times (see
``checks.py``) and prints one metric per line, an ``env`` line and, last, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Outputs go to ``.bench_work/<workload>/`` and are left there for inspection.

--trace 0 reports the end-to-end metrics: the untraced command is repeated,
each repeat paired with the same command at ``t_end = 0`` (set-up), and the
medians are reported.  --trace 1 alternates untraced and traced commands and
reports the per-layer metrics of the traced ones (see ``spans.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3          # timed commands per --trace 0 run, even past --seconds
MIN_TRACED_REPS = 2   # traced commands per --trace 1 run
P99_MIN_SAMPLES = 1000
SETUP_SECONDS_PER_REP = 1.0   # set-up time to spend beside each timed command
MAX_SETUPS_PER_REP = 20


def load_cli():
    """Import ``flockdde.cli`` from this checkout's ``src/`` and nowhere else."""
    pkg = ROOT / "src" / "flockdde"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no flockdde package at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import flockdde
    from flockdde import cli
    if Path(flockdde.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported flockdde from {flockdde.__file__}")
    return cli


def _blas_threads():
    """Thread count of the BLAS that numpy loaded, or None if unreadable."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return {"library": os.path.basename(path), "threads": fn()}
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "FLOCKDDE_THREADS": os.environ.get("FLOCKDDE_THREADS"),
    }


def _ratio(num, den):
    """num / den, or 0 where a failed command left nothing to divide by."""
    return num / den if den > 0 else 0.0


class Bench:
    def __init__(self, cli, workload, seed, work):
        self.cli = cli
        self.workload = workload
        self.command = workloads.COMMANDS[workload]
        self.work = work
        self.docs = {setup: workloads.make_config(workload, seed, setup)
                     for setup in (False, True)}
        self.ops = []
        self._reference = {}

    def execute(self, setup_only, tag):
        """Run the command once; return its wall time and checked operations."""
        doc = self.docs[setup_only]
        cfg = self.work / f"{tag}.json"
        cfg.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        out = self.work / tag
        shutil.rmtree(out, ignore_errors=True)
        argv = [self.command, "--config", str(cfg), "--out", str(out)]
        code = error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception:  # a crash fails the operations, not the benchmark
            error = traceback.format_exc()
        wall = time.perf_counter() - start
        if error is not None:
            print(error, file=sys.stderr)

        docs = workloads.run_docs(self.workload, doc)
        branches = workloads.expected_branches(self.workload, docs)
        if self.command == "run":
            ops = [checks.check_run_dir(out, doc, "run", branches[0])]
        else:
            ops = checks.check_sweep_dir(out, docs, branches)
        reference = self._reference.setdefault(setup_only,
                                               [op.digest for op in ops])
        for op, digest in zip(ops, reference):
            if error is not None:
                op.problems.insert(0, "command raised "
                                   + error.strip().splitlines()[-1])
            elif code != 0:
                op.problems.insert(0, f"exit code {code}, expected 0")
            if op.digest != digest:
                op.problems.append("frames.csv differs from the first repeat")
            for problem in op.problems:
                print(f"FAILED {tag} {op.label}: {problem}", file=sys.stderr)
        self.ops.extend(ops)
        return wall, ops

    def timed(self, seconds):
        warmup = self.execute(True, "warmup")[0]
        # short set-ups are repeated so that their median is steady too
        n_setups = min(MAX_SETUPS_PER_REP,
                       max(1, math.ceil(SETUP_SECONDS_PER_REP / warmup)))
        setups, walls = [], []
        deadline = time.perf_counter() + seconds
        while True:
            began = time.perf_counter()
            for _ in range(n_setups):
                setups.append(self.execute(True, "setup")[0])
            wall, ops = self.execute(False, "full")
            walls.append(wall)
            pair = time.perf_counter() - began
            if len(walls) >= MIN_REPS and time.perf_counter() + pair > deadline:
                break
        wall_s = statistics.median(walls)
        setup_s = statistics.median(setups)
        steps = sum(op.steps for op in ops)
        usage = [resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        print(f"{steps} RK4 steps per command")
        print("wall_s samples: " + " ".join(f"{w:.4f}" for w in walls))
        print("setup_s samples: " + " ".join(f"{w:.4f}" for w in setups))
        return {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "steps_per_s": (_ratio(steps, wall_s - setup_s), "1/s"),
            "peak_rss_mb": (max(usage) / 1024.0, "MB"),
        }

    def traced(self, seconds):
        self.execute(True, "warmup")
        trace_dir = self.work / "trace"
        trace_dir.mkdir()
        untraced, traced, layers = [], [], []
        deadline = time.perf_counter() + seconds
        while True:
            began = time.perf_counter()
            untraced.append(self.execute(False, "full")[0])
            tracer = spans.Tracer(trace_dir)
            tracer.install()
            try:
                wall, ops = self.execute(False, "traced")
            finally:
                tracer.uninstall()
            span_list = tracer.collect()
            traced.append(wall)
            layers.append(self.layer_metrics(span_list, ops))
            pair = time.perf_counter() - began
            if (len(traced) >= MIN_TRACED_REPS
                    and time.perf_counter() + pair > deadline):
                break
        spans.write_spans(span_list, self.work / "spans.json")
        self.print_self_times(span_list)
        metrics = {}
        for name, (_, unit) in layers[0].items():
            values = [m[name][0] for m in layers]
            if unit == "count" and len(set(values)) > 1:
                print(f"note: {name} differs between traced repeats: {values}")
            metrics[name] = (statistics.median_low(values), unit)
        base = statistics.median(untraced)
        metrics["trace.overhead_frac"] = (
            (statistics.median(traced) - base) / base, "fraction")
        print(f"samples: {len(traced)} traced and {len(untraced)} untraced commands")
        return metrics

    def layer_metrics(self, span_list, ops):
        by_name = defaultdict(list)
        for span in span_list:
            by_name[span[1]].append(span)
        self_s = spans.self_times(span_list)

        def durations(name):
            return [end - start for _, _, start, end, _, _ in by_name[name]]

        def total(name):
            return sum(durations(name))

        def self_total(name):
            return sum(self_s[span[0]] for span in by_name[name])

        def calls(name):
            return len(by_name[name])

        def p50_p99_ms(name):
            ds = sorted(durations(name))
            if not ds:
                return 0.0, 0.0
            p50 = statistics.median(ds)
            # with fewer samples the 99th percentile is not resolved: report
            # the maximum instead
            p99 = (ds[math.ceil(0.99 * len(ds)) - 1]
                   if len(ds) >= P99_MIN_SAMPLES else ds[-1])
            return p50 * 1e3, p99 * 1e3

        step_pairs = sum(4 * n * n for *_, n in by_name["dynamics.step"])
        fill_pairs = sum(n * n for *_, n in by_name["dynamics.alignment_rhs"])
        step_p50, step_p99 = p50_p99_ms("dynamics.step")
        observe = "diagnostics.FlockingMonitor.observe"
        obs_p50, obs_p99 = p50_p99_ms(observe)
        queries = by_name["state.HistoryBuffer.query"]
        distinct = defaultdict(set)
        for _, _, _, _, parent, t in queries:
            distinct[parent].add(t)
        useful_slices = sum(op.prehistory_slices + op.frames for op in ops)
        if self.command == "sweep":
            cell_s = total("cli.sweep.cell")
            workers = len({sid[0] for sid, *_ in by_name["cli.sweep.cell"]})
        else:  # a run is its own single cell
            cell_s = total("cli.execute_run") + total("cli.write_outputs")
            workers = 1
        return {
            "dynamics.step.calls": (calls("dynamics.step"), "count"),
            "dynamics.step.self_s": (self_total("dynamics.step"), "s"),
            "dynamics.step.p50_ms": (step_p50, "ms"),
            "dynamics.step.p99_ms": (step_p99, "ms"),
            "dynamics.force.pairs": (step_pairs + fill_pairs, "count"),
            "dynamics.step.pairs_per_s": (
                _ratio(step_pairs, total("dynamics.step")), "1/s"),
            "dynamics.integrate.self_s": (self_total("dynamics.integrate"), "s"),
            "kernel.eval.calls": (calls("kernel.eval"), "count"),
            "kernel.eval.s": (total("kernel.eval"), "s"),
            "kernel.eval_deriv.calls": (calls("kernel.eval_deriv"), "count"),
            "kernel.eval_deriv.s": (total("kernel.eval_deriv"), "s"),
            "kernel.tail_integral.s": (total("kernel.tail_integral"), "s"),
            f"{observe}.calls": (calls(observe), "count"),
            f"{observe}.self_s": (self_total(observe), "s"),
            f"{observe}.p50_ms": (obs_p50, "ms"),
            f"{observe}.p99_ms": (obs_p99, "ms"),
            f"{observe}.growth": (self.observe_growth(by_name[observe]), "ratio"),
            "diagnostics.diameters.calls": (calls("diagnostics.diameters"), "count"),
            "diagnostics.diameters.s": (total("diagnostics.diameters"), "s"),
            "diagnostics.diameters.useful_frac": (
                _ratio(useful_slices, calls("diagnostics.diameters")),
                "fraction"),
            "diagnostics.prehistory_frames.s": (
                total("diagnostics.prehistory_frames"), "s"),
            "diagnostics.certify_flocking.s": (
                total("diagnostics.certify_flocking"), "s"),
            "state.discretize.s": (total("state.discretize"), "s"),
            "state.HistoryBuffer.query.calls": (len(queries), "count"),
            "state.HistoryBuffer.query.s": (
                total("state.HistoryBuffer.query"), "s"),
            "state.HistoryBuffer.query.useful_frac": (
                _ratio(sum(len(ts) for ts in distinct.values()), len(queries)),
                "fraction"),
            "threshold1d.classify.calls": (calls("threshold1d.classify"), "count"),
            "cli.write_outputs.s": (total("cli.write_outputs"), "s"),
            "cli.sweep.cell_s.sum": (cell_s, "s"),
            "cli.sweep.parallel_eff": (
                _ratio(cell_s, workers * total("cli.main")), "fraction"),
        }

    @staticmethod
    def observe_growth(observe_spans):
        """Mean observe time over the last tenth of frames / the first tenth.

        Taken per run or sweep cell, that is per calling ``integrate`` span,
        and reported as the median over them.
        """
        by_run = defaultdict(list)
        for _, _, start, end, parent, _ in observe_spans:
            by_run[parent].append((start, end - start))
        ratios = []
        for series in by_run.values():
            ds = [d for _, d in sorted(series)]
            k = max(1, len(ds) // 10)
            ratios.append(_ratio(statistics.fmean(ds[-k:]), statistics.fmean(ds[:k])))
        return statistics.median(ratios) if ratios else 0.0

    def print_self_times(self, span_list):
        self_s = spans.self_times(span_list)
        totals = defaultdict(float)
        for span in span_list:
            totals[span[1]] += self_s[span[0]]
        main = sum(end - start for _, name, start, end, _, _ in span_list
                   if name == "cli.main")
        print(f"self time by span, last traced command (cli.main {main:.3f} s;"
              " shares of it sum past 100% where sweep workers overlap):")
        for name, value in sorted(totals.items(), key=lambda kv: -kv[1]):
            print(f"  {name:40s} {value:10.4f} s  {value / main:7.1%}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time or trace one flockdde benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True,
                        help="draws the datum's phases and amplitudes")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep repeating the command")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced commands")
    args = parser.parse_args(argv)

    cli = load_cli()
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    bench = Bench(cli, args.workload, args.seed, work)
    metrics = (bench.traced(args.seconds) if args.trace
               else bench.timed(args.seconds))

    attempted = len(bench.ops)
    failed = sum(not op.ok for op in bench.ops)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} runs or sweep cells)")
    worst = {}
    for op in bench.ops:
        for name, value in op.margins.items():
            worst[name] = max(worst.get(name, -math.inf), value)
    print("worst checked values: " + ", ".join(
        f"{name} {value:.3g}" for name, value in sorted(worst.items())))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
