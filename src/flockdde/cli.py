"""Command-line front end: run, certify, threshold, sweep, presets.

Outputs are deterministic: CSV floats use a 17-significant-digit round-trip
format with fixed column order, JSON is strict, with sorted keys, and files
are written atomically.  Exit codes: run 0 (completed) / 2 (blow-up);
certify 0 (satisfied) / 3 (not satisfied); threshold 0 (global existence) /
2 (blow-up) / 5 (indeterminate); sweep 0 when every cell ran / 1 when a cell
failed.  Any other failure exits 1 with one line from ``main``, never a
traceback: ``config error: <msg>`` for a config or an invalid datum, and
``error: <msg>`` for anything else.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import operator
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    load_run_config,
    load_sweep_config,
    preset_dict,
    run_config_from_dict,
    PRESETS,
)
from .diagnostics import DiagnosticsFrame, certify_flocking, fit_decay_rate, prehistory_frames
from .dynamics import integrate
from .kernel import CuckerSmaleKernel
from .state import InvalidDatumError, discretize
from .threshold1d import classify

FRAMES_SCHEMA_COMMENT = "# flockdde frames schema v1"
FRAME_COLUMNS = [f.name for f in fields(DiagnosticsFrame)]
# a frames.csv row: each float field in _fmt's round-trip digits, the status as it is
_FRAME_ROW = ",".join("%s" if f.type == "str" else "%.17g" for f in fields(DiagnosticsFrame))
_frame_values = operator.attrgetter(*FRAME_COLUMNS)
THREADS_ENV = "FLOCKDDE_THREADS"


@dataclass(frozen=True)
class SweepRow:
    """The columns of a ``sweep_summary.csv`` row after ``cell`` and the axes,
    as written; a failed cell has its ``error: <msg>`` status and no other."""
    status: str
    satisfied: str = ""
    fitted_rate: str = ""
    blowup_time: str = ""
    final_d_V: str = ""


def _fmt(x: float) -> str:
    return "%.17g" % x


def _atomic_write(path, text):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
    os.replace(tmp, path)


def write_frames_csv(frames, path) -> None:
    lines = [FRAMES_SCHEMA_COMMENT, ",".join(FRAME_COLUMNS)]
    lines += [_FRAME_ROW % _frame_values(f) for f in frames]
    _atomic_write(path, "\n".join(lines) + "\n")


def write_snapshot_csv(ensemble, path) -> None:
    """Write one ensemble as CSV: t, node_id, label..., pos..., vel..., mass, detJ."""
    cols = ["t", "node_id", *(f"{name}_{a}" for name in ("label", "pos", "vel")
                              for a in range(ensemble.dim)), "mass", "detJ"]
    values = np.column_stack([ensemble.labels, ensemble.positions, ensemble.velocities,
                              ensemble.masses, ensemble.det_jacobians()])
    lines = ["# flockdde snapshot schema v1", ",".join(cols)]
    lines += [",".join([_fmt(ensemble.time), str(i), *map(_fmt, row)])
              for i, row in enumerate(values)]
    _atomic_write(path, "\n".join(lines) + "\n")


def _json_safe(obj):
    """``obj`` with each non-finite float as the string "inf", "-inf" or "nan"."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj if not isinstance(obj, float) or math.isfinite(obj) else str(obj)


def _json_text(obj) -> str:
    """RFC 8259 JSON: no bare Infinity or NaN token."""
    return json.dumps(_json_safe(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _message(exc: Exception) -> str:
    """The text of a failure: its message, or its type where it has none."""
    return str(exc) or type(exc).__name__


def _prepare(cfg: RunConfig):
    """The discretized datum of ``cfg`` and its prehistory frames."""
    buffer = discretize(cfg.datum, cfg.tau, cfg.step)
    return buffer, prehistory_frames(buffer)


def execute_run(cfg: RunConfig, prepared=None):
    """The one pipeline from a config to a run: returns ``(result, summary)``.

    Discretizes the datum, takes its prehistory frames once, certifies
    flocking from them and integrates from t = 0 with them; ``result`` is
    ``integrate``'s ``SimulationResult`` (``result.blowup`` is the run's
    outcome) and ``summary`` the mapping written to ``summary.json``.
    ``prepared``, a ``_prepare`` pair of a config with the same datum, tau,
    step and seed, stands in for the first two steps: the run steps its
    buffer and reads its frames, so a caller that reuses the pair passes a
    ``HistoryBuffer.copy`` of the buffer, which shares the stored arrays.
    """
    buffer, pre = _prepare(cfg) if prepared is None else prepared
    certificate = certify_flocking(pre, cfg.kernel)

    start = buffer.latest  # the t = 0 slot, whose arrays no step writes
    w0 = start.vel_gradients[:, 0, 0] / start.jacobians[:, 0, 0] if start.dim == 1 else None
    result = integrate(buffer, cfg.kernel, t_end=cfg.t_end,
                       output_every=cfg.output_every, prehistory=pre)
    final = result.frames[-1]
    summary = {
        "schema_version": 1,
        "config": cfg.raw,
        "R_V": float(result.r_v),
        "final": {k: getattr(final, k) for k in ("t", "d_X", "d_V", "max_speed", "min_detJ")},
        "fitted_rate": fit_decay_rate(result.frames, cfg.t_end / 4.0, cfg.t_end),
        "certificate": asdict(certificate),
        "threshold": (None if w0 is None else
                      asdict(classify(float(w0.min()), cfg.kernel, result.r_v))),
        "blowup": None if result.blowup is None else result.blowup._asdict(),
    }
    return result, summary


def _write_run_outputs(cfg, result, summary, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    write_frames_csv(result.frames, os.path.join(out_dir, "frames.csv"))
    _atomic_write(os.path.join(out_dir, "summary.json"), _json_text(summary))
    if cfg.snapshot_csv:
        write_snapshot_csv(result.buffer.latest, os.path.join(out_dir, "snapshot.csv"))


def _run_into(cfg, out_dir, prepared=None):
    """Run ``cfg`` and write its outputs to ``out_dir``: the step that a
    standalone run and a sweep cell share, so the two write the same bytes."""
    result, summary = execute_run(cfg, prepared)
    _write_run_outputs(cfg, result, summary, out_dir)
    return result, summary


def _load_cfg(args) -> RunConfig:
    if bool(args.preset) == bool(args.config):
        raise ConfigError("need exactly one of --config PATH and --preset NAME")
    if args.preset:
        return run_config_from_dict(preset_dict(args.preset))
    return load_run_config(args.config)


def _check_out_dir(path):
    """Make ``path`` with its missing parents, then remove each one made: an
    unwritable or empty ``--out`` fails before the run, and a failed run
    leaves no directory (the outputs make them again)."""
    if not path:  # abspath('') is the current directory, but makedirs('') fails
        raise ValueError("--out must name a directory, not ''")
    missing, path = [], os.path.abspath(path)
    while not os.path.isdir(path):
        missing.append(path)
        path = os.path.dirname(path)
    if missing:
        os.makedirs(missing[0])
        for made in missing:  # deepest first
            os.rmdir(made)


def cmd_run(args) -> int:
    cfg = _load_cfg(args)
    _check_out_dir(args.out)
    result, _ = _run_into(cfg, args.out)
    print(f"wrote {os.path.join(args.out, 'frames.csv')} and summary.json")
    return 0 if result.blowup is None else 2


def cmd_certify(args) -> int:
    cfg = _load_cfg(args)
    cert = certify_flocking(_prepare(cfg)[1], cfg.kernel)
    print(_json_text(asdict(cert)), end="")
    return 0 if cert.satisfied else 3


def cmd_threshold(args) -> int:
    verdict = classify(args.w0_min, CuckerSmaleKernel(args.beta), args.rv)
    print(_json_text(asdict(verdict)), end="")
    return {"global-existence": 0, "finite-time-blowup": 2,
            "indeterminate": 5}[verdict.verdict]


def _setup_key(cfg: RunConfig) -> str:
    """What ``_prepare`` reads of a run config: its datum, tau, step and seed
    (which draws a random phase), never its kernel."""
    doc = cfg.raw
    return json.dumps([doc["datum"], doc["tau"], doc["step"], doc.get("seed", 0)],
                      sort_keys=True)


def _tasks(keys, workers):
    """Split cells 0..len(keys) - 1 into tasks: each holds cells of one key,
    in cell order, and at most ceil(cells / workers) of them, so a sweep of
    one key still keeps every worker busy.  Tasks come in the order of their
    first cells."""
    size = -(-len(keys) // max(workers, 1))
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return sorted((cells[lo:lo + size] for cells in groups.values()
                   for lo in range(0, len(cells), size)), key=lambda task: task[0])


def _run_cell(payload):
    """Sweep worker: run one cell's built config into its own directory
    (process-safe).

    ``shared`` is its task's list of at most one ``_prepare`` pair: the first
    cell to succeed fills it and the others run on it; a failed set-up is not
    kept, so each cell that needs it meets the failure.  Each cell steps a
    ``HistoryBuffer.copy`` of the ring, which shares every stored array.
    """
    index, coords, cfg, out_dir, shared = payload
    cell_dir = os.path.join(out_dir, f"cell_{index:04d}")
    try:
        if not shared:
            shared.append(_prepare(cfg))
        buffer, pre = shared[0]
        result, summary = _run_into(cfg, cell_dir, (buffer.copy(), pre))
        rate, blowup = summary["fitted_rate"], summary["blowup"]
        record = SweepRow(status="ok" if blowup is None else "blowup",
                          satisfied=str(summary["certificate"]["satisfied"]).lower(),
                          fitted_rate="" if rate is None else _fmt(rate),
                          blowup_time="" if blowup is None else _fmt(blowup["time"]),
                          final_d_V=_fmt(summary["final"]["d_V"]))
    except Exception as exc:  # per-cell failures are recorded, not fatal
        record = SweepRow(f"error: {_message(exc)}")
    return {"cell": index, **{f"axis:{k}": json.dumps(_json_safe(v), sort_keys=True)
                              for k, v in coords.items()}, **asdict(record)}


def _run_task(payloads):
    """Sweep worker: run the cells of one task (see ``_tasks``), which share
    one set-up, each through ``_run_cell``."""
    shared = []
    return [_run_cell((*payload, shared)) for payload in payloads]


def cmd_sweep(args) -> int:
    sweep = load_sweep_config(args.config)
    _check_out_dir(args.out)
    workers = sweep.max_workers
    env_cap = os.environ.get(THREADS_ENV)
    if env_cap:  # an environment string: int() reads it, where a config's "2" is an error
        try:
            workers = min(workers, max(1, int(env_cap)))
        except ValueError:
            raise ConfigError(f"{THREADS_ENV}: expected an integer, got {env_cap!r}") from None
    os.makedirs(args.out, exist_ok=True)
    payloads = [(i, coords, cfg, args.out) for i, (coords, cfg) in enumerate(sweep.cells)]
    workers = min(workers, len(payloads))
    tasks = [[payloads[i] for i in task] for task in
             _tasks([_setup_key(cfg) for _, cfg in sweep.cells], workers)]
    if workers <= 1:
        done = [_run_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            done = list(pool.map(_run_task, tasks))
    rows = sorted((row for task_rows in done for row in task_rows), key=lambda r: r["cell"])
    cols = ["cell", *(f"axis:{p}" for p in sweep.axes), *(f.name for f in fields(SweepRow))]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows([str(row[c]) for c in cols] for row in rows)
    _atomic_write(os.path.join(args.out, "sweep_summary.csv"), text.getvalue())
    bad = [r for r in rows if r["status"] not in ("ok", "blowup")]
    for r in bad:
        print(f"cell {r['cell']}: {r['status']}", file=sys.stderr)
    print(f"wrote {os.path.join(args.out, 'sweep_summary.csv')} ({len(rows)} cells)")
    return 1 if bad else 0


def cmd_presets(args) -> int:
    if args.show:
        print(_json_text(preset_dict(args.show)), end="")
        return 0
    for name in sorted(PRESETS):
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flockdde",
        description="Delayed normalized-alignment hydrodynamics: simulate, "
                    "certify flocking, classify 1-d critical thresholds.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate a scenario and write frames/summary")
    run.add_argument("--config", help="path to a run config JSON")
    run.add_argument("--preset", help="name of a built-in preset")
    run.add_argument("--out", default="flockdde_out", help="output directory")
    run.set_defaults(func=cmd_run)

    cert = sub.add_parser("certify", help="evaluate the flocking certificate only")
    cert.add_argument("--config", help="path to a run config JSON")
    cert.add_argument("--preset", help="name of a built-in preset")
    cert.set_defaults(func=cmd_certify)

    thr = sub.add_parser("threshold", help="classify a 1-d initial slope")
    thr.add_argument("--w0-min", dest="w0_min", type=float, required=True,
                     help="minimal initial velocity slope")
    thr.add_argument("--beta", type=float, required=True,
                     help="kernel decay exponent")
    thr.add_argument("--rv", type=float, required=True,
                     help="prehistory speed bound R_V")
    thr.set_defaults(func=cmd_threshold)

    swp = sub.add_parser("sweep", help="run a parameter grid with a worker pool")
    swp.add_argument("--config", required=True, help="path to a sweep config JSON")
    swp.add_argument("--out", default="flockdde_sweep", help="output directory")
    swp.set_defaults(func=cmd_sweep)

    pre = sub.add_parser("presets", help="list presets or show one as JSON")
    pre.add_argument("--show", help="preset name to print")
    pre.set_defaults(func=cmd_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidDatumError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # any other failure is one line, never a traceback
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
