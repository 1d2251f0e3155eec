"""Command-line front end: run, certify, threshold, sweep, presets.

Outputs are deterministic: CSV floats use a 17-significant-digit round-trip
format with fixed column order, JSON is strict, with sorted keys, and files
are written atomically.  Exit codes: run 0 (completed) / 2 (blow-up) / 1
(config error, or the kernel normalizer underflowed); certify 0 (satisfied)
/ 3 (not satisfied) / 4 (unsupported kernel) / 1 (config error); threshold
0 (global existence) / 2 (blow-up) / 5 (indeterminate); sweep 0 when every
cell ran / 1 (config error).  An invalid datum counts as a config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    _integer,
    load_run_config,
    load_sweep_config,
    preset_dict,
    run_config_from_dict,
    PRESETS,
)
from .diagnostics import (
    NotReadyError,
    certify_flocking,
    fit_decay_rate,
    prehistory_frames,
)
from .dynamics import SingularNormalizerError, integrate
from .kernel import CuckerSmaleKernel, UnsupportedKernelError
from .state import InvalidDatumError, discretize
from .threshold1d import classify, detect_blowup

FRAMES_SCHEMA_COMMENT = "# flockdde frames schema v1"
FRAME_COLUMNS = ["t", "d_X", "d_V", "max_speed", "lyapunov", "X", "V",
                 "min_detJ", "max_velgrad_norm", "status"]
THREADS_ENV = "FLOCKDDE_THREADS"


def _fmt(x: float) -> str:
    return "%.17g" % x


def _atomic_write(path, text):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
    os.replace(tmp, path)


def write_frames_csv(frames, path) -> None:
    lines = [FRAMES_SCHEMA_COMMENT, ",".join(FRAME_COLUMNS)]
    for f in frames:
        lines.append(",".join([
            _fmt(f.t), _fmt(f.d_X), _fmt(f.d_V), _fmt(f.max_speed),
            _fmt(f.lyapunov), _fmt(f.X_of_t), _fmt(f.V_of_t),
            _fmt(f.min_detJ), _fmt(f.max_velgrad_norm), f.status,
        ]))
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


def _prepare(cfg: RunConfig):
    """The discretized datum of ``cfg`` and its prehistory frames."""
    buffer = discretize(cfg.datum, cfg.tau, cfg.step)
    return buffer, prehistory_frames(buffer)


def execute_run(cfg: RunConfig) -> dict:
    """Run one scenario and assemble its artifacts (result, summary, code)."""
    buffer, pre = _prepare(cfg)
    try:
        certificate = certify_flocking(pre, cfg.kernel)
    except UnsupportedKernelError:
        certificate = None

    start = buffer.latest  # a view of the t = 0 slot, which the run reuses
    w0 = start.vel_gradients[:, 0, 0] / start.jacobians[:, 0, 0] if start.dim == 1 else None
    result = integrate(buffer, cfg.kernel, t_end=cfg.t_end,
                       output_every=cfg.output_every, prehistory=pre)

    verdict = None
    if w0 is not None:
        try:
            verdict = classify(float(w0.min()), cfg.kernel, result.r_v)
        except UnsupportedKernelError:
            verdict = None

    blowup = detect_blowup(result.frames) or result.blowup

    try:
        rate = fit_decay_rate(result.frames, cfg.t_end / 4.0, cfg.t_end)
    except NotReadyError:
        rate = None

    final = result.frames[-1]
    summary = {
        "schema_version": 1,
        "config": cfg.raw,
        "R_V": float(result.r_v),
        "final": {
            "t": float(final.t), "d_X": float(final.d_X), "d_V": float(final.d_V),
            "max_speed": float(final.max_speed), "min_detJ": float(final.min_detJ),
        },
        "fitted_rate": rate,
        "certificate": certificate.to_dict() if certificate else None,
        "threshold": verdict.to_dict() if verdict else None,
        "blowup": None if blowup is None else {"time": float(blowup.time),
                                               "node": blowup.node},
    }
    return {
        "result": result,
        "summary": summary,
        "exit_code": 2 if result.blowup is not None else 0,
    }


def _write_run_outputs(cfg, artifacts, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    write_frames_csv(artifacts["result"].frames, os.path.join(out_dir, "frames.csv"))
    _atomic_write(os.path.join(out_dir, "summary.json"),
                  _json_text(artifacts["summary"]))
    if cfg.snapshot_csv:
        write_snapshot_csv(artifacts["result"].buffer.latest,
                           os.path.join(out_dir, "snapshot.csv"))


def _load_cfg(args) -> RunConfig:
    if getattr(args, "preset", None):
        return run_config_from_dict(preset_dict(args.preset))
    if getattr(args, "config", None):
        return load_run_config(args.config)
    raise ConfigError("need either --config PATH or --preset NAME")


def cmd_run(args) -> int:
    cfg = _load_cfg(args)
    try:
        artifacts = execute_run(cfg)
    except SingularNormalizerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_run_outputs(cfg, artifacts, args.out)
    print(f"wrote {os.path.join(args.out, 'frames.csv')} and summary.json")
    return artifacts["exit_code"]


def cmd_certify(args) -> int:
    cfg = _load_cfg(args)
    _, pre = _prepare(cfg)
    try:
        cert = certify_flocking(pre, cfg.kernel)
    except UnsupportedKernelError as exc:
        print(_json_text({"error": "unsupported-kernel", "detail": str(exc)}), end="")
        return 4
    print(_json_text(cert.to_dict()), end="")
    return 0 if cert.satisfied else 3


def cmd_threshold(args) -> int:
    try:
        kernel = CuckerSmaleKernel(args.beta)
        verdict = classify(args.w0_min, kernel, args.rv)
    except (ValueError, UnsupportedKernelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_json_text(verdict.to_dict()), end="")
    return {"global-existence": 0, "finite-time-blowup": 2,
            "indeterminate": 5}[verdict.verdict]


def _run_cell(payload):
    """Sweep worker: run one cell into its own directory (process-safe)."""
    index, coords, doc, out_dir = payload
    cell_dir = os.path.join(out_dir, f"cell_{index:04d}")
    row = {"cell": index, **{f"axis:{k}": v for k, v in coords.items()}}
    try:
        cfg = run_config_from_dict(doc)
        artifacts = execute_run(cfg)
        _write_run_outputs(cfg, artifacts, cell_dir)
        summary = artifacts["summary"]
        row["status"] = "blowup" if artifacts["exit_code"] == 2 else "ok"
        cert = summary["certificate"]
        row["satisfied"] = "" if cert is None else str(cert["satisfied"]).lower()
        rate = summary["fitted_rate"]
        row["fitted_rate"] = "" if rate is None else _fmt(rate)
        row["blowup_time"] = ("" if summary["blowup"] is None
                              else _fmt(summary["blowup"]["time"]))
        row["final_d_V"] = _fmt(summary["final"]["d_V"])
    except Exception as exc:  # per-cell failures are recorded, not fatal
        row["status"] = f"error: {exc}"
        row.setdefault("satisfied", "")
        row.setdefault("fitted_rate", "")
        row.setdefault("blowup_time", "")
        row.setdefault("final_d_V", "")
    return row


def cmd_sweep(args) -> int:
    sweep = load_sweep_config(args.config)
    workers = sweep.max_workers
    env_cap = os.environ.get(THREADS_ENV)
    if env_cap:
        workers = min(workers, max(1, _integer(env_cap, THREADS_ENV)))
    os.makedirs(args.out, exist_ok=True)
    cells = sweep.grid()
    payloads = [(i, coords, doc, args.out) for i, (coords, doc) in enumerate(cells)]
    workers = min(workers, len(payloads))
    if workers <= 1:
        rows = [_run_cell(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, payloads))
    rows.sort(key=lambda r: r["cell"])
    axis_cols = [f"axis:{p}" for p, _ in sweep.axes]
    cols = ["cell"] + axis_cols + ["status", "satisfied", "fitted_rate",
                                   "blowup_time", "final_d_V"]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows([str(row.get(c, "")) for c in cols] for row in rows)
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
