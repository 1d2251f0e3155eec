"""Correctness gate applied to every output the benchmark times.

An operation is one run or one sweep cell.  It fails when its exit status or
any frame status is wrong, when it breaks one of the paper's invariants at
the acceptance suite's tolerance, or when a repeat of the same config does
not reproduce its ``frames.csv`` byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# The acceptance suite's tolerances (criteria 01, 02 and 03).
MAX_PRINCIPLE_TOL = 1e-7    # max_speed <= R_V
DV_GAP_TOL = 1e-6           # d_V <= V on certified runs
LYAPUNOV_RISE_TOL = 1e-6    # Lyapunov functional nonincreasing
FLAT_RATE_TOL = 1e-6        # beta = 0: fitted d_V decay rate equals 1
FLAT_FINAL_REL_TOL = 1e-6   # beta = 0: d_V(t_end) = d_V(0) exp(-t_end)


class OpResult:
    """Outcome of one run or sweep cell."""

    def __init__(self, label):
        self.label = label
        self.problems = []
        self.digest = None
        self.steps = 0
        self.frames = 0
        self.prehistory_slices = 0
        self.margins = {}   # checked quantity -> its worst value

    @property
    def ok(self):
        return not self.problems


def _read_frames(path):
    with open(path, "rb") as f:
        raw = f.read()
    lines = raw.decode("utf-8").splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError("frames.csv lacks its schema comment line")
    rows = list(csv.DictReader(lines[1:]))
    if not rows:
        raise ValueError("frames.csv has no rows")
    return hashlib.sha256(raw).hexdigest(), rows


def check_run_dir(out_dir: Path, doc: dict, label: str,
                  expect_branch=None) -> OpResult:
    """Check one run's ``frames.csv`` and ``summary.json`` against ``doc``.

    ``expect_branch`` names the certificate branch the config was built to
    reach: ``"infinite"``, ``"satisfied"`` or ``"not-satisfied"``.
    """
    op = OpResult(label)
    h, tau, t_end = doc["step"], doc["tau"], doc["t_end"]
    op.prehistory_slices = int(round(tau / h)) + 1 if tau > 0 else 1
    try:
        op.digest, rows = _read_frames(out_dir / "frames.csv")
        with open(out_dir / "summary.json", encoding="utf-8") as f:
            summary = json.load(f)
    except (OSError, ValueError) as exc:
        op.problems.append(f"unreadable outputs: {exc}")
        return op
    op.frames = len(rows)
    col = {k: [float(r[k]) for r in rows]
           for k in ("t", "d_V", "max_speed", "lyapunov", "V")}
    op.steps = int(round(col["t"][-1] / h))

    bad_status = [r["t"] for r in rows if r["status"] != "ok"]
    if bad_status:
        op.problems.append(f"status not ok at t={bad_status[0]}")
    if abs(col["t"][-1] - t_end) > 1e-9 * max(1.0, t_end):
        op.problems.append(f"ended at t={col['t'][-1]}, not t_end={t_end}")

    r_v = summary["R_V"]
    excess = max(col["max_speed"]) - r_v
    op.margins["max_speed - R_V"] = excess
    if not excess <= MAX_PRINCIPLE_TOL:
        op.problems.append(f"max principle: max_speed - R_V = {excess:.3e}")

    cert = summary.get("certificate")
    if cert is not None and cert["satisfied"]:
        gap = max(dv - v for dv, v in zip(col["d_V"], col["V"]))
        op.margins["d_V - V"] = gap
        if not gap <= DV_GAP_TOL:
            op.problems.append(f"certified run: d_V - V = {gap:.3e}")
        lyap = col["lyapunov"]
        rise = max((b - a for a, b in zip(lyap, lyap[1:])), default=0.0)
        op.margins["Lyapunov rise"] = rise
        if not rise <= LYAPUNOV_RISE_TOL:
            op.problems.append(f"certified run: Lyapunov rise {rise:.3e}")
    if expect_branch is not None:
        if cert is None:
            got = "none"
        elif not cert["satisfied"]:
            got = "not-satisfied"
        else:
            got = "infinite" if cert["rhs"] == "inf" else "satisfied"
        if got != expect_branch:
            op.problems.append(f"certificate branch {got}, expected {expect_branch}")

    if doc["kernel"]["beta"] == 0.0 and t_end > 0:
        rate = summary.get("fitted_rate")
        if not isinstance(rate, float) or not abs(rate - 1.0) <= FLAT_RATE_TOL:
            op.problems.append(f"flat kernel: fitted_rate {rate!r}, expected 1")
        else:
            op.margins["|fitted_rate - 1|"] = abs(rate - 1.0)
        exact = col["d_V"][0] * math.exp(-col["t"][-1])
        rel = abs(col["d_V"][-1] - exact) / exact
        op.margins["flat d_V relative error"] = rel
        if not rel <= FLAT_FINAL_REL_TOL:
            op.problems.append(f"flat kernel: final d_V relative error {rel:.3e}")
    return op


def check_sweep_dir(out_dir: Path, cells: list, branches: list) -> list:
    """Check ``sweep_summary.csv`` and every cell directory."""
    try:
        with open(out_dir / "sweep_summary.csv", encoding="utf-8") as f:
            status = {int(r["cell"]): r["status"] for r in csv.DictReader(f)}
    except (OSError, ValueError, KeyError) as exc:
        status = {}
        summary_problem = f"unreadable sweep_summary.csv: {exc}"
    else:
        summary_problem = None
    ops = []
    for i, (doc, branch) in enumerate(zip(cells, branches)):
        op = check_run_dir(out_dir / f"cell_{i:04d}", doc, f"cell {i}", branch)
        if summary_problem:
            op.problems.append(summary_problem)
        elif status.get(i) != "ok":
            op.problems.append(f"sweep status {status.get(i)!r}")
        ops.append(op)
    return ops
