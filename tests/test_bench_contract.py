"""The benchmark's traced run patches package names; they must all exist."""

import csv
import importlib
import json
import os

import pytest

from flockdde import cli, dynamics
from flockdde.config import preset_dict, run_config_from_dict
from flockdde.state import discretize

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def test_tracer_installs_runs_and_uninstalls(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    spans = importlib.import_module("spans")
    originals = (cli.main, cli.integrate, cli.discretize, dynamics.step)
    tracer = spans.Tracer(tmp_path)
    tracer.install()  # raises AttributeError if a patched name is missing
    try:
        doc = preset_dict("unconditional-beta025")
        doc["datum"]["domain"]["counts"] = [4]
        doc["t_end"] = 0.01
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
        # a run never reaches these two; the tracer reads t and N off their
        # arguments, so call them with the stepper's own forms
        run = run_config_from_dict(doc)
        buf = discretize(run.datum, run.tau, run.step)
        delayed = buf.query(-0.05)
        dynamics.alignment_rhs(buf.latest, delayed, run.kernel)
    finally:
        tracer.uninstall()
    spans = tracer.collect()
    names = {name for _, name, *_ in spans}
    assert {"cli.main", "cli.execute_run", "state.discretize",
            "diagnostics.prehistory_frames", "dynamics.integrate",
            "dynamics.step", "threshold1d.classify"} <= names
    values = {(name, value) for _, name, _, _, _, value in spans}
    assert ("state.HistoryBuffer.query", -0.05) in values
    assert ("dynamics.alignment_rhs", 4) in values
    # one monitor span per dynamics frame (the t = 0 frame has none), in
    # frame order, each carrying its frame's t
    with open(tmp_path / "out" / "frames.csv", newline="") as f:
        rows = csv.DictReader(line for line in f if not line.startswith("#"))
        frame_ts = [float(row["t"]) for row in rows]
    observed = [value for _, name, _, _, _, value in spans
                if name == "diagnostics.FlockingMonitor.observe"]
    assert len(frame_ts) > 1 and frame_ts[0] == 0.0
    assert observed == frame_ts[1:]
    assert (cli.main, cli.integrate, cli.discretize, dynamics.step) == originals


@pytest.mark.parametrize("workers", [1, 2])
def test_tracer_sees_each_sweep_cell_and_one_set_up_per_task(tmp_path, monkeypatch, workers):
    # four cells of one set-up key: one task in-process, two in two workers
    monkeypatch.syspath_prepend(BENCH)
    spans = importlib.import_module("spans")
    doc = preset_dict("unconditional-beta025")
    doc["datum"]["domain"]["counts"] = [4]
    doc["t_end"] = 0.01
    sweep = {"schema_version": 1, "base": doc, "max_workers": workers,
             "axes": [{"path": "kernel.beta", "values": [0.0, 0.25, 0.75, 2.0]}]}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep))
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    tracer = spans.Tracer(trace_dir)
    tracer.install()
    cells = []
    run_cell = tracer.run_cell
    tracer.run_cell = lambda payload: cells.append(payload[0]) or run_cell(payload)
    try:
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        tags = sorted(p.name.rsplit("-", 1)[1] for p in trace_dir.glob("spans-*.json"))
    finally:
        tracer.uninstall()
    names = [name for _, name, *_ in tracer.collect()]
    assert names.count("cli.sweep.cell") == 4
    assert names.count("state.discretize") == workers
    if workers == 1:
        assert cells == [0, 1, 2, 3]  # in-process, each cell passes through the tracer
    else:
        # each worker writes its spans under the index the tracer reads first
        assert tags == [f"cell{i:04d}.json" for i in range(4)]
