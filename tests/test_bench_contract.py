"""The benchmark's traced run patches package names; they must all exist."""

import importlib
import json
import os

from flockdde import cli, dynamics
from flockdde.config import preset_dict

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
    finally:
        tracer.uninstall()
    names = {name for _, name, *_ in tracer.collect()}
    assert {"cli.main", "cli.execute_run", "state.discretize",
            "diagnostics.prehistory_frames", "dynamics.integrate",
            "dynamics.step", "threshold1d.classify"} <= names
    assert (cli.main, cli.integrate, cli.discretize, dynamics.step) == originals
