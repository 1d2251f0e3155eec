"""CLI subcommands: exit codes, deterministic outputs, sweep equivalence."""

import collections
import csv
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flockdde import cli
from flockdde.cli import _json_text, execute_run, main
from flockdde.config import (
    PRESETS,
    preset_dict,
    run_config_from_dict,
    sweep_config_from_dict,
)
from flockdde.diagnostics import _BLOCK_PAIRS
from flockdde.state import HistoryBuffer, discretize
from flockdde.threshold1d import classify


def run_cli(*argv):
    return main(list(argv))


def run_python(*args, **env_vars):
    """Run ``python *args`` on this checkout's ``src/``, with ``env_vars``
    added to the environment."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def run_entry_point(*argv, **env_vars):
    """Run ``python -m flockdde.cli`` on this checkout's ``src/``."""
    return run_python("-m", "flockdde.cli", *argv, **env_vars)


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


# two nodes 300 ahead of their delayed selves under beta 40: the normalizer
# is about 6e-199 and so is the certificate's psi_star
UNDERFLOW_DOC = {"schema_version": 1,
                 "kernel": {"family": "cucker-smale", "beta": 40},
                 "datum": {"domain": {"box": [[0.0, 1.0]], "counts": [2]},
                           "density": {"family": "uniform"},
                           "velocity": {"family": "constant", "value": [3000.0]}},
                 "tau": 0.1, "step": 0.01, "t_end": 0.1, "output_every": 0.01}


def strict_json(text):
    """Parse RFC 8259 JSON: a bare Infinity, -Infinity or NaN token raises."""
    def reject(token):
        raise ValueError(f"bare {token} is not JSON")

    return json.loads(text, parse_constant=reject)


def fast_doc(dim, tau):
    """A prehistory moving at 1e160 per axis: its squared speed overflows."""
    return {"schema_version": 1, "kernel": {"family": "cucker-smale", "beta": 1.0},
            "datum": {"domain": {"box": [[0.0, 1.0]] * dim, "counts": [2] * dim},
                      "density": {"family": "uniform"},
                      "velocity": {"family": "constant", "value": [1e160] * dim}},
            "tau": tau, "step": 0.01, "t_end": 0.05, "output_every": 0.01}


@pytest.fixture(scope="module")
def quick_run_doc():
    doc = preset_dict("unconditional-beta025")
    doc["t_end"] = 1.0
    doc["datum"]["domain"]["counts"] = [12]
    return doc


class TestRun:
    def test_flat_kernel_preset_summary(self, tmp_path):
        doc = preset_dict("flat-kernel-decay")
        doc["t_end"] = 2.0
        doc["step"] = 0.002
        doc["datum"]["domain"]["counts"] = [16]
        code = run_cli("run", "--config", write_json(tmp_path / "c.json", doc),
                       "--out", str(tmp_path / "out"))
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["fitted_rate"] == pytest.approx(1.0, abs=1e-3)
        assert summary["certificate"]["satisfied"] is True
        assert summary["blowup"] is None

    def test_riccati_preset_exits_2_with_blowup_time(self, tmp_path):
        doc = preset_dict("riccati-blowup")
        doc["datum"]["domain"]["counts"] = [16]
        code = run_cli("run", "--config", write_json(tmp_path / "c.json", doc),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["blowup"]["time"] == pytest.approx(math.log(2), abs=1e-2)
        assert summary["threshold"]["verdict"] == "finite-time-blowup"
        frames = (tmp_path / "out" / "frames.csv").read_text().splitlines()
        assert frames[-1].endswith("blowup")

    def test_unconditional_preset_certificate(self, tmp_path, quick_run_doc):
        code = run_cli("run", "--config",
                       write_json(tmp_path / "c.json", quick_run_doc),
                       "--out", str(tmp_path / "out"))
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["certificate"]["satisfied"] is True
        assert summary["certificate"]["rhs"] == "inf"

    def test_every_kernel_family_has_a_certificate_and_a_verdict(self, tmp_path,
                                                                quick_run_doc):
        # the Cucker-Smale note names C_psi = 2*beta, byte for byte as before;
        # a tabulated verdict names the table's bound instead
        notes = {}
        for family, kernel in (("cucker-smale", {"family": "cucker-smale", "beta": 0.25}),
                               ("tabulated", {"family": "tabulated", "radii": [0.0, 1.0],
                                              "values": [1.0, 0.5]})):
            doc = dict(quick_run_doc, kernel=kernel)
            out = tmp_path / family
            assert run_cli("run", "--config", write_json(tmp_path / f"{family}.json", doc),
                           "--out", str(out)) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["certificate"]["satisfied"] is True
            assert summary["certificate"]["rhs"] == "inf"
            notes[family] = summary["threshold"]["note"]
        assert notes["cucker-smale"].startswith("classification uses C_psi = 2*beta and roots")
        assert "2*beta" not in notes["tabulated"] and "tabulated" in notes["tabulated"]

    def test_normalizer_underflow_is_one_error_line(self, tmp_path):
        # nodes outrun their delayed selves by ~1e5 under beta 40, so every
        # kernel weight underflows in the first step
        doc = {"schema_version": 1,
               "kernel": {"family": "cucker-smale", "beta": 40},
               "datum": {"domain": {"box": [[0.0, 1.0]], "counts": [8]},
                         "density": {"family": "uniform"},
                         "velocity": {"family": "linear", "matrix": [[1e6]],
                                      "offset": [0.0]}},
               "tau": 0.1, "step": 0.01, "t_end": 0.1, "output_every": 0.01}
        proc = run_entry_point("run", "--config", write_json(tmp_path / "c.json", doc),
                               "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: kernel-weighted mass underflowed")
        assert len(proc.stderr.splitlines()) == 1

    def test_normalizer_past_the_square_root_of_the_float_range_runs(self, tmp_path):
        # the tangent flow's s0^2 underflowed to a false blow-up at t = 0, and
        # the Gronwall rate of psi_star ~ 6e-199 raised
        code = run_cli("run", "--config", write_json(tmp_path / "c.json", UNDERFLOW_DOC),
                       "--out", str(tmp_path / "out"))
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["blowup"] is None
        cert = summary["certificate"]
        assert cert["satisfied"] is True
        assert 0 < cert["predicted_rate"] < cert["psi_star"] < 1e-198

    def test_cubic_hermite_key_runs_and_is_echoed(self, tmp_path, quick_run_doc):
        assert quick_run_doc["interpolation"] == "cubic-hermite"
        doc = dict(quick_run_doc, t_end=0.1)
        code = run_cli("run", "--config", write_json(tmp_path / "c.json", doc),
                       "--out", str(tmp_path / "out"))
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["interpolation"] == "cubic-hermite"

    def test_default_history_slices_key_runs_and_is_echoed(self, tmp_path,
                                                           quick_run_doc):
        # the retired key is accepted at its default, one slice per step
        doc = dict(quick_run_doc, t_end=0.1)
        for out, extra in (("plain", {}), ("keyed", {"n_history_slices": 101})):
            code = run_cli("run", "--config",
                           write_json(tmp_path / f"{out}.json", dict(doc, **extra)),
                           "--out", str(tmp_path / out))
            assert code == 0
        summary = json.loads((tmp_path / "keyed" / "summary.json").read_text())
        assert summary["config"]["n_history_slices"] == 101
        assert (tmp_path / "keyed" / "frames.csv").read_bytes() == \
            (tmp_path / "plain" / "frames.csv").read_bytes()

    def test_default_detj_tolerance_key_runs_byte_identical(self, tmp_path):
        # the retired key is accepted at the one blow-up tolerance, 1e-6
        doc = dict(preset_dict("riccati-blowup"), t_end=1.0)
        doc["datum"]["domain"]["counts"] = [16]
        for out, extra in (("plain", {}), ("keyed", {"detj_tolerance": 1e-6})):
            code = run_cli("run", "--config",
                           write_json(tmp_path / f"{out}.json", dict(doc, **extra)),
                           "--out", str(tmp_path / out))
            assert code == 2
        summary = json.loads((tmp_path / "keyed" / "summary.json").read_text())
        assert summary["config"]["detj_tolerance"] == 1e-6
        del summary["config"]["detj_tolerance"]
        assert summary == json.loads((tmp_path / "plain" / "summary.json").read_text())
        assert (tmp_path / "keyed" / "frames.csv").read_bytes() == \
            (tmp_path / "plain" / "frames.csv").read_bytes()

    def test_threshold_verdict_reads_the_initial_slopes(self):
        # the run reuses the t = 0 slot after m + 3 steps; the verdict must
        # still come from the slopes at t = 0
        doc = dict(preset_dict("riccati-blowup"), t_end=0.2)
        cfg = run_config_from_dict(doc)
        start = discretize(cfg.datum, cfg.tau, cfg.step).latest
        w0_min = float((start.vel_gradients[:, 0, 0] / start.jacobians[:, 0, 0]).min())
        _, summary = execute_run(cfg)
        assert summary["threshold"] == classify(w0_min, cfg.kernel, summary["R_V"]).to_dict()
        assert summary["threshold"]["bound"] == pytest.approx(1.0, abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path, quick_run_doc):
        cfg = write_json(tmp_path / "c.json", quick_run_doc)
        run_cli("run", "--config", cfg, "--out", str(tmp_path / "a"))
        run_cli("run", "--config", cfg, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "frames.csv").read_bytes() == \
            (tmp_path / "b" / "frames.csv").read_bytes()
        assert (tmp_path / "a" / "summary.json").read_bytes() == \
            (tmp_path / "b" / "summary.json").read_bytes()

    def test_snapshot_export(self, tmp_path, quick_run_doc):
        doc = dict(quick_run_doc, snapshot_csv=True)
        run_cli("run", "--config", write_json(tmp_path / "c.json", doc),
                "--out", str(tmp_path / "out"))
        lines = (tmp_path / "out" / "snapshot.csv").read_text().splitlines()
        assert len(lines) == 2 + 12

    def test_run_outputs_are_written_atomically(self, tmp_path, quick_run_doc,
                                                monkeypatch):
        replaced = []
        real_replace = os.replace

        def spy(src, dst):
            replaced.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        doc = dict(quick_run_doc, snapshot_csv=True, t_end=0.1)
        run_cli("run", "--config", write_json(tmp_path / "c.json", doc),
                "--out", str(tmp_path / "out"))
        assert sorted(replaced) == ["frames.csv", "snapshot.csv", "summary.json"]
        assert sorted(os.listdir(tmp_path / "out")) == sorted(replaced)

    def test_config_error_exit_1(self, tmp_path, capsys):
        doc = preset_dict("flat-kernel-decay")
        doc["tau"] = 0.0015  # not a multiple of step
        code = run_cli("run", "--config", write_json(tmp_path / "c.json", doc),
                       "--out", str(tmp_path / "out"))
        assert code == 1
        assert "tau" in capsys.readouterr().err

    def test_output_every_above_tau_runs(self, tmp_path, quick_run_doc):
        # frames 0.5 apart leave no frame inside a 0.1 delay window; L is
        # defined at any gap and still decreases once t - tau > 0
        doc = dict(quick_run_doc, tau=0.1, output_every=0.5, t_end=2.0)
        code = run_cli("run", "--config", write_json(tmp_path / "c.json", doc),
                       "--out", str(tmp_path / "out"))
        assert code == 0
        lines = (tmp_path / "out" / "frames.csv").read_text().splitlines()[1:]
        rows = [(float(r["t"]), float(r["lyapunov"])) for r in csv.DictReader(lines)]
        assert [t for t, _ in rows] == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert all(b - a < 0 for (s, a), (_, b) in zip(rows, rows[1:]) if s >= 0.1)

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1,\n  "kernel": }')
        assert run_cli("run", "--config", str(path), "--out", str(tmp_path)) == 1
        assert "line" in capsys.readouterr().err


def _with(doc, dotted, value):
    """Copy of ``doc`` with the field at the dotted path set to ``value``."""
    doc = json.loads(json.dumps(doc))
    *parents, leaf = dotted.split(".")
    node = doc
    for key in parents:
        node = node[key]
    node[leaf] = value
    return doc


# Fields that once ended `run` and `certify` in a traceback, and the text
# their one-line config error carries instead.
BAD_FIELDS = [
    ("datum.density", {"family": "table", "values": [0.0] * 12},
     "total mass must be finite and positive, got 0.0"),
    ("datum.density", {"family": "table", "values": [1.0] * 5}, "density values"),
    ("datum.velocity", {"family": "constant", "value": [0.1, 0.2]},
     "datum.velocity.value: expected 1 numbers, got [0.1, 0.2]"),
    # the backward RK4 sum of the prehistory overflows to inf
    ("datum.velocity", {"family": "constant", "value": [1e308]},
     "prehistory is not finite at s=-0.002"),
    ("seed", "abc", "seed: expected an integer"),
    ("seed", 1.5, "seed: expected an integer"),
    ("n_history_slices", "x", "n_history_slices: expected an integer"),
    ("n_history_slices", 11, "n_history_slices: only one slice per step on "
                             "[-tau, 0] (101) is supported, got 11"),
    ("n_history_slices", 102, "n_history_slices: only one slice per step"),
    ("interpolation", "linear", "interpolation: only cubic-hermite is supported"),
    ("detj_tolerance", 1e-3, "detj_tolerance: only 1e-06 is supported, got 0.001"),
    ("detj_tolerance", "x", "detj_tolerance: expected a real number"),
    ("datum.velocity", {"family": "constant", "value": "abc"},
     "datum.velocity.value: expected numbers"),
    ("datum.velocity", {"family": "linear", "matrix": [["a"]]},
     "datum.velocity.matrix: expected numbers"),
    ("datum.velocity", {"family": "linear", "matrix": [[0.5]], "offset": "x"},
     "datum.velocity.offset: expected numbers"),
    ("datum.velocity.phase", "x", "datum.velocity.phase: expected numbers"),
    ("datum.velocity.amplitude", [None], "datum.velocity.amplitude: must be finite"),
    ("datum.velocity", {"family": "table-of-slices", "times": [-1.0, 0.0],
                        "fields": 3}, "datum.velocity.fields: expected a list"),
    ("datum.density", {"family": "table", "values": ["a"] * 12},
     "datum.density.values: expected numbers"),
    ("datum.density", {"family": "gaussian", "center": "x", "sigma": 0.3},
     "datum.density.center: expected numbers"),
    ("datum.density", {"family": "gaussian", "center": [0.5, 0.5], "sigma": 0.3},
     "datum.density.center: expected 1 numbers"),
    ("datum.domain.box", "abc", "datum.domain.box: expected numbers"),
    ("datum.domain.counts", [{"n": 12}], "datum.domain.counts: expected an integer"),
    ("kernel", {"family": "cucker-smale"}, "kernel.beta: missing required field"),
    ("kernel", {"family": "tabulated", "values": [1.0, 0.5]},
     "kernel.radii: missing required field"),
    ("snapshot_csv", "false", "snapshot_csv: expected true or false"),
    ("datum.domain", {"nodes": [[[0.1]], [[0.2]]], "weights": [0.5, 0.5]},
     "nodes must be an (N, d) array"),
    ("tau", 1e306, "tau: must be a positive integer multiple of step"),
    ("t_end", 10**400, "t_end: expected a real number"),
    ("datum.velocity.base", [10**400], "datum.velocity.base: expected numbers"),
    ("kernel.beta", 10**400, "kernel.beta: expected a real number"),
    ("kernel.beta", "x", "kernel.beta: expected a real number"),
    ("kernel.beta", -0.5, "kernel.beta: must be >= 0.0"),
    ("kernel", {"family": "tabulated", "radii": [0.0, 1.0], "values": [1.0, math.nan]},
     "kernel.values: must be finite numbers"),
    ("kernel", {"family": "tabulated", "radii": [0.0, 1.0], "values": [1.0, 2.0]},
     "kernel: tabulated values must be nonincreasing"),
    ("kernel.family", "morse", "kernel.family: unknown kernel family 'morse'"),
    # two data that once passed the config and failed in discretize: the
    # value broadcasts to (N, 2) and the gradient does not, and the first
    # field fails only between rows; each array is now checked against d
    ("datum", {"domain": {"box": [[0, 1], [0, 1]], "counts": [3, 3]},
               "velocity": {"family": "linear", "matrix": [[1.0, 2.0]], "offset": [0, 0]}},
     "datum.velocity.matrix: expected 2x2 numbers, got [[1.0, 2.0]]"),
    ("datum", {"domain": {"box": [[0, 1]], "counts": [4]},
               "velocity": {"family": "table-of-slices", "times": [-0.2, -0.1, 0.0],
                            "fields": [{"family": "constant", "value": [0.1, 0.2]},
                                       {"family": "constant", "value": [0.1]},
                                       {"family": "constant", "value": [0.2]}]}},
     "datum.velocity.fields[0].value: expected 1 numbers, got [0.1, 0.2]"),
    ("datum.velocity.wavenumber", [1.0, 2.0],
     "datum.velocity.wavenumber: expected 1 numbers, got [1.0, 2.0]"),
]


class TestConfigErrors:
    @pytest.mark.parametrize("command", ["run", "certify"])
    @pytest.mark.parametrize("path,value,message", BAD_FIELDS)
    def test_bad_field_is_one_config_error_line(self, tmp_path, quick_run_doc,
                                                capsys, command, path, value,
                                                message):
        cfg = write_json(tmp_path / "c.json", _with(quick_run_doc, path, value))
        out = tmp_path / "out"
        argv = [command, "--config", cfg] + (
            ["--out", str(out)] if command == "run" else [])
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert message in captured.err and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("field,value", [("max_workers", "two"),
                                             ("max_cells", 2.5)])
    def test_non_integer_sweep_field(self, tmp_path, quick_run_doc, capsys,
                                     field, value):
        sweep_doc = {"schema_version": 1, "base": quick_run_doc,
                     "axes": [{"path": "tau", "values": [0.2]}], field: value}
        code = run_cli("sweep", "--config",
                       write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: expected an integer")

    def test_random_phase_needs_a_nonnegative_seed(self, tmp_path, quick_run_doc,
                                                   capsys):
        doc = _with(_with(quick_run_doc, "datum.velocity.phase", "random"), "seed", -1)
        assert run_cli("certify", "--config", write_json(tmp_path / "c.json", doc)) == 1
        assert capsys.readouterr().err == \
            "config error: seed: must be >= 0 to draw a random phase\n"

    @pytest.mark.parametrize("fault,message", [
        ("root", "sweep config root: expected a JSON object"),
        ("path", "axes[0].path: expected a dotted string, got 3"),
    ])
    def test_malformed_sweep_is_one_config_error_line(self, tmp_path, quick_run_doc,
                                                      capsys, fault, message):
        sweep_doc = {"schema_version": 1, "base": quick_run_doc,
                     "axes": [{"path": "tau", "values": [0.2]}]}
        if fault == "root":
            sweep_doc = [sweep_doc]
        else:
            sweep_doc["axes"][0]["path"] = 3
        code = run_cli("sweep", "--config",
                       write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid"))
        assert code == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "grid").exists()

    def test_non_integer_threads_env_names_the_variable(self, tmp_path,
                                                        quick_run_doc, capsys,
                                                        monkeypatch):
        sweep_doc = {"schema_version": 1, "base": quick_run_doc,
                     "axes": [{"path": "tau", "values": [0.2]}]}
        monkeypatch.setenv("FLOCKDDE_THREADS", "x")
        code = run_cli("sweep", "--config",
                       write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid"))
        assert code == 1
        assert capsys.readouterr().err == \
            "config error: FLOCKDDE_THREADS: expected an integer, got 'x'\n"
        assert not (tmp_path / "grid").exists()

    def test_datum_error_has_no_traceback_from_the_entry_point(self, tmp_path,
                                                               quick_run_doc):
        # a datum that passes the config and fails in discretize
        doc = _with(quick_run_doc, "datum.velocity",
                    {"family": "constant", "value": [1e308]})
        proc = run_entry_point("certify", "--config",
                               write_json(tmp_path / "c.json", doc))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error: prehistory is not finite")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unwritable_out_is_one_error_line(self, tmp_path, quick_run_doc, command):
        # a directory cannot be made under a regular file
        blocker = tmp_path / "file"
        blocker.write_text("")
        doc = dict(quick_run_doc, t_end=0.02)
        if command == "sweep":
            doc = {"schema_version": 1, "base": doc,
                   "axes": [{"path": "tau", "values": [0.2]}], "max_workers": 1}
        proc = run_entry_point(command, "--config", write_json(tmp_path / "c.json", doc),
                               "--out", str(blocker / "out"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and str(blocker) in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    def test_unwritable_out_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        calls = []
        monkeypatch.setattr(cli, "execute_run", lambda cfg: calls.append(cfg))
        code = run_cli("run", "--preset", "riccati-blowup", "--out", str(blocker / "x"))
        err = capsys.readouterr().err
        assert code == 1 and calls == []
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("out", ["out", "nest/a/b/c"])
    def test_failed_run_leaves_no_out_directory(self, tmp_path, capsys, out):
        # the zero-mass datum fails after the --out check made the path; the
        # empty directory that was there before stays
        doc = _with(preset_dict("flat-kernel-decay"), "datum.density",
                    {"family": "table", "values": [0.0] * 64})
        kept = tmp_path / "kept"
        kept.mkdir()
        code = run_cli("run", "--config", write_json(tmp_path / "c.json", doc),
                       "--out", str(kept / out))
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("config error: ") and err.count("\n") == 1
        assert list(kept.iterdir()) == []


# One misspelled key per mapping of the run schema: (the mapping's dotted
# path, a mapping with one extra key, that key's path).
MISSPELLED_RUN_KEYS = [
    ("", None, "config.snapshot_cvs"),
    ("kernel", {"family": "cucker-smale", "betta": 0.25}, "kernel.betta"),
    ("kernel", {"family": "tabulated", "radii": [0.0, 1.0], "values": [1.0, 0.5],
                "value": [1.0, 0.5]}, "kernel.value"),
    ("datum", None, "datum.densty"),
    ("datum.domain", {"box": [[0.0, 1.0]], "counts": [12], "count": [12]},
     "datum.domain.count"),
    ("datum.domain", {"nodes": [[0.25], [0.75]], "weights": [0.5, 0.5],
                      "weight": [0.5, 0.5]}, "datum.domain.weight"),
    ("datum.domain", {"boxes": [[0.0, 1.0]], "counts": [12]}, "datum.domain.boxes"),
    ("datum.density", {"family": "uniform", "sigma": 0.3}, "datum.density.sigma"),
    ("datum.density", {"family": "gaussian", "center": [0.5], "sigma": 0.3,
                       "centre": [0.5]}, "datum.density.centre"),
    ("datum.density", {"family": "table", "values": [1.0] * 12, "value": 1.0},
     "datum.density.value"),
    ("datum.velocity", {"family": "constant", "value": [0.1], "values": [0.1]},
     "datum.velocity.values"),
    ("datum.velocity", {"family": "linear", "matrix": [[0.5]], "ofset": [0.0]},
     "datum.velocity.ofset"),
    ("datum.velocity", None, "datum.velocity.amplitudes"),
    ("datum.velocity", {"family": "table-of-slices", "times": [-0.2, 0.0], "time": [0.0],
                        "fields": [{"family": "constant", "value": [0.1]}] * 2},
     "datum.velocity.time"),
    ("datum.velocity", {"family": "table-of-slices", "times": [-0.2, 0.0],
                        "fields": [{"family": "constant", "value": [0.1]},
                                   {"family": "constant", "value": [0.2], "valu": 1}]},
     "datum.velocity.fields[1].valu"),
]


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a 2-D run at N = 1024 takes the force's matmul through BLAS
    doc = {"schema_version": 1, "kernel": {"family": "cucker-smale", "beta": 1.0},
           "datum": {"domain": {"box": [[0.0, 1.0], [0.0, 1.0]], "counts": [32, 32]},
                     "density": {"family": "gaussian", "center": [0.5, 0.5], "sigma": 0.3},
                     "velocity": {"family": "sine-perturbation", "base": [0.0, 0.0],
                                  "amplitude": [0.2, 0.1], "wavenumber": [3.0, 2.0],
                                  "phase": [0.4, 1.1]}},
           "tau": 0.05, "step": 0.01, "t_end": 0.04, "output_every": 0.02}
    config = write_json(tmp_path / "c.json", doc)
    for threads in ("1", "2"):
        proc = run_entry_point("run", "--config", config, "--out", str(tmp_path / threads),
                               OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
    for name in ("frames.csv", "summary.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


class TestStrictSchema:
    """An unknown key at any mapping level is one config error line."""

    @pytest.mark.parametrize("where,mapping,field", MISSPELLED_RUN_KEYS)
    def test_misspelled_run_key(self, tmp_path, quick_run_doc, capsys, where,
                                mapping, field):
        doc = json.loads(json.dumps(quick_run_doc))
        if mapping is not None:
            doc = _with(doc, where, mapping)
        else:
            node = doc
            for key in filter(None, where.split(".")):
                node = node[key]
            node[field.rpartition(".")[2]] = 1.0
        out = tmp_path / "out"
        assert run_cli("run", "--config", write_json(tmp_path / "c.json", doc),
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == f"config error: {field}: unknown field\n"
        assert not out.exists()

    @pytest.mark.parametrize("field", ["sweep.max_worker", "axes[1].value"])
    def test_misspelled_sweep_key(self, tmp_path, quick_run_doc, capsys, field):
        sweep_doc = {"schema_version": 1, "base": quick_run_doc,
                     "axes": [{"path": "tau", "values": [0.2]},
                              {"path": "kernel.beta", "values": [0.5]}]}
        if field == "sweep.max_worker":
            sweep_doc["max_worker"] = 2
        else:
            sweep_doc["axes"][1]["value"] = [0.5]
        grid = tmp_path / "grid"
        assert run_cli("sweep", "--config", write_json(tmp_path / "s.json", sweep_doc),
                       "--out", str(grid)) == 1
        assert capsys.readouterr().err == f"config error: {field}: unknown field\n"
        assert not grid.exists()

    def test_documented_and_shipped_configs_still_load(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__),
                                                 os.pardir, "bench"))
        import workloads

        readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
                      encoding="utf-8").read()
        run_example, sweep_example = (json.loads(block) for block in
                                      re.findall(r"```json\n(.*?)```", readme, re.S))
        sweep_example["base"] = run_example
        sweep_config_from_dict(sweep_example)
        docs = [run_example] + [preset_dict(name) for name in PRESETS]
        for name, command in workloads.COMMANDS.items():
            doc = workloads.make_config(name, 1)
            if command == "sweep":
                sweep_config_from_dict(doc)
                doc = doc["base"]
            docs.append(doc)
        for doc in docs:
            run_config_from_dict(doc)
            # and the config its summary echoes
            doc = dict(doc, t_end=0.0)
            out = tmp_path / "out"
            assert run_cli("run", "--config", write_json(tmp_path / "c.json", doc),
                           "--out", str(out)) == 0
            with open(out / "summary.json", encoding="utf-8") as f:
                run_config_from_dict(json.load(f)["config"])


class TestCertify:
    def test_satisfied_exit_0(self, tmp_path, quick_run_doc, capsys):
        code = run_cli("certify", "--config",
                       write_json(tmp_path / "c.json", quick_run_doc))
        assert code == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["satisfied"] is True and cert["rhs"] == "inf"

    def test_not_satisfied_exit_3(self, tmp_path, capsys):
        doc = preset_dict("unconditional-beta025")
        doc["kernel"]["beta"] = 1.5
        doc["datum"]["velocity"]["amplitude"] = [3.0]
        doc["tau"] = 1.0
        code = run_cli("certify", "--config", write_json(tmp_path / "c.json", doc))
        assert code == 3
        cert = json.loads(capsys.readouterr().out)
        assert cert["satisfied"] is False and cert["d_star"] is None

    def test_far_separated_steep_kernel_returns(self, tmp_path, quick_run_doc,
                                               capsys, time_limit):
        # the kernel tail from 1e9 underflows; certifying once hung there
        doc = json.loads(json.dumps(quick_run_doc))
        doc["kernel"]["beta"] = 40.0
        doc["datum"]["domain"]["box"] = [[0.0, 1e9]]
        with time_limit(10):
            code = run_cli("certify", "--config",
                           write_json(tmp_path / "c.json", doc))
        assert code == 3
        cert = json.loads(capsys.readouterr().out)
        assert cert["satisfied"] is False and cert["rhs"] == 0.0

    def test_tiny_psi_star_has_a_rate(self, tmp_path, capsys):
        code = run_cli("certify", "--config", write_json(tmp_path / "c.json", UNDERFLOW_DOC))
        assert code == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["predicted_rate"] == pytest.approx(cert["psi_star"] / 1.1, rel=1e-12)

    def test_tabulated_kernel_certifies_on_its_infinite_tail(self, tmp_path,
                                                            quick_run_doc, capsys):
        # the profile is constant past the last node, so its tail diverges
        doc = json.loads(json.dumps(quick_run_doc))
        doc["kernel"] = {"family": "tabulated", "radii": [0.0, 1.0],
                          "values": [1.0, 0.5]}
        code = run_cli("certify", "--config", write_json(tmp_path / "c.json", doc))
        assert code == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["rhs"] == "inf" and cert["satisfied"] is True
        assert 0.0 < cert["predicted_rate"] < 1.0

    def test_table_ending_below_2_to_the_256_keeps_an_infinite_tail(self, tmp_path,
                                                                   quick_run_doc, capsys):
        doc = _with(quick_run_doc, "kernel", {"family": "tabulated",
                                              "radii": [0.0, 1.0, 1e77],
                                              "values": [1.0, 0.5, 0.25]})
        code = run_cli("certify", "--config", write_json(tmp_path / "c.json", doc))
        assert code == 0
        assert json.loads(capsys.readouterr().out)["rhs"] == "inf"

    # the antiderivative's quartic pieces overflowed on a gap past 2**256 (and
    # the cubic's coefficients on a gap below ~1e-102): rhs was "nan", exit 3
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("radii", [[0.0, 1.0, 2e77], [0.0, 1.0, 1e200],
                                       [0.0, 1e-110, 1.0]])
    def test_table_whose_integral_overflows_is_a_config_error(self, tmp_path, quick_run_doc,
                                                               capsys, radii):
        doc = _with(quick_run_doc, "kernel", {"family": "tabulated", "radii": radii,
                                              "values": [1.0, 0.5, 0.25]})
        code = run_cli("certify", "--config", write_json(tmp_path / "c.json", doc))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: kernel: ") and err.count("\n") == 1


class TestOutOfRangeInputs:
    @pytest.mark.parametrize("dim, tau, run_code", [(1, 0.0, 0), (1, 0.2, 1), (2, 0.2, 1)])
    def test_speed_whose_square_overflows_keeps_r_v_finite(self, tmp_path, capsys,
                                                           dim, tau, run_code):
        # with tau > 0 each node's delayed self lies 2e159 away, so the run
        # ends in the normalizer underflow's one error line
        cfg = write_json(tmp_path / "c.json", fast_doc(dim, tau))
        assert run_cli("certify", "--config", cfg) == 0
        cert = strict_json(capsys.readouterr().out)
        assert cert["R_V"] == pytest.approx(math.sqrt(dim) * 1e160, rel=1e-15)
        assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "out")) == run_code
        err = capsys.readouterr().err
        if run_code:
            assert err.startswith("error: kernel-weighted mass underflowed")
            assert err.count("\n") == 1
        else:
            summary = strict_json((tmp_path / "out" / "summary.json").read_text())
            assert summary["R_V"] == 1e160 and err == ""

    @staticmethod
    def wide_doc():
        # a spread of 1e160, whose squared diameter overflows
        doc = fast_doc(1, 0.0)
        doc["datum"]["domain"]["box"] = [[0.0, 1e160]]
        doc["datum"]["velocity"]["value"] = [0.0]
        return doc

    def test_summary_and_certificate_are_strict_json(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", self.wide_doc())
        assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "out")) == 0
        strict_json((tmp_path / "out" / "summary.json").read_text())
        capsys.readouterr()
        assert run_cli("certify", "--config", cfg) == 0
        strict_json(capsys.readouterr().out)

    def test_spread_whose_square_overflows_has_a_finite_diameter(self, tmp_path, capsys):
        # the two nodes sit at 2.5e159 and 7.5e159; a diameter read as inf
        # once put the tail's lower limit at inf and the certificate's rhs at 0
        cfg = write_json(tmp_path / "c.json", self.wide_doc())
        assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "out")) == 0
        assert capsys.readouterr().err == ""
        summary = strict_json((tmp_path / "out" / "summary.json").read_text())
        assert summary["final"]["d_X"] == pytest.approx(5e159, rel=1e-15)
        assert run_cli("certify", "--config", cfg) == 0
        out, err = capsys.readouterr()
        cert = strict_json(out)
        assert err == "" and cert == summary["certificate"]
        assert cert["rhs"] == pytest.approx(2e-160, rel=1e-12)
        assert cert["d_star"] == pytest.approx(5e159, rel=1e-15)

    def test_json_text_writes_non_finite_numbers_as_strings(self):
        doc = {"a": math.inf, "b": [-math.inf, math.nan], "c": {"d": 1.5, "e": None}}
        assert strict_json(_json_text(doc)) == {"a": "inf", "b": ["-inf", "nan"],
                                                "c": {"d": 1.5, "e": None}}


class TestThreshold:
    def test_global_existence_exit_0(self, capsys):
        code = run_cli("threshold", "--w0-min", "-0.5", "--beta", "0", "--rv", "1.0")
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verdict"] == "global-existence"
        assert verdict["w1_minus"] == -1.0

    def test_blowup_exit_2_with_bound(self, capsys):
        code = run_cli("threshold", "--w0-min", "-2", "--beta", "0", "--rv", "1.0")
        assert code == 2
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["bound"] == pytest.approx(1.0)

    def test_indeterminate_exit_5(self, capsys):
        code = run_cli("threshold", "--w0-min", "-1.0", "--beta", "0.125",
                       "--rv", "0.25")
        assert code == 5

    def test_bad_numerics_exit_1(self, capsys):
        assert run_cli("threshold", "--w0-min", "nan", "--beta", "0",
                       "--rv", "1.0") == 1
        assert run_cli("threshold", "--w0-min", "-1", "--beta", "-2",
                       "--rv", "1.0") == 1
        capsys.readouterr()
        assert run_cli("threshold", "--w0-min", "-1", "--beta", "-1", "--rv", "1.0") == 1
        assert capsys.readouterr().err == \
            "error: beta must be a finite nonnegative real, got -1.0\n"


class TestFailureBoundary:
    """``main`` turns every failure into one stderr line and exit 1."""

    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_unexpected_failure_is_one_error_line(self, tmp_path, capsys, command):
        path = tmp_path / "c.json"
        path.write_text("[" * 100000 + "]" * 100000)  # json.load runs out of recursion depth
        out = tmp_path / "out"
        extra = ["--out", str(out)] if command == "run" else []
        code = run_cli(command, "--config", str(path), *extra)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("counts", [[10**19], [2**32, 2**31]])  # 2**63 is one too many
    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_grid_numpy_cannot_index_is_a_config_error(self, tmp_path, quick_run_doc, capsys,
                                                       command, counts):
        doc = _with(quick_run_doc, "datum.domain.counts", counts)
        if len(counts) == 2:
            doc = _with(_with(doc, "datum.domain.box", [[0.0, 1.0]] * 2), "datum.velocity",
                        {"family": "constant", "value": [0.0, 0.0]})
        out = tmp_path / "out"
        extra = ["--out", str(out)] if command == "run" else []
        code = run_cli(command, "--config", write_json(tmp_path / "c.json", doc), *extra)
        assert code == 1
        assert capsys.readouterr().err == (
            f"config error: datum.domain: a grid of {math.prod(counts)} nodes is more "
            f"than numpy can index ({sys.maxsize})\n")
        assert not out.exists()

    @pytest.mark.parametrize("box,density", [
        ([[0.0, 1e200], [0.0, 2e200]], {"family": "uniform"}),
        ([[0.0, 1e200], [0.0, 2e200]],
         {"family": "gaussian", "center": [0.5, 0.5], "sigma": 0.3}),
        ([[-1e308, 1e308]], {"family": "uniform"})], ids=["2d", "2d-gaussian", "1d"])
    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_box_whose_cell_volume_overflows_is_a_config_error(self, tmp_path, quick_run_doc,
                                                               capsys, command, box, density):
        # the cell volume (or the 1-D extent) overflows: once NaN masses passed
        # every check, with RuntimeWarnings on stderr
        dim = len(box)
        doc = _with(_with(_with(_with(quick_run_doc, "datum.domain.box", box),
                                "datum.domain.counts", [12] * dim), "datum.density", density),
                    "datum.velocity", {"family": "constant", "value": [0.0] * dim})
        out = tmp_path / "out"
        extra = ["--out", str(out)] if command == "run" else []
        code = run_cli(command, "--config", write_json(tmp_path / "c.json", doc), *extra)
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: datum.domain: box extent and cell volume must be finite\n")
        assert not out.exists()

    def test_gaussian_density_whose_exponent_overflows_is_zero(self, quick_run_doc):
        # only the node at the center keeps mass; the squared distances of the
        # others overflow, silently, and their density is 0
        doc = _with(_with(_with(quick_run_doc, "datum.domain.box", [[0.0, 1e200]]),
                          "datum.domain.counts", [4]),
                    "datum.density", {"family": "gaussian", "center": [1.25e199], "sigma": 1.0})
        cfg = run_config_from_dict(doc)
        buf = discretize(cfg.datum, cfg.tau, cfg.step)
        assert buf.labels.tolist() == [[1.25e199]] and buf.masses.tolist() == [1.0]

    def test_failure_without_a_message_names_its_type(self, monkeypatch, capsys):
        def fail(cfg):
            raise MemoryError()

        monkeypatch.setattr(cli, "_prepare", fail)
        assert run_cli("certify", "--preset", "riccati-blowup") == 1
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_sweep_cell_failure_without_a_message_names_its_type(self, tmp_path,
                                                                 quick_run_doc,
                                                                 monkeypatch, capsys):
        def fail(cfg):
            raise MemoryError()

        monkeypatch.setattr(cli, "_prepare", fail)
        sweep_doc = {"schema_version": 1, "base": quick_run_doc,
                     "axes": [{"path": "tau", "values": [0.1]}], "max_workers": 1}
        assert run_cli("sweep", "--config", write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid")) == 1
        summary = (tmp_path / "grid" / "sweep_summary.csv").read_text().splitlines()
        assert summary[1] == "0,0.1,error: MemoryError,,,,"
        assert capsys.readouterr().err == "cell 0: error: MemoryError\n"


class TestSweep:
    def test_cells_are_built_once_in_row_major_order(self, quick_run_doc):
        sweep = sweep_config_from_dict({
            "schema_version": 1, "base": quick_run_doc,
            "axes": [{"path": "tau", "values": [0.1, 0.3]},
                     {"path": "kernel.beta", "values": [0.5, 2.0, 3.0]}]})
        assert sweep.axes == ["tau", "kernel.beta"]
        assert [coords for coords, _ in sweep.cells] == \
            [{"tau": t, "kernel.beta": b} for t in (0.1, 0.3) for b in (0.5, 2.0, 3.0)]
        for coords, doc in sweep.cells:
            assert (doc["tau"], doc["kernel"]["beta"]) == tuple(coords.values())
        assert (quick_run_doc["tau"], quick_run_doc["kernel"]["beta"]) == (0.2, 0.25)

    def test_repeated_axis_path_is_a_config_error(self, tmp_path, quick_run_doc, capsys):
        # the two axes would run identical cells under two axis:tau columns
        sweep_doc = {"schema_version": 1, "base": quick_run_doc,
                     "axes": [{"path": "tau", "values": [0.1, 0.2]},
                              {"path": "tau", "values": [0.3]}]}
        code = run_cli("sweep", "--config", write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid"))
        assert code == 1
        assert capsys.readouterr().err == "config error: axes[1].path: 'tau' repeats axes[0]\n"
        assert not (tmp_path / "grid").exists()

    def test_single_cell_matches_standalone_run(self, tmp_path, quick_run_doc):
        cfg = write_json(tmp_path / "run.json", quick_run_doc)
        run_cli("run", "--config", cfg, "--out", str(tmp_path / "solo"))
        sweep_doc = {"schema_version": 1, "base": quick_run_doc,
                     "axes": [{"path": "tau", "values": [0.2]}],
                     "max_workers": 1}
        code = run_cli("sweep", "--config",
                       write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid"))
        assert code == 0
        cell = tmp_path / "grid" / "cell_0000"
        assert (cell / "frames.csv").read_bytes() == \
            (tmp_path / "solo" / "frames.csv").read_bytes()
        assert (cell / "summary.json").read_bytes() == \
            (tmp_path / "solo" / "summary.json").read_bytes()

    def test_two_worker_cells_match_standalone_runs_above_block(self, tmp_path,
                                                                quick_run_doc):
        # N^2 > _BLOCK_PAIRS, so the force and diameters take several row
        # blocks, in forked workers and in this process alike
        doc = json.loads(json.dumps(quick_run_doc))
        doc["datum"]["domain"]["counts"] = [math.isqrt(_BLOCK_PAIRS) + 5]
        doc["t_end"] = 0.02
        betas = [0.0, 1.0]
        sweep_doc = {"schema_version": 1, "base": doc,
                     "axes": [{"path": "kernel.beta", "values": betas}],
                     "max_workers": 2}
        assert run_cli("sweep", "--config",
                       write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid")) == 0
        for i, beta in enumerate(betas):
            doc["kernel"]["beta"] = beta
            solo = tmp_path / f"solo{i}"
            assert run_cli("run", "--config",
                           write_json(tmp_path / f"run{i}.json", doc),
                           "--out", str(solo)) == 0
            cell = tmp_path / "grid" / f"cell_{i:04d}"
            for name in ("frames.csv", "summary.json"):
                assert (cell / name).read_bytes() == (solo / name).read_bytes()

    def test_each_stage_runs_once_and_cells_are_the_standalone_runs(
            self, tmp_path, quick_run_doc, monkeypatch):
        calls = collections.Counter()

        def counting(name, stage):
            def counted(*args, **kwargs):
                calls[name] += 1
                return stage(*args, **kwargs)
            return counted

        for name in ("discretize", "prehistory_frames", "integrate"):
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        doc = json.loads(json.dumps(quick_run_doc))
        doc["t_end"] = 0.1
        taus = [0.1, 0.2]
        for i, tau in enumerate(taus):
            calls.clear()
            assert run_cli("run", "--config",
                           write_json(tmp_path / f"run{i}.json", dict(doc, tau=tau)),
                           "--out", str(tmp_path / f"solo{i}")) == 0
            assert calls == {"discretize": 1, "prehistory_frames": 1, "integrate": 1}
        calls.clear()
        sweep_doc = {"schema_version": 1, "base": doc,
                     "axes": [{"path": "tau", "values": taus}], "max_workers": 1}
        assert run_cli("sweep", "--config",
                       write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid")) == 0
        assert calls == {"discretize": 2, "prehistory_frames": 2, "integrate": 2}
        for i in range(len(taus)):
            cell, solo = tmp_path / "grid" / f"cell_{i:04d}", tmp_path / f"solo{i}"
            for name in ("frames.csv", "summary.json"):
                assert (cell / name).read_bytes() == (solo / name).read_bytes()
        # cells that differ only in the kernel share one set-up
        betas = [0.25, 1.5, 0.0]
        calls.clear()
        sweep_doc = {"schema_version": 1, "base": doc,
                     "axes": [{"path": "kernel.beta", "values": betas}], "max_workers": 1}
        assert run_cli("sweep", "--config",
                       write_json(tmp_path / "beta_sweep.json", sweep_doc),
                       "--out", str(tmp_path / "beta_grid")) == 0
        assert calls == {"discretize": 1, "prehistory_frames": 1, "integrate": 3}
        for i, beta in enumerate(betas):
            solo = tmp_path / f"beta_solo{i}"
            assert run_cli("run", "--config",
                           write_json(tmp_path / f"beta{i}.json",
                                      _with(doc, "kernel.beta", beta)),
                           "--out", str(solo)) == 0
            cell = tmp_path / "beta_grid" / f"cell_{i:04d}"
            for name in ("frames.csv", "summary.json"):
                assert (cell / name).read_bytes() == (solo / name).read_bytes()

    @pytest.mark.parametrize("cells", [1, 2, 3])
    def test_a_task_copies_the_ring_for_every_cell_but_the_last(self, tmp_path, quick_run_doc,
                                                                  monkeypatch, cells):
        sources, stepped = [], []

        def copying(buffer, real=HistoryBuffer.copy):
            sources.append(buffer)
            return real(buffer)

        def recording(buffer, *args, real=cli.integrate, **kwargs):
            stepped.append(buffer)
            return real(buffer, *args, **kwargs)

        monkeypatch.setattr(HistoryBuffer, "copy", copying)
        monkeypatch.setattr(cli, "integrate", recording)
        doc = dict(quick_run_doc, t_end=0.05)
        betas = [0.25, 0.5, 2.0][:cells]
        rows = cli._run_task([(i, {"kernel.beta": beta}, _with(doc, "kernel.beta", beta),
                               str(tmp_path)) for i, beta in enumerate(betas)])
        assert [row["status"] for row in rows] == ["ok"] * cells
        assert len(sources) == cells - 1
        # every copy is of the prepared ring, which the last cell steps itself
        assert all(source is stepped[-1] for source in sources)
        assert len({id(b) for b in stepped}) == cells

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_sharing_a_set_up_are_the_standalone_runs(self, tmp_path, quick_run_doc,
                                                            workers):
        doc = dict(quick_run_doc, t_end=0.1, snapshot_csv=True)
        betas = [0.25, 1.5, 0.0]  # at 2 workers the tasks are cells [0, 1] and [2]
        sweep_doc = {"schema_version": 1, "base": doc,
                     "axes": [{"path": "kernel.beta", "values": betas}],
                     "max_workers": workers}
        assert run_cli("sweep", "--config", write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid")) == 0
        for i, beta in enumerate(betas):
            solo = tmp_path / f"solo{i}"
            assert run_cli("run", "--config",
                           write_json(tmp_path / f"run{i}.json", _with(doc, "kernel.beta", beta)),
                           "--out", str(solo)) == 0
            for name in ("frames.csv", "summary.json", "snapshot.csv"):
                assert (tmp_path / "grid" / f"cell_{i:04d}" / name).read_bytes() == \
                    (solo / name).read_bytes()

    def test_shared_set_up_survives_a_cell_that_blows_up(self, tmp_path, monkeypatch):
        # one set-up for both cells: the first blows up at t = ln 2, the
        # second ends before; each must be its standalone run
        doc = preset_dict("riccati-blowup")
        doc.update(step=0.005, output_every=0.01, snapshot_csv=True)
        doc["datum"]["domain"]["counts"] = [16]
        ends = [1.0, 0.3]
        prepared = []

        def prepare(cfg, real=cli._prepare):
            prepared.append(cfg)
            return real(cfg)

        monkeypatch.setattr(cli, "_prepare", prepare)
        sweep_doc = {"schema_version": 1, "base": doc,
                     "axes": [{"path": "t_end", "values": ends}], "max_workers": 1}
        assert run_cli("sweep", "--config", write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid")) == 0
        assert len(prepared) == 1
        with open(tmp_path / "grid" / "sweep_summary.csv", newline="") as f:
            assert [r["status"] for r in csv.DictReader(f)] == ["blowup", "ok"]
        for i, t_end in enumerate(ends):
            solo = tmp_path / f"solo{i}"
            run_cli("run", "--config",
                    write_json(tmp_path / f"run{i}.json", dict(doc, t_end=t_end)),
                    "--out", str(solo))
            for name in ("frames.csv", "summary.json", "snapshot.csv"):
                assert (tmp_path / "grid" / f"cell_{i:04d}" / name).read_bytes() == \
                    (solo / name).read_bytes()

    def test_shared_cells_read_one_read_only_set_of_node_arrays(self, tmp_path,
                                                                quick_run_doc, monkeypatch):
        buffers = []

        def recording(buffer, *args, real=cli.integrate, **kwargs):
            buffers.append(buffer)
            return real(buffer, *args, **kwargs)

        monkeypatch.setattr(cli, "integrate", recording)
        sweep_doc = {"schema_version": 1, "base": dict(quick_run_doc, t_end=0.05),
                     "axes": [{"path": "kernel.beta", "values": [0.25, 0.5, 2.0]}],
                     "max_workers": 1}
        assert run_cli("sweep", "--config", write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid")) == 0
        assert len({id(b) for b in buffers}) == 3  # each cell steps its own ring
        for name in ("masses", "labels", "cell_volumes"):
            arrays = [getattr(b.latest, name) for b in buffers]
            assert all(a is arrays[0] for a in arrays)
            assert not any(a.flags.writeable for a in arrays)

    def test_failed_shared_set_up_fails_each_of_its_cells_only(self, tmp_path, quick_run_doc,
                                                               monkeypatch, capsys):
        prepared = collections.Counter()

        def prepare(cfg, real=cli._prepare):
            prepared[cfg.tau] += 1
            if cfg.tau == 0.1:
                raise RuntimeError("no set-up at tau 0.1")
            return real(cfg)

        monkeypatch.setattr(cli, "_prepare", prepare)
        sweep_doc = {"schema_version": 1, "base": dict(quick_run_doc, t_end=0.05),
                     "axes": [{"path": "tau", "values": [0.1, 0.2]},
                              {"path": "kernel.beta", "values": [0.25, 0.5]}],
                     "max_workers": 1}
        assert run_cli("sweep", "--config", write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid")) == 1
        with open(tmp_path / "grid" / "sweep_summary.csv", newline="") as f:
            statuses = [r["status"] for r in csv.DictReader(f)]
        assert statuses == ["error: no set-up at tau 0.1"] * 2 + ["ok"] * 2
        assert prepared == {0.1: 2, 0.2: 1}  # a failed set-up is tried again, not kept
        assert capsys.readouterr().err == "".join(
            f"cell {i}: error: no set-up at tau 0.1\n" for i in (0, 1))

    def test_set_up_key_is_the_datum_tau_step_and_seed(self, quick_run_doc):
        key = cli._setup_key(quick_run_doc)
        assert cli._setup_key(_with(quick_run_doc, "kernel.beta", 3.0)) == key
        assert cli._setup_key(_with(quick_run_doc, "t_end", 0.5)) == key
        for path, value in (("tau", 0.1), ("step", 0.001), ("seed", 4),
                            ("datum.velocity.amplitude", [0.3])):
            assert cli._setup_key(_with(quick_run_doc, path, value)) != key

    def test_tasks_of_small_sweeps(self):
        assert cli._tasks(list("aaabbb"), 2) == [[0, 1, 2], [3, 4, 5]]  # sweep-2x3
        assert cli._tasks(list("aaa"), 2) == [[0, 1], [2]]  # one key keeps two workers
        assert cli._tasks(list("abcd"), 2) == [[0], [1], [2], [3]]
        assert cli._tasks(list("abab"), 1) == [[0, 2], [1, 3]]
        assert cli._tasks([], 1) == []

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.sampled_from("abc"), max_size=14), st.integers(1, 5))
    def test_tasks_partition_the_cells(self, keys, workers):
        tasks = cli._tasks(keys, workers)
        size = math.ceil(len(keys) / workers)
        assert sorted(i for task in tasks for i in task) == list(range(len(keys)))
        for task in tasks:
            assert 0 < len(task) <= size
            assert task == sorted(task)
            assert len({keys[i] for i in task}) == 1
        assert [task[0] for task in tasks] == sorted(task[0] for task in tasks)
        # no more tasks than the cap forces
        assert len(tasks) == sum(math.ceil(keys.count(k) / size) for k in set(keys))

    def test_axis_values_are_json(self, tmp_path, quick_run_doc):
        doc = json.loads(json.dumps(quick_run_doc))
        doc.update(t_end=0.02, snapshot_csv=False)  # an axis path must exist
        kernels = [{"family": "cucker-smale", "beta": 0.5},
                   {"family": "tabulated", "radii": [0.0, 1.0], "values": [1.0, 0.5]}]
        sweep_doc = {"schema_version": 1, "base": doc,
                     "axes": [{"path": "kernel", "values": kernels},
                              {"path": "snapshot_csv", "values": [False, True]}],
                     "max_workers": 1}
        assert run_cli("sweep", "--config",
                       write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid")) == 0
        with open(tmp_path / "grid" / "sweep_summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [json.loads(r["axis:kernel"]) for r in rows] == \
            [k for k in kernels for _ in range(2)]
        assert [json.loads(r["axis:snapshot_csv"]) for r in rows] == [False, True] * 2
        assert rows[0]["axis:kernel"] == '{"beta": 0.5, "family": "cucker-smale"}'

    def test_tau_axis_flips_certificate(self, tmp_path, quick_run_doc):
        # thin tail: growing the delay eventually defeats the condition
        doc = json.loads(json.dumps(quick_run_doc))
        doc["kernel"]["beta"] = 1.5
        doc["datum"]["velocity"]["amplitude"] = [0.25]
        doc["t_end"] = 0.1
        doc["step"] = 0.005
        doc["output_every"] = 0.005
        sweep_doc = {"schema_version": 1, "base": doc,
                     "axes": [{"path": "tau", "values": [0.01, 2.0]}],
                     "max_workers": 2}
        code = run_cli("sweep", "--config",
                       write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid"))
        assert code == 0
        s0 = json.loads((tmp_path / "grid" / "cell_0000" / "summary.json").read_text())
        s1 = json.loads((tmp_path / "grid" / "cell_0001" / "summary.json").read_text())
        assert s0["certificate"]["satisfied"] is True
        assert s1["certificate"]["satisfied"] is False

    def test_beta_axis_unconditionally_satisfied(self, tmp_path, quick_run_doc):
        doc = json.loads(json.dumps(quick_run_doc))
        doc["t_end"] = 0.1
        sweep_doc = {"schema_version": 1, "base": doc,
                     "axes": [{"path": "kernel.beta", "values": [0.25, 0.5]}],
                     "max_workers": 1}
        code = run_cli("sweep", "--config",
                       write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid"))
        assert code == 0
        summary = (tmp_path / "grid" / "sweep_summary.csv").read_text().splitlines()
        assert summary[0].startswith("cell,axis:kernel.beta")
        assert all(",true," in line for line in summary[1:])

    def test_summary_quotes_commas_in_axis_values_and_errors(self, tmp_path,
                                                              quick_run_doc):
        # cell 1 fails with a message about a shape "(4,)"; both axes take
        # lists, which print with a comma
        doc = json.loads(json.dumps(quick_run_doc))
        doc["t_end"] = 0.1
        doc["datum"]["domain"]["counts"] = [4]
        doc["datum"]["density"] = {"family": "table", "values": [1.0, 2.0, 1.0, 2.0]}
        sweep_doc = {"schema_version": 1, "base": doc,
                     "axes": [{"path": "datum.domain.counts", "values": [[4], [3]]},
                              {"path": "datum.domain.box", "values": [[[0.0, 1.0]]]}],
                     "max_workers": 1}
        code = run_cli("sweep", "--config",
                       write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid"))
        assert code == 1
        with open(tmp_path / "grid" / "sweep_summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert all(None not in r for r in rows)  # no row spills past the header
        assert [r["axis:datum.domain.counts"] for r in rows] == ["[4]", "[3]"]
        assert all(r["axis:datum.domain.box"] == "[[0.0, 1.0]]" for r in rows)
        assert rows[0]["status"] == "ok" and rows[0]["final_d_V"] != ""
        assert rows[1]["status"] == \
            "error: density values have shape (4,), expected (3,)"

    def test_threads_env_caps_workers(self, tmp_path, quick_run_doc, monkeypatch):
        doc = json.loads(json.dumps(quick_run_doc))
        doc["t_end"] = 0.1
        sweep_doc = {"schema_version": 1, "base": doc,
                     "axes": [{"path": "kernel.beta", "values": [0.25, 0.5]}],
                     "max_workers": 8}
        monkeypatch.setenv("FLOCKDDE_THREADS", "1")
        code = run_cli("sweep", "--config",
                       write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid"))
        assert code == 0
        rows = (tmp_path / "grid" / "sweep_summary.csv").read_text().splitlines()
        assert len(rows) == 3

    def test_grid_cap_enforced(self, tmp_path, quick_run_doc, capsys):
        sweep_doc = {"schema_version": 1, "base": quick_run_doc,
                     "axes": [{"path": "tau", "values": [0.2] * 5}],
                     "max_cells": 3}
        code = run_cli("sweep", "--config",
                       write_json(tmp_path / "sweep.json", sweep_doc),
                       "--out", str(tmp_path / "grid"))
        assert code == 1
        assert "max_cells" in capsys.readouterr().err


class TestPresets:
    def test_list_names(self, capsys):
        assert run_cli("presets") == 0
        names = capsys.readouterr().out.split()
        assert names == sorted(["flat-kernel-decay", "riccati-blowup",
                                "unconditional-beta025"])

    def test_show_is_valid_config(self, capsys):
        assert run_cli("presets", "--show", "riccati-blowup") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kernel"]["beta"] == 0.0

    def test_show_unknown_name(self, capsys):
        assert run_cli("presets", "--show", "nope") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown preset 'nope'")
        assert err.count("\n") == 1
        assert run_cli("run", "--preset", "nope") == 1
        assert capsys.readouterr().err == err


_FOOTPRINT = """
import json, sys
from flockdde.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, [name for name in ("scipy.interpolate", "scipy.optimize",
                                            "scipy.spatial") if name in sys.modules]]))
"""


class TestImportFootprint:
    """A run imports only the scipy modules its inputs need: ``scipy.spatial``
    for d >= 2 and ``scipy.interpolate`` for a tabulated kernel; the package
    never imports ``scipy.optimize`` itself.  Asserted on ``sys.modules``,
    not on megabytes."""

    @staticmethod
    def codes_and_modules(*runs):
        """Exit codes of ``main`` on each argv of ``runs`` in one fresh
        process, and the three modules loaded after them."""
        proc = run_python("-c", _FOOTPRINT, json.dumps(runs))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_one_d_presets_load_none_of_the_three(self, tmp_path):
        # the blow-up crossing, the budget radius and the Gronwall rate all
        # solve for a root
        assert self.codes_and_modules(
            ["run", "--preset", "riccati-blowup", "--out", str(tmp_path / "blowup")],
            ["certify", "--preset", "unconditional-beta025"]) == [[2, 0], []]

    def test_two_d_run_loads_scipy_spatial(self, tmp_path, quick_run_doc):
        doc = _with(_with(_with(quick_run_doc, "datum.domain.box", [[0.0, 1.0]] * 2),
                          "datum.domain.counts", [4, 4]),
                    "datum.velocity", {"family": "linear", "matrix": [[0.5, 0.0], [0.0, 0.5]],
                                       "offset": [0.0, 0.0]})
        path = write_json(tmp_path / "c.json", _with(doc, "t_end", 0.1))
        assert self.codes_and_modules(["run", "--config", path, "--out", str(tmp_path / "o")]) \
            == [[0], ["scipy.spatial"]]

    def test_tabulated_kernel_loads_scipy_interpolate(self, tmp_path, quick_run_doc):
        doc = _with(quick_run_doc, "kernel", {"family": "tabulated", "radii": [0.0, 1.0, 2.0],
                                              "values": [1.0, 0.5, 0.25]})
        path = write_json(tmp_path / "c.json", _with(doc, "t_end", 0.1))
        codes, modules = self.codes_and_modules(
            ["run", "--config", path, "--out", str(tmp_path / "o")], ["certify", "--config", path])
        # scipy.interpolate's own __init__ imports scipy.optimize and scipy.spatial
        assert codes == [0, 0] and "scipy.interpolate" in modules
