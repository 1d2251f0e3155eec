"""CLI subcommands: exit codes, deterministic outputs, sweep equivalence."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from flockdde.cli import _json_text, execute_run, main
from flockdde.config import preset_dict, run_config_from_dict
from flockdde.dynamics import simulate
from flockdde.diagnostics import _BLOCK_PAIRS
from flockdde.state import discretize
from flockdde.threshold1d import classify


def run_cli(*argv):
    return main(list(argv))


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
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "flockdde.cli", "run", "--config",
             write_json(tmp_path / "c.json", doc), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
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

    def test_execute_run_frames_are_simulate_frames(self, quick_run_doc):
        cfg = run_config_from_dict(quick_run_doc)
        assert execute_run(cfg)["result"].frames == simulate(cfg).frames

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
        summary = execute_run(cfg)["summary"]
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

    def test_output_every_above_tau_is_config_error(self, tmp_path, quick_run_doc,
                                                    capsys):
        # the Lyapunov window [t - tau, t] would hold a single frame
        doc = json.loads(json.dumps(quick_run_doc))
        doc["tau"] = 0.04
        doc["output_every"] = 0.05
        code = run_cli("run", "--config", write_json(tmp_path / "c.json", doc),
                       "--out", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: output_every")
        assert err.count("\n") == 1

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
    ("datum.density", {"family": "table", "values": [0.0] * 12}, "zero total mass"),
    ("datum.density", {"family": "table", "values": [1.0] * 5}, "density values"),
    ("datum.velocity", {"family": "constant", "value": [0.1, 0.2]}, "velocity field"),
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
    ("kernel.beta", 10**400, "kernel: "),
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
        doc = _with(quick_run_doc, "datum.velocity",
                    {"family": "constant", "value": [0.1, 0.2]})
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "flockdde.cli", "certify", "--config",
             write_json(tmp_path / "c.json", doc)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error: velocity field")
        assert len(proc.stderr.splitlines()) == 1


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

    def test_tabulated_kernel_exit_4(self, tmp_path, quick_run_doc, capsys):
        doc = json.loads(json.dumps(quick_run_doc))
        doc["kernel"] = {"family": "tabulated", "radii": [0.0, 1.0],
                          "values": [1.0, 0.5]}
        code = run_cli("certify", "--config", write_json(tmp_path / "c.json", doc))
        assert code == 4
        assert json.loads(capsys.readouterr().out)["error"] == "unsupported-kernel"


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

    def test_summary_and_certificate_are_strict_json(self, tmp_path, capsys):
        # a spread of 1e160, whose squared diameter overflows
        doc = fast_doc(1, 0.0)
        doc["datum"]["domain"]["box"] = [[0.0, 1e160]]
        doc["datum"]["velocity"]["value"] = [0.0]
        cfg = write_json(tmp_path / "c.json", doc)
        assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "out")) == 0
        strict_json((tmp_path / "out" / "summary.json").read_text())
        capsys.readouterr()
        assert run_cli("certify", "--config", cfg) == 3
        strict_json(capsys.readouterr().out)

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


class TestSweep:
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
