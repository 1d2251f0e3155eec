"""CLI subcommands: exit codes, deterministic outputs, sweep equivalence."""

import json
import math
import os
import subprocess
import sys

import pytest

from flockdde.cli import main
from flockdde.config import preset_dict
from flockdde.diagnostics import _BLOCK_PAIRS


def run_cli(*argv):
    return main(list(argv))


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


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

    def test_tabulated_kernel_exit_4(self, tmp_path, quick_run_doc, capsys):
        doc = json.loads(json.dumps(quick_run_doc))
        doc["kernel"] = {"family": "tabulated", "radii": [0.0, 1.0],
                          "values": [1.0, 0.5]}
        code = run_cli("certify", "--config", write_json(tmp_path / "c.json", doc))
        assert code == 4
        assert json.loads(capsys.readouterr().out)["error"] == "unsupported-kernel"


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
