"""Generated runs at every scale end as documented: ``run`` and a two-cell ``sweep``.

Each example draws a small run (d = 1 or 2, 2 to 8 nodes per axis, 1 to 10
steps of h from 1e-100 to 1, m in {0, 1, 2, 5} delay steps, beta from 0 to
40) whose box extents, velocity parameters and Gaussian sigma are drawn from
0 and +-1e-300 to +-1e307, and runs it through ``cli.main`` in-process.  A
run exits 0, 2 or 1 with one line, a config error or the documented
normalizer underflow, and prints no warning; on exit 2 the blow-up time lies
inside the failing step.  A two-cell sweep of the same datum over two betas
reports each cell as ``run`` does.
"""

import contextlib
import csv
import io
import json
import math
import shutil
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flockdde.cli import main

UNDERFLOW = "error: kernel-weighted mass underflowed"
MAGNITUDES = [1e-300, 1e-170, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e170, 1e300, 1e307]
VALUES = st.sampled_from([0.0, *MAGNITUDES, *(-v for v in MAGNITUDES)])
STEPS = st.sampled_from([1e-100, 1e-10, 1e-3, 0.01, 0.1, 1.0])


def _doc(box, velocity, *, density=None, beta=1.0, m=0, h=0.01, n_steps=1):
    """A run document on the box ``[[0, e], ...]`` with ``counts`` of 4 per axis
    unless ``box`` gives them as ``(extents, counts)``."""
    extents, counts = box if isinstance(box[0], list) else (box, [4] * len(box))
    return {"schema_version": 1, "kernel": {"family": "cucker-smale", "beta": beta},
            "datum": {"domain": {"box": [[0.0, e] for e in extents], "counts": counts},
                      "density": density or {"family": "uniform"}, "velocity": velocity},
            "tau": m * h, "step": h, "t_end": n_steps * h, "output_every": h}


def _sine(base, amplitude, wavenumber, omega=0.0):
    return {"family": "sine-perturbation", "base": [base], "amplitude": [amplitude],
            "wavenumber": [wavenumber], "omega": omega}


# det J falls by about 1e290 in one step: the crossing once stopped after
# 100 Brent iterations with "error: Failed to converge" (exit 1)
CROSSING_DOCS = [
    _doc([1.0], {"family": "constant", "value": [1e307]}, h=1.0, n_steps=100),
    _doc([1000.0], _sine(1e300, -1e-170, 1.0, omega=1e307),
         density={"family": "gaussian", "center": [500.0], "sigma": 1e100}, n_steps=3),
]
# inf / inf in the Gaussian's exponent: once a RuntimeWarning and a total
# mass of NaN
GAUSSIAN_DOC = _doc([1e307], {"family": "constant", "value": [0.0]},
                    density={"family": "gaussian", "center": [5e306], "sigma": 1e307})
# the backward Jacobian passes 1e450 while the positions stay finite: once
# rejected as a prehistory that is not finite
JACOBIAN_DOC = _doc([1e-300], {"family": "linear", "matrix": [[-800.0]]}, m=130)
# the certificate's budget radius lies near 1e-300: its Brent solve once
# stopped after 100 iterations, as the crossing's did
TINY_BUDGET_DOC = _doc(([1e-300], [2]), {"family": "linear", "matrix": [[-1e100]]},
                       h=1e-100, n_steps=10)
# a Gaussian that underflows to 0 at every node: once "the datum's total
# mass must be finite and positive, got 0.0", which names no field
ZERO_MASS_DOC = _doc([1e10], {"family": "constant", "value": [0.0]},
                     density={"family": "gaussian", "center": [5e9], "sigma": 1e-10})
# Jacobi's formula sums column-replaced dets of +inf and -inf: once a
# RuntimeWarning from dynamics._det_slope
DET_SLOPE_DOC = _doc(([1.0, 1e170], [5, 5]), {
    "family": "sine-perturbation", "base": [0.0, 1e-100], "amplitude": [1e-170, -1e-170],
    "wavenumber": [1e-10, 1e100], "phase": [-1e10, -1e300], "omega": 0.0},
    beta=40.0, m=2, h=1e-10, n_steps=8)


@st.composite
def velocity_specs(draw, d):
    family = draw(st.sampled_from(["constant", "linear", "sine-perturbation"]))
    numbers = st.lists(VALUES, min_size=d, max_size=d)
    if family == "constant":
        return {"family": family, "value": draw(numbers)}
    if family == "linear":
        return {"family": family, "matrix": [draw(numbers) for _ in range(d)],
                "offset": draw(numbers | st.none())}
    return {"family": family, "base": draw(numbers), "amplitude": draw(numbers),
            "wavenumber": draw(numbers), "phase": draw(numbers | st.none()),
            "omega": draw(st.just(0.0) | VALUES)}


@st.composite
def run_docs(draw):
    d = draw(st.sampled_from([1, 2]))
    box = ([draw(st.sampled_from(MAGNITUDES)) for _ in range(d)],
           [draw(st.integers(2, 8)) for _ in range(d)])
    density = None
    if draw(st.booleans()):
        density = {"family": "gaussian", "center": [0.5 * e for e in box[0]],
                   "sigma": draw(VALUES)}
    return _doc(box, draw(velocity_specs(d)), density=density,
                beta=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 40.0)),
                m=draw(st.sampled_from([0, 1, 2, 5])), h=draw(STEPS),
                n_steps=draw(st.integers(1, 10)))


def _cli(time_limit, *argv):
    """(exit code, stderr lines) of ``main(argv)``, which must warn nothing."""
    err = io.StringIO()
    with time_limit(20), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    assert not caught, [str(w.message) for w in caught]
    return code, err.getvalue().splitlines()


def _run(doc, tmp_path, name, time_limit):
    """Run ``doc`` and check its ending: returns (code, stderr lines, blow-up
    time or None)."""
    path, out = tmp_path / f"{name}.json", tmp_path / name
    path.write_text(json.dumps(doc))
    shutil.rmtree(out, ignore_errors=True)
    code, lines = _cli(time_limit, "run", "--config", str(path), "--out", str(out))
    if code in (0, 2):
        assert not lines, lines
        blowup = json.loads((out / "summary.json").read_text())["blowup"]
        assert (blowup is None) == (code == 0), blowup
        if blowup is None:
            return code, lines, None
        # the last frame is the event's slot, or the last finite one, at
        # which a failed step started: the event lies in the step to it, or at it
        with open(out / "frames.csv") as f:
            t_last = float(list(csv.reader(row for row in f if row[0] != "#"))[-1][0])
        h, k = doc["step"], round(t_last / doc["step"])
        assert k * h == t_last
        assert (k - 1) * h <= blowup["time"] <= t_last, (blowup, t_last)
        return code, lines, blowup["time"]
    assert code == 1 and len(lines) == 1, (code, lines)
    assert lines[0].startswith(("config error: ", UNDERFLOW)), lines
    return code, lines, None


def _check_sweep(doc, beta, runs, tmp_path, time_limit):
    """A sweep of ``doc`` over ``kernel.beta`` in (its beta, ``beta``)
    reports each cell as ``runs``, their (code, lines, blow-up time), do."""
    sweep = {"schema_version": 1, "base": doc, "max_workers": 1,
             "axes": [{"path": "kernel.beta", "values": [doc["kernel"]["beta"], beta]}]}
    path, out = tmp_path / "sweep.json", tmp_path / "sweep"
    path.write_text(json.dumps(sweep))
    shutil.rmtree(out, ignore_errors=True)
    code, lines = _cli(time_limit, "sweep", "--config", str(path), "--out", str(out))
    if not (out / "sweep_summary.csv").exists():  # the config fails for every cell
        # the base is built only as cell 0, so the run's config error is cell 0's
        coords = {"kernel.beta": doc["kernel"]["beta"]}
        want = [line.replace("config error: ", f"config error: cell {coords}: ", 1)
                for line in runs[0][1]]
        assert code == 1 and lines == want, (code, lines, runs)
        return
    with open(out / "sweep_summary.csv") as f:
        rows = list(csv.DictReader(f))
    # a cell's failure reads "error: " and the message that run prints
    want = [{0: "ok", 2: "blowup"}[c] if c != 1 else
            "error: " + run_lines[0].removeprefix("config error: ").removeprefix("error: ")
            for c, run_lines, _ in runs]
    assert [r["status"] for r in rows] == want, (rows, runs)
    assert [r["blowup_time"] for r in rows] == [
        "" if t is None else "%.17g" % t for _, _, t in runs]
    failed = [f"cell {i}: {s}" for i, s in enumerate(want) if s not in ("ok", "blowup")]
    assert (code, lines) == (1 if failed else 0, failed)


def test_runs_and_sweeps_end_as_documented(tmp_path, time_limit):
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @example(CROSSING_DOCS[0], 1.0)
    @example(CROSSING_DOCS[1], 0.0)
    @example(GAUSSIAN_DOC, 2.0)
    @example(JACOBIAN_DOC, 40.0)
    @example(TINY_BUDGET_DOC, 1.0)
    @example(ZERO_MASS_DOC, 0.0)
    @example(DET_SLOPE_DOC, 40.0)
    @given(run_docs(), st.sampled_from([0.0, 1.0, 40.0]))
    def check(doc, beta):
        first = _run(doc, tmp_path, "run", time_limit)
        second = _run(dict(doc, kernel={"family": "cucker-smale", "beta": beta}),
                      tmp_path, "run_beta", time_limit)
        _check_sweep(doc, beta, [first, second], tmp_path, time_limit)

    check()


def test_crossings_far_below_the_step_end_in_a_blowup(tmp_path, time_limit):
    # each crossing lies near theta = 1e-146 of its failing step
    times = [_run(doc, tmp_path, f"c{i}", time_limit) for i, doc in enumerate(CROSSING_DOCS)]
    assert [(code, round(math.log10(t))) for code, _, t in times] == [(2, -145), (2, -138)]


def test_gaussian_exponent_of_inf_over_inf_names_sigma(tmp_path, time_limit):
    code, lines, _ = _run(GAUSSIAN_DOC, tmp_path, "g", time_limit)
    assert code == 1 and lines[0].startswith("config error: datum.density.sigma: "), lines


def test_gaussian_of_no_mass_names_sigma(tmp_path, time_limit):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(ZERO_MASS_DOC))
    code, lines = _cli(time_limit, "certify", "--config", str(path))
    assert code == 1 and len(lines) == 1, lines
    assert _run(ZERO_MASS_DOC, tmp_path, "z", time_limit)[1] == lines
    assert lines[0].startswith("config error: datum.density.sigma: too small"), lines


def test_tiny_budget_radius_is_the_budget(tmp_path, time_limit):
    # L(0) = 5e-201 on a box of 1e-300, where the profile is 1 to rounding:
    # the radius that absorbs it is lower + L(0), not the 1.57e-162 at which
    # the kernel integral once stopped underflowing to 0
    path = tmp_path / "c.json"
    path.write_text(json.dumps(TINY_BUDGET_DOC))
    out = io.StringIO()
    with time_limit(20), contextlib.redirect_stdout(out):
        assert main(["certify", "--config", str(path)]) == 0
    cert = json.loads(out.getvalue())
    assert cert["d_star"] == pytest.approx(5e-201, rel=1e-12, abs=0.0)
    assert cert["lhs"] == pytest.approx(5e-201, rel=1e-12, abs=0.0)


def test_backward_jacobian_overflow_certifies_and_blows_up(tmp_path, time_limit):
    # the slope -800 at t = 0 is far below the supercritical root
    path = tmp_path / "c.json"
    path.write_text(json.dumps(JACOBIAN_DOC))
    assert _cli(time_limit, "certify", "--config", str(path)) == (3, [])
    assert _run(JACOBIAN_DOC, tmp_path, "j", time_limit)[0] == 2
