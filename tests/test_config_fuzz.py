"""Fuzzed config documents: parsing returns or raises ConfigError, nothing else.

Each example takes a valid run or sweep document, deletes keys or list
entries and replaces values (leaves or whole subtrees) with arbitrary JSON.
These are parse-only.  Each unmutated run document also builds a config
that pickles, as a sweep sends it to its worker processes, and its copy
discretizes to the same state.  The last test goes on to discretize and certify small
generated runs whose velocity arrays hold d entries, or in half of them any
number from 1 to 3.
"""

import contextlib
import copy
import io
import json
import pickle
import warnings

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flockdde.cli import main
from flockdde.config import (
    PRESETS,
    ConfigError,
    preset_dict,
    run_config_from_dict,
    sweep_config_from_dict,
)
from flockdde.state import _run_steps, discretize

# words the parser branches on, so replacements reach past the family checks
WORDS = ["random", "linear", "cubic-hermite", "cucker-smale", "tabulated",
         "uniform", "gaussian", "table", "constant", "sine-perturbation",
         "table-of-slices", "box", "nodes", "tau", "kernel.beta"]

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | st.sampled_from(WORDS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(WORDS), inner, max_size=3),
    max_leaves=8,
)


def _rich_doc():
    """A run document through the branches the presets do not take."""
    doc = preset_dict("unconditional-beta025")
    doc["kernel"] = {"family": "tabulated", "radii": [0.0, 1.0, 2.0],
                     "values": [1.0, 0.5, 0.25]}
    doc["datum"] = {
        "domain": {"nodes": [[0.1, 0.2], [0.5, 0.4], [0.9, 0.7]],
                   "weights": [0.3, 0.3, 0.4]},
        "density": {"family": "gaussian", "center": [0.5, 0.5], "sigma": 0.3},
        "velocity": {"family": "table-of-slices", "times": [-0.2, -0.1, 0.0], "fields": [
            {"family": "sine-perturbation", "base": [0.0, 0.0],
             "amplitude": [0.1, 0.1], "wavenumber": [1.0, 2.0], "phase": "random",
             "omega": 1.0},
            {"family": "linear", "matrix": [[0.1, 0.0], [0.0, 0.1]],
             "offset": [0.0, 0.0]},
            {"family": "constant", "value": [0.1, -0.1]},
        ]},
    }
    doc.update(detj_tolerance=1e-6, snapshot_csv=True)
    return doc


def _table_density_doc():
    doc = preset_dict("flat-kernel-decay")
    doc["datum"]["domain"]["counts"] = [4]
    doc["datum"]["density"] = {"family": "table", "values": [1.0, 2.0, 2.0, 1.0]}
    doc["datum"]["velocity"] = {"family": "constant", "value": [0.3]}
    return doc


RUN_DOCS = [preset_dict(name) for name in sorted(PRESETS)] + [
    _rich_doc(), _table_density_doc()]
SWEEP_DOC = {
    "schema_version": 1,
    "base": dict(preset_dict("unconditional-beta025"), t_end=0.2),
    "axes": [{"path": "tau", "values": [0.1, 0.2]},
             {"path": "kernel.beta", "values": [0.0, 1.0]}],
    "max_workers": 2,
    "max_cells": 8,
}


def _locations(node, prefix=()):
    """Every (container path, key) pair in a JSON tree."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix, key
        yield from _locations(child, prefix + (key,))


@st.composite
def mutated(draw, docs):
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        locations = list(_locations(doc))
        if not locations or draw(st.integers(0, 30)) == 0:
            return draw(JSON)  # a root that is not the expected object
        prefix, key = draw(st.sampled_from(locations))
        parent = doc
        for k in prefix:
            parent = parent[k]
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(JSON)
    return doc


def _parses_or_config_error(parse, doc, time_limit):
    with time_limit(5):
        try:
            parse(doc)
        except ConfigError:
            pass


def test_unmutated_documents_parse():
    for doc in RUN_DOCS:
        run_config_from_dict(doc)
    sweep_config_from_dict(SWEEP_DOC)


@pytest.mark.parametrize("doc", RUN_DOCS, ids=[*sorted(PRESETS), "rich", "table-density"])
def test_built_config_pickles_to_the_same_state(doc):
    # a sweep with max_workers >= 2 pickles each cell's built config to a
    # worker: every kernel, velocity and density family must cross unchanged
    cfg = run_config_from_dict(doc)
    copied = pickle.loads(pickle.dumps(cfg))
    assert copied.raw == cfg.raw
    bufs = [discretize(c.datum, c.tau, c.step) for c in (cfg, copied)]
    arrays = [[*b.gather(b.prehistory_clocks()), *b.tangent, b.masses, b.cell_volumes]
              for b in bufs]
    for a, b in zip(*arrays):
        np.testing.assert_array_equal(a, b)
    squares = np.linspace(0.0, 3.0, 7) ** 2
    for a, b in zip(copied.kernel.eval_with_deriv_sq(squares),
                    cfg.kernel.eval_with_deriv_sq(squares)):
        np.testing.assert_array_equal(a, b)


def test_fuzzed_run_documents(time_limit):
    @settings(max_examples=250, derandomize=True, database=None, deadline=None)
    @given(mutated(RUN_DOCS))
    def check(doc):
        _parses_or_config_error(run_config_from_dict, doc, time_limit)

    check()


def test_fuzzed_sweep_documents(time_limit):
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(mutated([SWEEP_DOC]))
    def check(doc):
        _parses_or_config_error(sweep_config_from_dict, doc, time_limit)

    check()


@st.composite
def grid_fields(draw):
    """(tau, step, t_end, output_every): on the step's grid, near it or off it."""
    step = draw(st.sampled_from([1e-3, 2e-3, 5e-3, 0.01, 0.03, 0.1, 0.25, 0.0, -0.01])
                | st.floats(-1.0, 1.0))

    def value():
        return draw(st.integers(-2, 60).map(lambda k: k * step)
                    | st.integers(0, 60).map(lambda k: k * step * (1 + 1e-10))
                    | st.sampled_from([0.0, 1e-10, 1e-12, 0.0015, 0.5, 1e306])
                    | st.floats(-1.0, 2.0))

    return value(), step, value(), value()


def test_config_grid_rules_are_the_run_grid_rules():
    # the config accepts a grid exactly when the stepper's one rule does
    doc = _table_density_doc()

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @example((0.1, 0.01, 1.0, 0.5))   # a frame cadence above the delay
    @example((0.1, 0.01, 1e-10, 0.01))  # t_end 1e-8 steps from 0: rejected
    @example((1.5e-10, 1e-10, 0.0, 1e-10))  # tau 1.5 steps, below 1e-9 of 2 steps
    @example((1e306, 2e-3, 1.0, 2e-3))  # tau / step overflows
    @given(grid_fields())
    def check(fields):
        tau, step, t_end, output_every = fields
        cell = dict(doc, tau=tau, step=step, t_end=t_end, output_every=output_every)
        try:
            _run_steps(tau, step, t_end, output_every)
            stepper = None
        except ValueError as exc:
            stepper = str(exc)
        try:
            run_config_from_dict(cell)
            config = None
        except ConfigError as exc:
            config = str(exc)
        assert (config is None) == (stepper is None), (config, stepper)
        # the config's own range check may speak first on a negative tau or t_end
        if config is not None and "must be >= 0.0" not in config:
            assert config == stepper

    check()


# a few magnitudes whose products, squares or sines leave the float range
VALUES = st.sampled_from([-1.0, -0.3, 0.0, 0.5, 2.0] * 2 + [-1e200, 1e200, 1e300])


def length(d, odd):
    """The dimension d, or with ``odd`` 1 to 3 and d most of the time: a
    field with one odd array passes the checks that one with many odd arrays
    fails first."""
    return st.sampled_from([d, d, d, 1, 2, 3] if odd else [d])


@st.composite
def numbers(draw, d, odd, optional=False):
    """A list of ``length(d, odd)`` numbers, or with ``optional`` sometimes None."""
    if optional and draw(st.integers(0, 4)) == 0:
        return None
    return [draw(VALUES) for _ in range(draw(length(d, odd)))]


@st.composite
def velocity_specs(draw, d, odd, table=True):
    """A velocity spec in d dimensions whose arrays hold d entries, and a
    table one time per field; with ``odd`` its arrays hold 1 to 3 entries and
    a table's times may miss its fields."""
    # tables twice as often: only a table evaluates a field between rows alone
    family = draw(st.sampled_from(["constant", "linear", "sine-perturbation"]
                                  + ["table-of-slices"] * 2 * table))
    spec = {"family": family}
    if family == "constant":
        spec["value"] = draw(numbers(d, odd))
    elif family == "linear":
        rows, cols = draw(length(d, odd)), draw(length(d, odd))
        spec["matrix"] = [[draw(VALUES) for _ in range(cols)] for _ in range(rows)]
        spec["offset"] = draw(numbers(d, odd, optional=True))
    elif family == "sine-perturbation":
        for key in ("base", "amplitude", "wavenumber"):
            spec[key] = draw(numbers(d, odd))
        spec["phase"] = draw(numbers(d, odd, optional=True))
        spec["omega"] = draw(st.sampled_from([0.0, 2.0, 1e300]))
    else:
        n = draw(st.integers(1, 3))
        spec["fields"] = [draw(velocity_specs(d, odd, table=False)) for _ in range(n)]
        # times mostly match the fields, spread over the last 0.1 to 0.3
        k = draw(st.sampled_from([n, n, n, 2, 3] if odd else [n]))
        start = draw(st.sampled_from([-0.3, -0.2, -0.1]))
        spec["times"] = [start * (k - 1 - i) / max(k - 1, 1) for i in range(k)]
    return spec


@st.composite
def small_run_docs(draw):
    """A 1-D or 2-D run of N <= 9 nodes and m <= 4 delay steps of 0.05; its
    velocity spec is well formed half the time, so that half reaches
    discretize and the certificate and the rest mostly the config's checks."""
    counts = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2)
                  | st.integers(1, 9).map(lambda n: [n]))
    # half the boxes are the unit box; the others, and a Gaussian's sigma,
    # span 1e-170 to 1e200, so a cell volume or a 2 sigma^2 under- or overflows
    scale = st.floats(-170.0, 200.0).map(lambda e: 10.0 ** e)
    extents = [draw(scale) for _ in counts] if draw(st.booleans()) else [1.0] * len(counts)
    datum = {"domain": {"box": [[0.0, e] for e in extents], "counts": counts},
             "velocity": draw(velocity_specs(len(counts), draw(st.booleans())))}
    if draw(st.booleans()):
        datum["density"] = {"family": "gaussian", "center": [0.5 * e for e in extents],
                            "sigma": draw(scale)}
    return {"schema_version": 1,
            "kernel": {"family": "cucker-smale", "beta": draw(st.sampled_from([0.0, 1.0]))},
            "datum": datum, "tau": draw(st.integers(0, 4)) * 0.05, "step": 0.05,
            "t_end": 0.1, "output_every": 0.05}


# two documents that once leaked a traceback out of discretize, and now stop
# at the config's length check (tests/test_state.py keeps both as library
# calls, where discretize names their shape and time), and one that fails
# inside discretize: its backward RK4 sum overflows
MATRIX_ROW_DOC = {
    "schema_version": 1, "kernel": {"family": "cucker-smale", "beta": 1.0},
    "datum": {"domain": {"box": [[0.0, 1.0], [0.0, 1.0]], "counts": [3, 3]},
              "velocity": {"family": "linear", "matrix": [[1.0, 2.0]], "offset": [0.0, 0.0]}},
    "tau": 0.1, "step": 0.05, "t_end": 0.1, "output_every": 0.05}
TABLE_FIELD_LENGTH_DOC = {
    "schema_version": 1, "kernel": {"family": "cucker-smale", "beta": 1.0},
    "datum": {"domain": {"box": [[0.0, 1.0]], "counts": [4]},
              "velocity": {"family": "table-of-slices", "times": [-0.2, -0.1, 0.0],
                           "fields": [{"family": "constant", "value": [0.1, 0.2]},
                                      {"family": "constant", "value": [0.1]},
                                      {"family": "constant", "value": [0.2]}]}},
    "tau": 0.2, "step": 0.05, "t_end": 0.1, "output_every": 0.05}
# a cell volume of about 7e-343 rounds to 0, and 2 sigma^2 at sigma = 1e-170
# is 0: both once failed as a zero total mass, the second after a warning
TINY_BOX_DOC = {
    "schema_version": 1, "kernel": {"family": "cucker-smale", "beta": 1.0},
    "datum": {"domain": {"box": [[0.0, 1e-170], [0.0, 1e-170]], "counts": [12, 12]},
              "velocity": {"family": "constant", "value": [0.1, 0.0]}},
    "tau": 0.1, "step": 0.05, "t_end": 0.1, "output_every": 0.05}
TINY_SIGMA_DOC = {
    "schema_version": 1, "kernel": {"family": "cucker-smale", "beta": 1.0},
    "datum": {"domain": {"box": [[0.0, 1.0]], "counts": [16]},
              "density": {"family": "gaussian", "center": [0.5], "sigma": 1e-170},
              "velocity": {"family": "constant", "value": [0.1]}},
    "tau": 0.1, "step": 0.05, "t_end": 0.1, "output_every": 0.05}
OVERFLOW_DOC = {
    "schema_version": 1, "kernel": {"family": "cucker-smale", "beta": 1.0},
    "datum": {"domain": {"box": [[0.0, 1.0]], "counts": [4]},
              "velocity": {"family": "constant", "value": [1e308]}},
    "tau": 0.2, "step": 0.05, "t_end": 0.1, "output_every": 0.05}


def _velocity_doc(box, velocity, tau):
    """A 1-D run of 4 nodes on ``box`` under one velocity spec."""
    return {"schema_version": 1, "kernel": {"family": "cucker-smale", "beta": 1.0},
            "datum": {"domain": {"box": [box], "counts": [4]}, "velocity": velocity},
            "tau": tau, "step": 0.05, "t_end": 0.1, "output_every": 0.05}


def _sine(amplitude, wavenumber, omega=0.0):
    return {"family": "sine-perturbation", "base": [0.0], "amplitude": [amplitude],
            "wavenumber": [wavenumber], "omega": omega}


# fields whose value, gradient or time partial leaves the float range: each
# once printed a RuntimeWarning before its verdict or error
FIELD_OVERFLOW_DOCS = [
    _velocity_doc([0.0, 1.0], _sine(1e300, 1e100), 0.0),  # amplitude * wavenumber
    _velocity_doc([0.0, 1e10], _sine(0.4, 1e300), 0.1),  # wavenumber * x, its sine
    _velocity_doc([0.0, 1e300], {"family": "linear", "matrix": [[1e300]]}, 0.0),
    _velocity_doc([0.0, 1.0], _sine(1e10, 1.0, omega=1e300), 0.05),  # amplitude * omega
    _velocity_doc([0.0, 1.0], _sine(1e200, 1.0), 0.0),  # a gradient's square
]


def test_certify_on_velocity_arrays_of_any_length(tmp_path, time_limit):
    # certify discretizes the datum: it ends in a verdict or one config
    # error, and no warning
    path = tmp_path / "c.json"

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @example(MATRIX_ROW_DOC)
    @example(TABLE_FIELD_LENGTH_DOC)
    @example(OVERFLOW_DOC)
    @example(TINY_BOX_DOC)
    @example(TINY_SIGMA_DOC)
    @example(FIELD_OVERFLOW_DOCS[0])
    @example(FIELD_OVERFLOW_DOCS[1])
    @example(FIELD_OVERFLOW_DOCS[2])
    @example(FIELD_OVERFLOW_DOCS[3])
    @example(FIELD_OVERFLOW_DOCS[4])
    @given(small_run_docs())
    def check(doc):
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with time_limit(5), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["certify", "--config", str(path)])
        lines = err.getvalue().splitlines()
        assert not caught, [str(w.message) for w in caught]
        assert (code in (0, 3) and not lines) or (
            code == 1 and len(lines) == 1 and lines[0].startswith("config error: ")), (
            code, lines)

    check()
