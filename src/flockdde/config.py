"""Scenario configuration: JSON schema, validation, presets.

A run config is a single JSON document with a ``schema_version`` field.  It
is parsed into a :class:`RunConfig` holding live kernel/datum objects plus
the normalized dict (used for deterministic echoes into summaries).  Sweep
configs wrap a base run config with parameter axes addressed by dotted paths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .dynamics import DETJ_TOLERANCE
from .kernel import CuckerSmaleKernel, TabulatedKernel
from .state import (
    BoxDomain,
    ConstantVelocity,
    InitialDatum,
    LinearVelocity,
    NodeSet,
    SineVelocity,
    SliceTableVelocity,
    _run_steps,
)

__all__ = ["ConfigError", "RunConfig", "SweepConfig", "PRESETS",
           "load_run_config", "load_sweep_config", "run_config_from_dict",
           "sweep_config_from_dict", "preset_dict"]

SCHEMA_VERSION = 1
DEFAULT_MAX_CELLS = 1024


class ConfigError(Exception):
    """Malformed configuration; the message names the offending field."""


# The keys of each mapping, per family where it has one.  Any other key is an
# error, so a misspelled optional field is not read as an absent one.
_RUN_KEYS = ("schema_version kernel datum tau step t_end output_every seed interpolation "
             "snapshot_csv n_history_slices detj_tolerance")
_KERNEL_KEYS = {"cucker-smale": "beta", "tabulated": "radii values"}
_DENSITY_KEYS = {"uniform": "", "gaussian": "center sigma", "table": "values"}
_VELOCITY_KEYS = {"constant": "value", "linear": "matrix offset", "table-of-slices": "times fields",
                  "sine-perturbation": "base amplitude wavenumber phase omega"}


def _known(mapping, path, keys):
    """Reject the first key of ``mapping`` that is not a word of ``keys``."""
    for key in mapping:
        if key not in keys.split():
            raise ConfigError(f"{path}.{key}: unknown field")


def _family(spec, path, table):
    """``spec``'s family; its keys are checked when ``table`` has it."""
    family = _need(spec, "family", path)
    if isinstance(family, str) and family in table:
        _known(spec, path, "family " + table[family])
    return family


def _need(mapping, key, path):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected a mapping")
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing required field")
    return mapping[key]


def _numeric(value):
    """Whether ``value`` holds no boolean and no string, also in nested lists."""
    if isinstance(value, list):
        return all(map(_numeric, value))
    return not isinstance(value, (bool, str))


def _number(convert, value, path, expected):
    """``convert(value)``, else a ConfigError naming ``path``; so is a boolean
    or a string, which ``float`` and NumPy would read as 1 or as "0.5"'s 0.5."""
    try:
        if not _numeric(value):
            raise TypeError
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path}: expected {expected}, got {value!r}") from None


def _real(value, path, minimum=None):
    out = _number(float, value, path, "a real number")
    if not math.isfinite(out):
        raise ConfigError(f"{path}: must be finite")
    if minimum is not None and out < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {out}")
    return out


def _integer(value, path):
    """``value`` as an int; a fractional number is an error, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return _number(int, value, path, "an integer")


def _array(value, path):
    """``value`` as a float array of finite numbers."""
    out = _number(lambda v: np.asarray(v, dtype=float), value, path, "numbers")
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"{path}: must be finite numbers, got {value!r}")
    return out


def _build_kernel(spec):
    family = _family(spec, "kernel", _KERNEL_KEYS)
    if family == "cucker-smale":
        return CuckerSmaleKernel(_real(_need(spec, "beta", "kernel"), "kernel.beta", minimum=0.0))
    if family == "tabulated":
        radii, values = (_array(_need(spec, key, "kernel"), f"kernel.{key}")
                         for key in ("radii", "values"))
        try:
            return TabulatedKernel(radii, values)
        except ValueError as exc:
            raise ConfigError(f"kernel: {exc}") from None
    raise ConfigError(f"kernel.family: unknown kernel family {family!r}")


def _build_density(spec, path, dim):
    if spec is None:
        return None
    family = _family(spec, path, _DENSITY_KEYS)
    if family == "uniform":
        return None
    if family == "gaussian":
        center = _array(_need(spec, "center", path), f"{path}.center")
        if center.shape != (dim,):
            raise ConfigError(f"{path}.center: expected {dim} numbers, got {center.tolist()}")
        sigma = _real(_need(spec, "sigma", path), f"{path}.sigma", minimum=0.0)
        if not 2 * sigma * sigma > 0:  # the exponent's divisor, 0 when sigma^2 underflows
            raise ConfigError(f"{path}.sigma: must be positive, with 2 sigma^2 above 0, got {sigma}")

        def gaussian(x, center=center, sigma=sigma):
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowing square gives 0
                exponent = -((x - center[None, :]) ** 2).sum(axis=1) / (2 * sigma * sigma)
            if np.isnan(exponent).any():  # inf / inf: 2 sigma^2 and a square overflow
                raise ConfigError(f"{path}.sigma: too large for the domain, got {sigma}")
            values = np.exp(exponent)
            if not values.any():  # no mass: e^exponent underflows to 0 at every node
                raise ConfigError(f"{path}.sigma: too small for the domain, got {sigma}")
            return values

        return gaussian
    if family == "table":
        return _array(_need(spec, "values", path), f"{path}.values")
    raise ConfigError(f"{path}.family: unknown density family {family!r}")


def _build_velocity(spec, path, seed, dim):
    family = _family(spec, path, _VELOCITY_KEYS)

    def numbers(key, optional=False, shape=(dim,)):
        if optional and spec.get(key) is None:
            return None
        out = _array(_need(spec, key, path), f"{path}.{key}")
        if out.shape != shape:
            raise ConfigError(f"{path}.{key}: expected {'x'.join(map(str, shape))} numbers, "
                              f"got {out.tolist()}")
        return out

    if family == "constant":
        return ConstantVelocity(numbers("value"))
    if family == "linear":
        return LinearVelocity(numbers("matrix", shape=(dim, dim)),
                              numbers("offset", optional=True))
    if family == "sine-perturbation":
        if spec.get("phase") == "random":
            if seed < 0:
                raise ConfigError("seed: must be >= 0 to draw a random phase")
            phase = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, dim)
        else:
            phase = numbers("phase", optional=True)
        return SineVelocity(numbers("base"), numbers("amplitude"),
                            numbers("wavenumber"), phase,
                            omega=_real(spec.get("omega", 0.0), f"{path}.omega"))
    if family == "table-of-slices":
        times = _array(_need(spec, "times", path), f"{path}.times")
        fields = _need(spec, "fields", path)
        if not isinstance(fields, list):
            raise ConfigError(f"{path}.fields: expected a list")
        fields = [_build_velocity(s, f"{path}.fields[{i}]", seed, dim)
                  for i, s in enumerate(fields)]
        try:
            return SliceTableVelocity(times, fields)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(f"{path}.family: unknown velocity family {family!r}")


def _build_datum(spec, path, seed):
    domain_spec = _need(spec, "domain", path)
    _known(spec, path, "domain density velocity")
    if not isinstance(domain_spec, dict):
        raise ConfigError(f"{path}.domain: expected a mapping")
    _known(domain_spec, f"{path}.domain", "box counts" if "box" in domain_spec else "nodes weights")
    if "box" in domain_spec:
        box = _array(domain_spec["box"], f"{path}.domain.box")
        if box.ndim != 2 or box.shape[1] != 2:
            raise ConfigError(f"{path}.domain.box: expected [[lo, hi], ...] per axis")
        counts = _need(domain_spec, "counts", f"{path}.domain")
        counts = [_integer(c, f"{path}.domain.counts")
                  for c in (counts if isinstance(counts, list) else [counts])]
        try:
            domain = BoxDomain(box[:, 0], box[:, 1], counts)
        except ValueError as exc:
            raise ConfigError(f"{path}.domain: {exc}") from None
        dim = box.shape[0]
    elif "nodes" in domain_spec:
        try:
            domain = NodeSet(_array(domain_spec["nodes"], f"{path}.domain.nodes"),
                             _array(_need(domain_spec, "weights", f"{path}.domain"),
                                    f"{path}.domain.weights"))
        except ValueError as exc:
            raise ConfigError(f"{path}.domain: {exc}") from None
        dim = domain.nodes.shape[1]
    else:
        raise ConfigError(f"{path}.domain: needs either 'box' or 'nodes'")
    density = _build_density(spec.get("density"), f"{path}.density", dim)
    velocity = _build_velocity(_need(spec, "velocity", path),
                               f"{path}.velocity", seed, dim)
    return InitialDatum(domain, velocity, density)


@dataclass
class RunConfig:
    """Validated scenario: live objects plus the normalized config dict."""

    kernel: object
    datum: InitialDatum
    tau: float
    step: float
    t_end: float
    output_every: float
    snapshot_csv: bool = False
    raw: dict = field(default_factory=dict)


def run_config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    _known(doc, "config", _RUN_KEYS)
    kernel = _build_kernel(_need(doc, "kernel", "config"))
    tau = _real(_need(doc, "tau", "config"), "tau", minimum=0.0)
    step = _real(_need(doc, "step", "config"), "step")
    t_end = _real(_need(doc, "t_end", "config"), "t_end", minimum=0.0)
    output_every = _real(doc.get("output_every", step), "output_every")
    seed = _integer(doc.get("seed", 0), "seed")
    datum = _build_datum(_need(doc, "datum", "config"), "datum", seed)
    try:
        m = _run_steps(tau, step, t_end, output_every)[0]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # the history is always cubic Hermite; the key stays for schema-v1 echoes
    if doc.get("interpolation", "cubic-hermite") != "cubic-hermite":
        raise ConfigError("interpolation: only cubic-hermite is supported, "
                          f"got {doc['interpolation']!r}")
    snapshot_csv = doc.get("snapshot_csv", False)
    if not isinstance(snapshot_csv, bool):
        raise ConfigError(f"snapshot_csv: expected true or false, got {snapshot_csv!r}")
    # the history keeps one slice per step; the key stays for schema-v1 echoes
    n_hist = doc.get("n_history_slices")
    if n_hist is not None and _integer(n_hist, "n_history_slices") != m + 1:
        raise ConfigError(f"n_history_slices: only one slice per step on "
                          f"[-tau, 0] ({m + 1}) is supported, got {n_hist!r}")
    # blow-up is one rule, min det J <= DETJ_TOLERANCE; the key stays for
    # schema-v1 echoes
    if "detj_tolerance" in doc and _real(doc["detj_tolerance"],
                                         "detj_tolerance") != DETJ_TOLERANCE:
        raise ConfigError(f"detj_tolerance: only {DETJ_TOLERANCE:g} is supported, "
                          f"got {doc['detj_tolerance']!r}")
    return RunConfig(
        kernel=kernel, datum=datum, tau=tau, step=step, t_end=t_end,
        output_every=output_every, snapshot_csv=snapshot_csv,
        raw=json.loads(json.dumps(doc)),
    )


def _read_json(path, what):
    """The JSON document at ``path``; an unreadable file or bad JSON is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def load_run_config(path) -> RunConfig:
    return run_config_from_dict(_read_json(path, "config"))


@dataclass
class SweepConfig:
    """A validated sweep: ``axes`` holds the dotted paths, each once,
    ``cells`` the ``(coords, doc)`` pairs in row-major axis order, each
    ``doc`` a run config built and checked once, on load, and ``coords`` its
    value per path."""

    axes: list
    cells: list
    max_workers: int


def _set_by_path(doc, dotted, value):
    keys = dotted.split(".")
    node = doc
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"axes path {dotted!r}: {key!r} not found in base config")
        node = node[key]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise ConfigError(f"axes path {dotted!r}: leaf {keys[-1]!r} not found in base config")
    node[keys[-1]] = value


def sweep_config_from_dict(doc: dict) -> SweepConfig:
    if not isinstance(doc, dict):
        raise ConfigError("sweep config root: expected a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}")
    _known(doc, "sweep", "schema_version base axes max_workers max_cells")
    base = _need(doc, "base", "sweep")
    run_config_from_dict(base)  # validate the base eagerly
    axes_spec = _need(doc, "axes", "sweep")
    if not isinstance(axes_spec, list) or not axes_spec:
        raise ConfigError("axes: must be a non-empty list")
    paths, value_lists = [], []
    for i, axis in enumerate(axes_spec):
        path = _need(axis, "path", f"axes[{i}]")
        _known(axis, f"axes[{i}]", "path values")
        if not isinstance(path, str):
            raise ConfigError(f"axes[{i}].path: expected a dotted string, got {path!r}")
        values = _need(axis, "values", f"axes[{i}]")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"axes[{i}].values: must be a non-empty list")
        if path in paths:
            raise ConfigError(f"axes[{i}].path: {path!r} repeats axes[{paths.index(path)}]")
        paths.append(path)
        value_lists.append(values)
    max_cells = _integer(doc.get("max_cells", DEFAULT_MAX_CELLS), "max_cells")
    total = math.prod(map(len, value_lists))
    if total > max_cells:
        raise ConfigError(f"axes: grid size {total} exceeds max_cells {max_cells}")
    max_workers = _integer(doc.get("max_workers", 1), "max_workers")
    if max_workers < 1:
        raise ConfigError("max_workers: must be >= 1")
    cells = []
    for combo in product(*value_lists):
        coords, cell = dict(zip(paths, combo)), json.loads(json.dumps(base))
        for path, value in coords.items():
            _set_by_path(cell, path, value)
        try:
            run_config_from_dict(cell)
        except ConfigError as exc:
            raise ConfigError(f"cell {coords}: {exc}") from None
        cells.append((coords, cell))
    return SweepConfig(axes=paths, cells=cells, max_workers=max_workers)


def load_sweep_config(path) -> SweepConfig:
    return sweep_config_from_dict(_read_json(path, "sweep config"))


PRESETS = {
    # flat kernel: velocity differences obey y' = -y, so the fitted decay
    # rate is 1 and the final d_V matches d_V(0) e^{-t_end}
    "flat-kernel-decay": {
        "schema_version": 1,
        "kernel": {"family": "cucker-smale", "beta": 0.0},
        "datum": {
            "domain": {"box": [[0.0, 1.0]], "counts": [64]},
            "density": {"family": "uniform"},
            "velocity": {"family": "linear", "matrix": [[0.5]], "offset": [0.0]},
        },
        "tau": 0.5, "step": 0.001, "t_end": 5.0, "output_every": 0.01,
        "interpolation": "cubic-hermite", "seed": 0,
    },
    # heavy tail (beta <= 1/2): the certificate holds for any datum and delay
    "unconditional-beta025": {
        "schema_version": 1,
        "kernel": {"family": "cucker-smale", "beta": 0.25},
        "datum": {
            "domain": {"box": [[0.0, 1.0]], "counts": [32]},
            "density": {"family": "uniform"},
            "velocity": {"family": "sine-perturbation", "base": [0.0],
                          "amplitude": [0.4], "wavenumber": [1.5], "phase": [0.4]},
        },
        "tau": 0.2, "step": 0.002, "t_end": 5.0, "output_every": 0.01,
        "interpolation": "cubic-hermite", "seed": 0,
    },
    # steep negative slope: Jacobian hits zero at ln 2, inside the classifier
    # bound 1/(w2_minus - w0) = 1
    "riccati-blowup": {
        "schema_version": 1,
        "kernel": {"family": "cucker-smale", "beta": 0.0},
        "datum": {
            "domain": {"box": [[0.0, 1.0]], "counts": [64]},
            "density": {"family": "uniform"},
            "velocity": {"family": "linear", "matrix": [[-2.0]], "offset": [0.0]},
        },
        "tau": 0.1, "step": 0.001, "t_end": 2.0, "output_every": 0.005,
        "interpolation": "cubic-hermite", "seed": 0,
    },
}


def preset_dict(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return json.loads(json.dumps(PRESETS[name]))
