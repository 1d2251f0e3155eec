"""Seeded workload configs for the benchmark.

Each workload fixes N, d, beta, tau, h and the frame cadence; the seed only
draws the datum's sine phases and its amplitudes from a fixed range, so every
seed gives the same amount of work and the same certificate branches.  The
program under test receives nothing but the generated config JSON.
"""

from __future__ import annotations

import copy
import itertools
import math
import os

import numpy as np

# Run lengths, in RK4 steps per run or per sweep cell.
STEPS = {"large-n-2d": 4, "long-run-1d": 2000, "sweep-2x3": 600}


def _sine_velocity(rng, dim, amp_range, wavenumber):
    return {
        "family": "sine-perturbation",
        "base": [0.0] * dim,
        "amplitude": [float(a) for a in rng.uniform(*amp_range, size=dim)],
        "wavenumber": list(wavenumber),
        "phase": [float(p) for p in rng.uniform(0.0, 2 * math.pi, size=dim)],
    }


def _run_doc(beta, box, counts, density, velocity, h, tau_steps, every,
             n_steps):
    return {
        "schema_version": 1,
        "kernel": {"family": "cucker-smale", "beta": beta},
        "datum": {"domain": {"box": box, "counts": counts},
                  "density": density, "velocity": velocity},
        "tau": tau_steps * h,
        "step": h,
        "t_end": n_steps * h,
        "output_every": every * h,
        "interpolation": "cubic-hermite",
        "seed": 0,
    }


def large_n_2d(rng, n_steps):
    velocity = _sine_velocity(rng, 2, (0.1, 0.3), (3.0, 2.0))
    density = {"family": "gaussian", "center": [0.5, 0.5], "sigma": 0.3}
    return _run_doc(1.0, [[0.0, 1.0], [0.0, 1.0]], [32, 32], density,
                    velocity, h=0.01, tau_steps=5, every=2, n_steps=n_steps)


def long_run_1d(rng, n_steps):
    # amplitude * wavenumber stays below 0.5, far from the slope -1 at which
    # the characteristics can cross
    velocity = _sine_velocity(rng, 1, (0.1, 0.2), (2.0,))
    return _run_doc(1.0, [[0.0, 1.0]], [16], {"family": "uniform"}, velocity,
                    h=0.005, tau_steps=100, every=1, n_steps=n_steps)


def sweep_2x3(rng, n_steps):
    # half a period over the unit box makes d_V(0) at least the amplitude, so
    # amplitudes in [0.16, 0.22] put beta = 2 on the not-satisfied branch
    # (budget above the tail, ~0.15) and beta = 0.75 on the satisfied branch
    # with the tail-budget bisection; beta = 0 has an infinite tail
    velocity = _sine_velocity(rng, 1, (0.16, 0.22), (math.pi,))
    base = _run_doc(1.0, [[0.0, 1.0]], [128], {"family": "uniform"}, velocity,
                    h=0.002, tau_steps=50, every=5, n_steps=n_steps)
    return {
        "schema_version": 1,
        "base": base,
        "axes": [{"path": "tau", "values": [0.1, 0.4]},
                 {"path": "kernel.beta", "values": [0.0, 0.75, 2.0]}],
        "max_workers": os.cpu_count() or 1,
    }


BUILDERS = {"large-n-2d": large_n_2d, "long-run-1d": long_run_1d,
            "sweep-2x3": sweep_2x3}
COMMANDS = {"large-n-2d": "run", "long-run-1d": "run", "sweep-2x3": "sweep"}

# Certificate branch each sweep cell is built to reach, by kernel beta.
SWEEP_BRANCH = {0.0: "infinite", 0.75: "satisfied", 2.0: "not-satisfied"}


def make_config(workload: str, seed: int, setup_only: bool = False) -> dict:
    """Config document for ``workload``; ``setup_only`` sets t_end to 0."""
    rng = np.random.default_rng(seed)
    return BUILDERS[workload](rng, 0 if setup_only else STEPS[workload])


def run_docs(workload: str, doc: dict) -> list[dict]:
    """The run configs a command executes: itself, or each sweep cell in the
    row-major order of the axes."""
    if COMMANDS[workload] == "run":
        return [doc]
    cells = []
    for combo in itertools.product(*(a["values"] for a in doc["axes"])):
        cell = copy.deepcopy(doc["base"])
        for axis, value in zip(doc["axes"], combo):
            *parents, leaf = axis["path"].split(".")
            node = cell
            for key in parents:
                node = node[key]
            node[leaf] = value
        cells.append(cell)
    return cells


def expected_branches(workload: str, docs: list[dict]) -> list:
    """Certificate branch per run config, or None where the seed decides."""
    if COMMANDS[workload] == "run":
        return [None] * len(docs)
    return [SWEEP_BRANCH[d["kernel"]["beta"]] for d in docs]
