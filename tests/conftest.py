"""Shared test utilities: finite-difference oracles, the per-model sampling
boxes and a fresh-interpreter runner."""

import os
import subprocess
import sys

import numpy as np
import pytest

import bioassay
from bioassay.models import REGISTRY


def fd_gradient(model, u, theta, h_scale=1e-6):
    """Central finite-difference gradient of a model's raw mean function.

    Perturbs each non-integer parameter by h = h_scale * max(1, |theta_i|);
    integer-constrained slots are returned as 0 to mirror the analytic
    gradient's convention.
    """
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    g = np.zeros(len(theta))
    frozen = set(model.frozen_slots)
    for i in range(len(theta)):
        if i in frozen:
            continue
        h = h_scale * max(1.0, abs(theta[i]))
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (model.fn(u, hi) - model.fn(u, lo)) / (2.0 * h)
    return g


def rel_err(a, b):
    """Componentwise |a - b| / max(1, |a|, |b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return np.abs(a - b) / scale


# model id -> (theta box lows, theta box highs, input low, input high): the
# uniform boxes the tests draw parameters and inputs from.  multi-hit draws
# its integer hit count in sample_theta instead of from a box.
SAMPLE_BOXES = {
    "gompertz": ([0.4, 0.3, 0.2], [2.0, 1.2, 0.8], 0.1, 2.5),
    "janoschek": ([-1.0, 0.4, 0.2, 0.5], [2.0, 2.0, 1.0, 2.0], 0.2, 3.0),
    "logistic": ([0.5, 0.3, -1.5], [2.5, 2.5, 1.5], -2.0, 4.0),
    "bertalanffy": ([0.3, 0.3, -0.8], [2.0, 2.0, 0.8], 0.0, 3.0),
    "tanh": ([-2.0, 0.3, 0.3, -1.0], [2.0, 2.0, 2.0, 1.0], -3.0, 3.0),
    "tanh3": ([0.3, 0.3, -1.0], [2.5, 2.0, 1.0], -3.0, 3.0),
    "tanh4": ([-2.0, 0.3, 0.3, -1.0], [2.0, 2.0, 2.0, 1.0], -3.0, 3.0),
    "exp-time-power": ([0.3, -1.5], [2.5, 2.5], 0.2, 4.0),
    "exp-time-power-repar": ([0.0, 0.3, 0.2], [2.5, 2.5, 2.0], 0.2, 4.0),
    "weibull-reconstructed": ([1.0, -0.5, 0.3, 0.5], [3.0, 0.8, 2.0, 2.5], 0.2, 3.0),
    "gen-logistic-i": ([0.5, -1.0, -0.8, -0.5, -0.3], [2.5, 1.0, 0.8, 0.5, 0.3], -1.5, 1.5),
    "gen-logistic-ii": ([0.5, -1.0, -1.5, 0.3], [2.5, 1.0, 1.5, 2.0], 0.2, 4.0),
    "monomolecular": ([0.0, 0.3, 0.2], [2.5, 2.5, 2.0], 0.2, 4.0),
    "one-hit": ([0.2], [2.5], 0.0, 4.0),
    "multi-hit": (None, None, 0.0, 6.0),
    "weibull-cdf": ([0.3, 0.4], [2.3, 2.4], 0.1, 4.0),
    "multistage": ([0.05] * 3, [0.55, 1.55, 1.05], 0.0, 3.0),
    "logit-cdf": ([-2.0, 0.3], [1.0, 2.3], -3.0, 3.0),
    "probit-cdf": ([-2.0, 0.3], [1.0, 2.3], -3.0, 3.0),
    "mm": ([0.3, 0.3], [3.0, 3.0], 0.0, 5.0),
    "mm-two-substrate": ([0.3, 0.1, 0.1, 0.1], [3.0, 1.5, 1.5, 1.5], 0.1, 4.0),
    "hill": ([0.3, 0.3, 0.5], [3.0, 3.0, 3.0], 0.1, 5.0),
    "hill-decreasing": ([0.3, 0.3, 0.5], [3.0, 3.0, 3.0], 0.1, 5.0),
    "mmf": ([0.5, 0.4, -0.5, 0.3], [3.0, 2.5, 0.5, 3.0], 0.2, 5.0),
    "mm-parallel": ([0.3] * 4, [3.0] * 4, 0.0, 5.0),
    "mm-series": ([0.3] * 5, [3.0] * 5, 0.1, 4.0),
    "photo-pmax": ([0.3, 0.3], [3.0, 3.0], 0.0, 5.0),
    "leaf-response": ([0.3, 0.3, 0.0], [3.0, 3.0, 1.0], 0.0, 5.0),
}


def sample_theta(model, rng):
    """Parameter vector uniform on the model's box (hit count 1-5 for multi-hit)."""
    if model.id == "multi-hit":
        return np.array([float(rng.integers(1, 6)), 0.3 + 2.0 * rng.random()])
    lows, highs, _lo, _hi = SAMPLE_BOXES[model.id]
    lows = np.asarray(lows, dtype=float)
    return lows + (np.asarray(highs, dtype=float) - lows) * rng.random(len(lows))


def sample_input(model, rng):
    """Input uniform on the model's interval; a pair for two-input models."""
    _lows, _highs, lo, hi = SAMPLE_BOXES[model.id]
    return lo + (hi - lo) * rng.random(2 if model.input_dim == 2 else None)


def sample_point(model, rng):
    """Random admissible (u, theta) pair for a registry model."""
    theta = sample_theta(model, rng)
    return sample_input(model, rng), theta


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def run_python(*args, **kwargs):
    """Run ``python *args`` in a fresh interpreter that imports the
    ``bioassay`` under test (its ``src`` directory leads ``PYTHONPATH``).

    Returns the completed process with text stdout and stderr captured;
    keyword arguments go to :func:`subprocess.run`.
    """
    src = os.path.dirname(os.path.dirname(bioassay.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, **kwargs)


def all_models():
    return list(REGISTRY.values())


def integer_table_exists(row_marginals, col_marginals):
    """Exhaustive search for a nonnegative integer matrix with the given
    row and column sums (independent oracle for consistency checks).

    Recursion over rows; partial column sums prune branches that already
    overshoot a column target, and the final row is checked exactly.
    """
    rows = tuple(int(v) for v in row_marginals)
    cols = tuple(int(v) for v in col_marginals)
    if any(v < 0 for v in rows + cols):
        return False
    k = len(cols)

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head, *rest)

    suffix_supply = [0] * (len(rows) + 1)
    for i in range(len(rows) - 1, -1, -1):
        suffix_supply[i] = suffix_supply[i + 1] + rows[i]

    def fill(i, col_acc):
        # remaining row supply must exactly cover the remaining column demand
        if suffix_supply[i] != sum(cols) - sum(col_acc):
            return False
        if i == len(rows):
            return col_acc == cols
        for combo in compositions(rows[i], k):
            nxt = tuple(a + b for a, b in zip(col_acc, combo))
            if all(a <= b for a, b in zip(nxt, cols)):
                if fill(i + 1, nxt):
                    return True
        return False

    return fill(0, (0,) * k)
