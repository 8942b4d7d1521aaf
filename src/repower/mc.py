"""Monte-Carlo verification of the closed-form power expressions.

The simulator generates replication data on an absolute scale: a
nominal original study of size ``n_o`` with unit-variance observations,
a true effect drawn from the method's design prior, and sample means
with their exact sampling noise.  Success is then judged exactly as the
corresponding analysis would judge it (a z-test at level alpha, or a
posterior tail probability compared with alpha_tilde / 2).  The
simulator shares no algebra with the closed forms beyond scipy's
``ndtri``, which turns uniforms into normals (not the package's
Newton-polished ``std_normal_quantile``), so agreement within binomial
error is a genuine check.

Reproducibility: simulations are carved into fixed-size batches, each
batch seeded independently from ``(seed, batch_index)`` through a
counter-based generator, and only integer success counts are reduced.
Results are therefore identical whether batches run sequentially or in
parallel, and independent of batch scheduling.
"""
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import _methods, design
from .design import DEFAULT_CONFIG, METHODS_FIXED, shrunken_zo
from .normal import std_normal_cdf

BATCH_SIZE = 1 << 16
_INV53 = 2.0 ** -53


@dataclass(frozen=True)
class SimSpec:
    """One simulation task: a method, its inputs, and the RNG seed."""

    method: str
    c: float
    zo: float = None
    zi: float = None
    f: float = None
    n_sims: int = 100_000
    seed: int = 0
    n_o: float = 1000.0
    config: object = DEFAULT_CONFIG

    def __post_init__(self):
        entry = _methods._lookup(self.method)
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise ValueError("c must be positive and finite")
        if not (isinstance(self.n_sims, (int, np.integer))
                and self.n_sims >= 1000):
            raise ValueError("n_sims must be an integer of at least 1000")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError("seed must be a nonnegative integer")
        object.__setattr__(self, "n_sims", int(self.n_sims))
        object.__setattr__(self, "seed", int(self.seed))
        if not (np.isfinite(self.n_o) and self.n_o > 0.0):
            raise ValueError("n_o must be positive and finite")
        entry.check(self.zo, self.zi, (self.f,), noun="inputs")
        if entry.interim and (self.f is None or not 0.0 < self.f < 1.0):
            raise ValueError(f"{self.method} requires f in (0, 1)")


@dataclass(frozen=True)
class SimResult:
    """Estimated power with its binomial standard error."""

    method: str
    estimate: float
    std_err: float
    n_sims: int
    n_success: int
    seed: int


def closed_form(spec):
    """The closed-form power the simulation is meant to reproduce."""
    return design._power(spec.method, spec.zo, spec.zi, spec.c, spec.f,
                         spec.config)


def _uniforms(gen, size):
    """Uniform draws strictly inside (0, 1) from 53-bit integers."""
    return gen.integers(1, 1 << 53, size=size) * _INV53


def _normals(gen, size):
    # k * 2**-53 is strictly inside (0, 1): no checks; Newton adds no accuracy
    return ndtri(_uniforms(gen, size))


def _batch_generator(seed, index):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(seq))


def _flat_success(stat, config):
    za = config.z_alpha
    success = stat > -za
    if config.both_tails:
        success = success | (stat < za)
    return success


def _pooled_success(zpost, config):
    level = 0.5 * config.alpha_tilde
    success = std_normal_cdf(-zpost) < level
    if config.both_tails:
        success = success | (std_normal_cdf(zpost) < level)
    return success


def _batch_successes(spec, gen, size):
    cfg = spec.config
    n_o = spec.n_o
    n_r = spec.c * n_o
    if spec.zo is not None:
        theta_d = shrunken_zo(spec.zo, cfg) / np.sqrt(n_o)
    if spec.method in METHODS_FIXED:
        if spec.method in ("PP", "FBP"):
            theta = theta_d + _normals(gen, size) / np.sqrt(n_o)
        else:
            theta = theta_d
        ybar = theta + _normals(gen, size) / np.sqrt(n_r)
        if spec.method in ("CP", "PP"):
            success = _flat_success(ybar * np.sqrt(n_r), cfg)
        else:
            post = (n_o * theta_d + n_r * ybar) / (n_o + n_r)
            success = _pooled_success(post * np.sqrt(n_o + n_r), cfg)
    else:
        n_i = spec.f * n_r
        n_j = n_r - n_i
        theta_i = spec.zi / np.sqrt(n_i)
        if spec.method == "CPi":
            theta = theta_d
        elif spec.method == "IPPi":
            post = (n_o * theta_d + n_i * theta_i) / (n_o + n_i)
            theta = post + _normals(gen, size) / np.sqrt(n_o + n_i)
        else:
            theta = theta_i + _normals(gen, size) / np.sqrt(n_i)
        ybar_j = theta + _normals(gen, size) / np.sqrt(n_j)
        pooled = (n_i * theta_i + n_j * ybar_j) / n_r
        success = _flat_success(pooled * np.sqrt(n_r), cfg)
    return int(np.count_nonzero(success))


def simulate_power(spec):
    """Estimate the method's power by direct simulation.

    Returns
    -------
    SimResult
    """
    successes = 0
    done = 0
    index = 0
    while done < spec.n_sims:
        size = min(BATCH_SIZE, spec.n_sims - done)
        gen = _batch_generator(spec.seed, index)
        successes += _batch_successes(spec, gen, size)
        done += size
        index += 1
    p = successes / spec.n_sims
    std_err = float(np.sqrt(p * (1.0 - p) / spec.n_sims))
    return SimResult(method=spec.method, estimate=p, std_err=std_err,
                     n_sims=spec.n_sims, n_success=successes,
                     seed=spec.seed)
