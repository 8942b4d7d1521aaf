"""Monte-Carlo verification of the closed-form power expressions.

The simulator generates replication data on an absolute scale: a
nominal original study of size ``n_o`` with unit-variance observations,
a true effect drawn from the method's design prior, and sample means
with their exact sampling noise.  Success is then judged exactly as the
corresponding analysis would judge it: a z-test at level alpha, or a
posterior tail probability below alpha_tilde / 2, which is the event
that the posterior z-statistic lies beyond the critical value
``z_alpha_tilde``.  The simulator reads the priors from the method
table: the design prior (point, normal or flat) sets how the effect is
drawn, the analysis prior (flat or normal) the statistic and its
critical value.  It shares no algebra with the closed forms beyond
scipy's ``ndtri``, which turns uniforms into normals, so agreement
within binomial error is a genuine check.  scipy is imported when a
simulation starts, so importing the package does not load it.

The verdicts are exact, not the normals.  A draw's normal is ndtri of
its 53-bit integer times 2^-53, and the statistic is affine in the
draw's normals.  The integer's top 12 bits name a bin, and ndtri at the
bins' edges, a table built on the first simulation, bounds the
statistic.  ndtri runs on those edges and on the few draws whose bounds,
widened for rounding, straddle a critical value; the others are judged
from their bounds, so each count is the one all the normals would give.

Reproducibility: simulations are carved into fixed-size batches, each
batch seeded independently from ``(seed, batch_index)`` through a
counter-based generator, and only integer success counts are summed.
The batches run one after another on the calling thread, and a call
keeps no state but the table, so a spec and its seed fix the count.
"""
import math
import numbers
from dataclasses import dataclass

from . import _methods, design
from .design import DEFAULT_CONFIG, shrunken_zo

BATCH_SIZE = 1 << 16
_INV53 = 2.0 ** -53
_CHUNK = 1 << 14          # draws per array inside a batch
_BIN = 41                 # a draw's bin: the top 12 of its 53 bits
_MARGIN = 2.0 ** -40      # of the statistic's scale: far above rounding
_EDGES = []               # ndtri at each bin's least and largest integer


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

    _RULES = (("c", _methods.positive), ("n_o", _methods.positive),
              ("f", _methods.unit))
    _OPTIONAL = ("f",)

    def __post_init__(self):
        entry = _methods._lookup(self.method)
        _methods.settle(self)
        design._a_config("config", self.config)
        if not (isinstance(self.n_sims, numbers.Integral)
                and self.n_sims >= 1000):
            raise ValueError("n_sims must be an integer of at least 1000")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError("seed must be a nonnegative integer")
        object.__setattr__(self, "n_sims", int(self.n_sims))
        object.__setattr__(self, "seed", int(self.seed))
        zo, zi = entry.check(self.zo, self.zi, (self.f,))
        object.__setattr__(self, "zo", zo)
        object.__setattr__(self, "zi", zi)
        if entry.interim and self.f is None:
            raise ValueError(f"{self.method} requires f in (0, 1)")
        _methods.size("c * (1 - f)" if entry.interim else "c",
                      self.c * (1.0 - self.f) if entry.interim else self.c)


_a_spec = _methods.record(SimSpec)


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
    _a_spec("spec", spec)
    return design._power(spec.method, spec.zo, spec.zi, spec.c, spec.f,
                         spec.config)


def _successes(spec):
    """Successes in all of the spec's batches.

    Each batch is drawn and judged as ``Method.priors`` say.  The spec's
    scalars and the bounds' tables are worked out once per call.  A
    batch is worked through in chunks of ``_CHUNK`` draws, whose arrays
    stay in the CPU's cache; the generator gives the same stream in
    chunks as in one call.
    """
    import numpy as np
    from scipy.special import ndtri
    cfg = spec.config
    design_prior, analysis_prior = _methods.METHODS[spec.method].priors
    n_o = spec.n_o
    n_r = spec.c * n_o
    n_i = 0.0 if spec.f is None else spec.f * n_r     # fixed: n_i = 0
    n_j = n_r - n_i
    theta_d = (None if spec.zo is None
               else shrunken_zo(spec.zo, cfg) / math.sqrt(n_o))
    theta_i = spec.zi / math.sqrt(n_i) if n_i else None
    # the effect is shift + z / scale, or shift where scale is inf
    if design_prior == "point":
        shift, scale = theta_d, math.inf
    elif design_prior == "flat":        # the stage-1 data alone
        shift, scale = theta_i, math.sqrt(n_i)
    elif n_i:                           # the original updated by stage 1
        shift, scale = ((n_o * theta_d + n_i * theta_i) / (n_o + n_i),
                        math.sqrt(n_o + n_i))
    else:
        shift, scale = theta_d, math.sqrt(n_o)
    # the statistic is root * (offset + weight * ybar) / total
    if analysis_prior == "normal":      # pooled with the original
        weight, offset, total = n_r, n_o * theta_d, n_o + n_r
        root, z_crit = math.sqrt(n_o + n_r), cfg.z_alpha_tilde
    else:
        # the mean over both stages, ybar itself in a fixed design
        weight, offset, total = (n_j, n_i * theta_i, n_r) if n_i else (
            1.0, 0.0, 1.0)
        root, z_crit = math.sqrt(n_r), cfg.z_alpha
    noise = math.sqrt(n_j)
    both_tails = cfg.both_tails
    inv_noise = 1.0 / noise if noise else math.inf
    # the statistic is a0 + a1 z1 + a2 z2; ``big`` bounds each step of
    # the exact pipeline scaled to it (|z| < 9), floored for subnormal
    # steps, and the margin covers their rounding, the tables' and ndtri's
    tiny = 2.0 ** -1000
    big = (((9.0 * inv_noise + 9.0 / scale + abs(shift) + tiny) * weight
            + abs(offset) + tiny) / total + tiny) * root + tiny
    margin = _MARGIN * (big + abs(z_crit))
    a1, a2 = (weight * v / total * root for v in (1.0 / scale, inv_noise))
    a0 = (weight * shift + offset) / total * root
    if not margin < math.inf:   # past the floats: every draw is redone
        a0 = a1 = a2 = 0.0
    if not _EDGES:      # on the first simulation
        first = np.arange(1 << (53 - _BIN), dtype=np.int64) << _BIN
        _EDGES[:] = (ndtri(np.maximum(first, 1) * _INV53),
                     ndtri((first + ((1 << _BIN) - 1)) * _INV53))
    noise_lo, noise_hi, effect_lo, effect_hi = (
        edge * a + b for a, b in ((a2, a0), (a1, 0.0)) for edge in _EDGES)

    def normals(k, shift, scale):
        # shift + z / scale, in place; k * 2**-53 is strictly inside
        # (0, 1), so ndtri needs no checks
        z = np.multiply(k, _INV53)
        ndtri(z, out=z)
        np.divide(z, scale, out=z)
        return np.add(z, shift, out=z)

    count = 0
    for index, done in enumerate(range(0, spec.n_sims, BATCH_SIZE)):
        size = min(BATCH_SIZE, spec.n_sims - done)
        seq = np.random.SeedSequence(entropy=spec.seed, spawn_key=(index,))
        gen = np.random.Generator(np.random.Philox(seq))
        chunks = [min(_CHUNK, size - start)
                  for start in range(0, size, _CHUNK)]
        # the stream holds the batch's effects, then its noise
        firsts = [gen.integers(1, 1 << 53, size=chunk)
                  if scale < math.inf else None for chunk in chunks]
        for chunk, k1 in zip(chunks, firsts):
            k2 = gen.integers(1, 1 << 53, size=chunk)
            bins = k2 >> _BIN
            low, high = noise_lo.take(bins), noise_hi.take(bins)
            if k1 is not None:
                bins = k1 >> _BIN
                low += effect_lo.take(bins)
                high += effect_hi.take(bins)
            # sure successes and failures; the rest take the pipeline
            sure = low > margin - z_crit
            known = high < -margin - z_crit
            if both_tails:
                known &= low > z_crit + margin
                sure |= high < z_crit - margin
            rest = np.flatnonzero(~(known | sure))
            stat = normals(k2[rest], shift if k1 is None
                           else normals(k1[rest], shift, scale), noise)
            np.multiply(stat, weight, out=stat)
            np.add(stat, offset, out=stat)
            np.divide(stat, total, out=stat)
            np.multiply(stat, root, out=stat)
            success = stat > -z_crit
            if both_tails:
                success |= stat < z_crit
            count += int(np.count_nonzero(sure) + np.count_nonzero(success))
    return count


def simulate_power(spec):
    """Estimate the method's power by direct simulation.

    Returns
    -------
    SimResult
    """
    _a_spec("spec", spec)
    successes = _successes(spec)
    p = successes / spec.n_sims
    std_err = math.sqrt(p * (1.0 - p) / spec.n_sims)
    return SimResult(method=spec.method, estimate=p, std_err=std_err,
                     n_sims=spec.n_sims, n_success=successes,
                     seed=spec.seed)
