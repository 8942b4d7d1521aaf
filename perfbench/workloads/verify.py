"""verify: one Monte-Carlo power check per operation.

An operation is one ``simulate_power`` call with a fixed number of
draws.  A round of ten runs all seven methods, and PP, IPPi and PPi
once more.  CP, CPi and CBP draw one normal per sample, the others
two, and FBP also evaluates the normal distribution function; the
repeats put the median inside the two-normal band, and FBP,
the costliest at a tenth of the operations, under the reported 95th
percentile.  Each slot cycles through sixteen seeded specifications,
so every specification runs again every 160 operations and must give
the same success count.
"""
import math

import oracle

from . import log_uniform

SETUP = "import repower"
CYCLE = oracle.FIXED + oracle.INTERIM + ("PP", "IPPi", "PPi")
ROUND = len(CYCLE)
TAIL = 95
IN_PROCESS = True
SPECS_PER_SLOT = 16
N_SIMS = 1 << 17    # two batches of the simulator
# a correct simulator misses by more than this many standard errors
# with probability about 2e-9 per operation
Z_LIMIT = 6.0


def _spec(rng, method):
    """Seeded inputs whose closed-form power lies in [0.05, 0.95]."""
    while True:
        both_tails = rng.random() < 0.25
        spec = dict(method=method, c=log_uniform(rng, 0.3, 4.0),
                    zo=oracle.p_to_z(log_uniform(rng, 1e-4, 0.2)),
                    zi=None, f=None, seed=rng.randrange(1 << 31),
                    alpha=rng.choice((0.05, 0.01)),
                    shrinkage=rng.choice((0.0, 0.25)), both_tails=both_tails)
        if method in oracle.INTERIM:
            spec["zi"] = rng.uniform(-1.0, 3.0)
            spec["f"] = rng.uniform(0.2, 0.8)
        spec["power"] = oracle.power(method, spec["zo"], spec["zi"],
                                     spec["c"], spec["f"], spec["alpha"],
                                     spec["shrinkage"], both_tails)
        if 0.05 <= spec["power"] <= 0.95:
            return spec


def make_ops(rng):
    specs = [[_spec(rng, m) for _ in range(SPECS_PER_SLOT)] for m in CYCLE]
    return [dict(specs[slot][k], key=(slot, k))
            for k in range(SPECS_PER_SLOT) for slot in range(ROUND)]


def _run(rp, op):
    cfg = rp.DesignConfig(alpha=op["alpha"], shrinkage=op["shrinkage"],
                          both_tails=op["both_tails"])
    spec = rp.SimSpec(method=op["method"], c=op["c"],
                      zo=None if op["method"] == "PPi" else op["zo"],
                      zi=op["zi"], f=op["f"], n_sims=N_SIMS, seed=op["seed"],
                      config=cfg)
    return rp.simulate_power(spec)


def runner():
    import repower as rp
    return lambda op: _run(rp, op)


in_process_runner = runner


def kind(op):
    return op["method"]


def describe(op):
    return ", ".join(f"{k}={op[k]!r}" for k in
                     ("method", "c", "zo", "zi", "f", "seed", "alpha",
                      "shrinkage", "both_tails"))


def check(op, out, seen):
    p = op["power"]
    if out.method != op["method"] or out.n_sims != N_SIMS:
        return f"result for {out.method} with {out.n_sims} draws"
    if out.estimate != out.n_success / N_SIMS:
        return f"estimate {out.estimate!r} is not n_success / n_sims"
    std_err = math.sqrt(p * (1.0 - p) / N_SIMS)
    if abs(out.estimate - p) > Z_LIMIT * std_err:
        return (f"estimate {out.estimate!r} is more than {Z_LIMIT} standard "
                f"errors from the closed form {p!r}")
    first = seen.setdefault(op["key"], out.n_success)
    if out.n_success != first:
        return f"same spec gave {out.n_success} and {first} successes"
    return None
