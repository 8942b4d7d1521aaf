"""The four workloads and the input generators they share.

Each workload module defines:

``SETUP``       code a fresh interpreter runs before the first operation
``ROUND``       operations per round; a run attempts whole rounds
``TAIL``        the percentile reported as ``op_ms_tail``; a run
                attempts enough operations to leave ten beyond it
``IN_PROCESS``  whether operations run inside the benchmark process
``make_ops(rng)``           the seeded operations, cycled in rounds
``runner()``                callable running one operation untraced
``in_process_runner()``     callable running one operation in process
``check(op, out, seen)``    None, or what is wrong with the output
``kind(op)``                the operation's kind, for the cost histogram
``describe(op)``            one line naming the operation
"""
import math
import os
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"

# fixed-design configurations drawn for planning questions
ALPHAS = (0.05, 0.01, 0.005, 0.1)
SHRINKAGES = (0.0, 0.0, 0.1, 0.25, 0.5)
C_MIN = 1e-9    # lower end of the solver's search axis


def child_env():
    """Environment in which a child interpreter imports the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def solve_target(rng, method, zo, alpha, shrinkage, both_tails):
    """A target power the method reaches on a rising branch.

    The target is just below the power at a drawn size c*, so it is
    attainable, and above the power at the bottom of the search axis,
    so the first crossing is upward.  It also stays below the larger of
    the curve's analytic limits, its supremum for these inputs.
    Returns None when no such target exists for these inputs.
    """
    cfg = (alpha, shrinkage, both_tails)
    start = oracle.design_power(method, zo, C_MIN, *cfg)
    ceiling = max(oracle.design_limits(method, zo, *cfg))
    for _ in range(50):
        c_star = log_uniform(rng, 0.1, 20.0)
        target = round(0.999 * oracle.design_power(method, zo, c_star, *cfg),
                       6)
        if 0.05 <= target <= 0.99 and start < target - 1e-3 \
                and target < ceiling:
            return target
    return None


def solve_problem(rng, method, both_tails):
    """Original study and configuration with a reachable solve target.

    FBP and CBP start at power 1 when the shrunken original is already
    significant at alpha^2 / 2; such studies are drawn again, so the
    solver's first crossing is always on a rising branch.
    """
    while True:
        alpha = rng.choice(ALPHAS)
        shrinkage = rng.choice(SHRINKAGES)
        po = log_uniform(rng, 1e-6, 0.2)
        direction = rng.choice((1, -1)) if both_tails else 1
        zo = direction * oracle.p_to_z(po)
        target = solve_target(rng, method, zo, alpha, shrinkage, both_tails)
        if target is not None:
            return dict(po=po, direction=direction, zo=zo, alpha=alpha,
                        shrinkage=shrinkage, both_tails=both_tails,
                        method=method, target=target)


def check_solve(method, zo, target, c, alpha, shrinkage, both_tails):
    """None if c is the smallest size at which the method meets target."""
    cfg = (alpha, shrinkage, both_tails)
    reached = oracle.design_power(method, zo, c, *cfg)
    if reached < target - 1e-8:
        return f"power {reached!r} at c={c!r} is below the target {target}"
    # first crossing, upward: below target just below c and at every
    # size down to the bottom of the axis
    for k in range(8):
        below = c * (1.0 - 1e-6) * (C_MIN / c) ** (k / 8.0)
        if oracle.design_power(method, zo, below, *cfg) >= target:
            return f"c={c!r} is not the first crossing: c={below!r} meets it"
    if method == "CP" and not both_tails:
        exact = oracle.cp_inverse(target, zo, alpha, shrinkage)
        if not oracle.close(c, exact, abs_tol=0.0, rel_tol=1e-9):
            return f"CP c={c!r} differs from the analytic {exact!r}"
    return None
