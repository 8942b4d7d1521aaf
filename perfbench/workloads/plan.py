"""plan: one planning question for an original study per operation.

An operation turns the original p-value into ``zo`` with ``p_to_z``,
builds the four design-stage results (CP, PP, FBP, CBP, with suprema)
at a planned relative size, and solves for the smallest size at which
one method, cycling through the four, reaches a target it can reach.
The last four questions of each round of forty, one per method, count
rejections in both tails, which sends all four suprema down the
numeric path.  These cost about twice as much as the others, and at a
tenth of the operations the reported 95th percentile falls in the
middle of their band.
"""
import oracle

from . import check_solve, log_uniform, solve_problem

SETUP = "import repower"
ROUND = 40
TAIL = 95
IN_PROCESS = True
N_ROUNDS = 80
METHODS = oracle.FIXED


def make_ops(rng):
    ops = []
    for _ in range(N_ROUNDS):
        for slot in range(ROUND):
            op = solve_problem(rng, METHODS[slot % 4],
                               both_tails=slot >= ROUND - 4)
            op["c"] = log_uniform(rng, 0.25, 4.0)
            ops.append(op)
    return ops


def _run(rp, op):
    cfg = rp.DesignConfig(alpha=op["alpha"], shrinkage=op["shrinkage"],
                          both_tails=op["both_tails"])
    zo = rp.p_to_z(op["po"], op["direction"])
    design = rp.FixedDesign(zo, op["c"])
    results = (rp.cp(design, cfg), rp.pp(design, cfg),
               rp.fbp(design, cfg), rp.cbp(design, cfg))
    request = rp.SolveRequest(method=op["method"],
                              target_power=op["target"], zo=zo, config=cfg)
    return zo, results, rp.solve_c(request)


def runner():
    import repower as rp
    return lambda op: _run(rp, op)


in_process_runner = runner


def kind(op):
    return op["method"] + (" both tails" if op["both_tails"] else "")


def describe(op):
    return (f"{op['method']} target={op['target']} po={op['po']!r} "
            f"dir={op['direction']} c={op['c']!r} alpha={op['alpha']} "
            f"s={op['shrinkage']} both_tails={op['both_tails']}")


def check_power_result(res, method, ref, curve):
    """None if res matches the reference power and bounds the curve."""
    if res.method != method:
        return f"result for {res.method}, expected {method}"
    if not oracle.close(res.power, ref):
        return f"{method} power {res.power!r}, reference {ref!r}"
    if not res.supremum >= res.power:
        return f"{method} supremum {res.supremum!r} below its power"
    top = max(curve)
    if res.supremum < top - 1e-12 or res.supremum > 1.0:
        return f"{method} supremum {res.supremum!r}, curve reaches {top!r}"
    if res.feasible_100 != (res.supremum >= 1.0 - 1e-12):
        return f"{method} feasible_100 disagrees with its supremum"
    return None


SUP_GRID = tuple(10.0 ** k for k in range(-4, 5))


def check(op, out, seen):
    zo, results, sol = out
    cfg = (op["alpha"], op["shrinkage"], op["both_tails"])
    if not oracle.close(zo, op["zo"], abs_tol=0.0, rel_tol=1e-7):
        return f"p_to_z gave {zo!r}, reference {op['zo']!r}"
    for method, res in zip(METHODS, results):
        ref = oracle.design_power(method, zo, op["c"], *cfg)
        curve = [oracle.design_power(method, zo, c, *cfg) for c in SUP_GRID]
        curve += oracle.design_limits(method, zo, *cfg)
        problem = check_power_result(res, method, ref, curve)
        if problem:
            return problem
    if sol.warning is not None:
        return f"solve_c warned: {sol.warning}"
    if not oracle.close(sol.power,
                        oracle.design_power(op["method"], zo, sol.c, *cfg)):
        return f"solve_c power {sol.power!r} is not the power at c"
    return check_solve(op["method"], zo, op["target"], sol.c, *cfg)
