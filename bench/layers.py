"""Layer timings of the repower package, for before/after comparisons.

    python3 bench/layers.py                     # this checkout's src/
    python3 bench/layers.py --tree parent=../old/src --tree change=src \
        --out BENCH_21.json

Each row times one call of one layer: Phi on a float and on arrays of
33, 1200 and 1e5 points, ``design_power`` on a 1200-point array of c,
the other normal primitives and the dominance thresholds on a float
(Phi^-1 in and beyond AS241's central range, ``p_to_z``, ``z_to_p``,
the density, the Fisher transforms), the density, Phi^-1, ``p_to_z``,
the Fisher transforms and the IPPi threshold on 1200-point arrays,
which map their float kernels, the scalar
closed forms (``design_power``, ``interim_power``), three results with
their suprema (``cp``, ``ippi``, and ``cpi`` with both tails at a zero
original), ``solve_c`` on each of its paths, ``simulate_power`` (PP
at 1e5 draws, two batches; both-tail FBP at 2^17, perfbench verify's
costliest kind; CP at 1e6, sixteen batches), the case-study loader,
its two reports and the full replay that perfbench's monitor workload
runs.
The solver rows are: the one-tail inverse path (CP); the both-tail
fixed-design cell, one row per method, on planning questions like
perfbench's plan workload (a target just under the power at a size
drawn from 0.1 to 20, on a curve that rises from the bottom of the
axis); and the requests no inverse rule answers, which scan: IPPi at
a fixed c_stage1, a one-tail refusal (IPPi above its supremum at
c_stage1), both-tail lower bounds (CP and PP below their power at the
bottom of the axis), a both-tail interim solve (CPi at c_stage1), and
an infeasible IPPi request at a fixed f with both tails, which also
zooms.  The cold-start rows time one fresh interpreter each, as a
subprocess: bare ``python3``, ``import repower``, ``import
repower.cli``, and the commands ``repower power``, ``interim`` (all
three interim methods), ``solve`` (an inverse-path CP solve), ``ssrp``
(the interim report), ``curve`` and ``simulate`` (2e4 draws);
``simulate`` loads numpy and scipy, where the others need neither.  A
fixed pure-Python loop is timed beside them, so that numbers taken on
different days or machines can be put on one scale: divide a row by
the calibration row.

Every tree is measured in its own child process, ROUNDS times,
alternating which tree goes first.  The child first byte-compiles its
tree's package, so that no stale or missing ``.pyc`` file (a fresh copy
of a tree, or ``PYTHONDONTWRITEBYTECODE`` set) makes the cold starts
compile the source; a round takes SAMPLES samples per
row, each the mean of a loop long enough to last about 10 ms.  A row
reports the median and the quartiles of all its samples, in
microseconds per call.  With two or more trees the output also gives
each row's median over the first tree's.  The scalar rows cycle
through inputs drawn from SEED; Phi's inputs are uniform on (-8, 8).
Nothing is fetched or written but ``--out``.
"""
import argparse
import compileall
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
SAMPLE_S = 0.01
N_INPUTS = 32
# ten alternating rounds of seven samples: 70 per row and tree
ROUNDS = 10
SAMPLES = 7
SEED = 0


# (row name, interpreter arguments) of the cold-start rows
COLD_STARTS = (
    ("python3", ["-c", "pass"]),
    ("import repower", ["-c", "import repower"]),
    ("import repower.cli", ["-c", "import repower.cli"]),
    ("repower power", ["-m", "repower.cli", "power", "--zo", "2.3", "--c",
                       "1.5"]),
    ("repower interim", ["-m", "repower.cli", "interim", "--zo", "2.3",
                         "--zi", "0.8", "--c", "2", "--f", "0.4"]),
    ("repower solve", ["-m", "repower.cli", "solve", "--method", "cp",
                       "--target", "0.9", "--zo", "2.807"]),
    ("repower ssrp", ["-m", "repower.cli", "ssrp"]),
    ("repower curve", ["-m", "repower.cli", "curve", "--method", "cp",
                       "--zo", "2", "--c-range", "0.5:3:0.5"]),
    ("repower simulate", ["-m", "repower.cli", "simulate", "--method", "pp",
                          "--zo", "2.2", "--c", "1.3", "--nsims", "20000"]),
)


def _cold(argv):
    # the child's environment carries the tree's PYTHONPATH
    subprocess.run([sys.executable, *argv], check=True,
                   stdout=subprocess.DEVNULL)


def _calibration():
    # a fixed amount of interpreter work: integer arithmetic in a loop
    x = 0
    for i in range(10_000):
        x = (x * 31 + i) % 1_000_003
    return x


def _rows():
    """(name, callable, calls per invocation) of every timed row."""
    import repower
    from repower import (DesignConfig, FixedDesign, FutilityRule,
                         InterimState, SimSpec, SolveRequest, cp, cpi,
                         design_power, fisher_z, fisher_z_inv,
                         futility_replay, interim_power, ippi, load_csv,
                         p_to_z, reproduce_interim_powers, simulate_power,
                         solve_c, std_normal_cdf, std_normal_pdf,
                         std_normal_quantile, weight_dominance_threshold,
                         z_to_p)

    rng, extra = random.Random(SEED), random.Random(SEED + 1)
    # looks at a non-significant interim, the case study's common case
    looks = [(rng.uniform(1.5, 4.0), rng.uniform(-1.0, 1.5),
              10 ** rng.uniform(-0.5, 1.0), rng.uniform(0.2, 0.7))
             for _ in range(N_INPUTS)]
    designs = [(FixedDesign(zo, c), InterimState(zi, f))
               for zo, zi, c, f in looks]
    xs = [rng.uniform(-8.0, 8.0) for _ in range(N_INPUTS)]
    arrays = {n: numpy.random.default_rng(SEED).uniform(-8.0, 8.0, n)
              for n in (33, 1200, 100_000)}
    sizes = numpy.geomspace(1e-3, 1e3, 1200)
    # the other primitives on 1200-point arrays, from a generator of
    # their own, so that the inputs of the rows above stay as they were
    own = numpy.random.default_rng(SEED + 2)
    mapped = {"z": own.uniform(-8.0, 8.0, 1200),
              "p": own.uniform(0.0, 1.0, 1200),
              "pvalue": 10 ** own.uniform(-6.0, -0.7, 1200),
              "r": own.uniform(-0.99, 0.99, 1200),
              "c": 10 ** own.uniform(-1.0, 1.0, 1200)}
    # both-tail CPi at a zero original: 11 of the 32 looks peak inside
    both = DesignConfig(both_tails=True)
    zero_looks = [(FixedDesign(0.0, c), InterimState(rng.uniform(0.0, 1.95),
                                                       f))
                  for _, _, c, f in looks]

    def plan(method, both_tails):
        """N_INPUTS reachable planning requests of one method."""
        out = []
        while len(out) < N_INPUTS:
            cfg = DesignConfig(alpha=rng.choice((0.05, 0.01, 0.005, 0.1)),
                               shrinkage=rng.choice((0.0, 0.0, 0.1, 0.25)),
                               both_tails=both_tails)
            zo = p_to_z(10 ** rng.uniform(-6.0, -0.7),
                        rng.choice((1, -1)) if both_tails else 1)
            zd = abs(zo) * (1.0 - cfg.shrinkage)
            target = round(0.999 * design_power(
                method, zo, 10 ** rng.uniform(-1.0, 1.3), cfg), 6)
            if (0.05 <= target <= 0.99 and zd + cfg.z_alpha_tilde < 0.0
                    and design_power(method, zo, 1e-9, cfg) < target - 1e-3):
                out.append(SolveRequest(method, target, zo=zo, config=cfg))
        return out
    solves = {f"solve_c both tails {m}": plan(m, True)
              for m in ("CP", "PP", "FBP", "CBP")}
    solves["solve_c inverse CP"] = plan("CP", False)
    solves["solve_c scan IPPi c_stage1"] = [
        SolveRequest("IPPi", target, zo=zo, zi=zi, c_stage1=c * f)
        for (zo, zi, c, f), target in zip(
            looks, (rng.uniform(0.3, 0.7) for _ in looks))
        if interim_power("IPPi", zo, zi, 1e9, c * f / 1e9) > target]
    # the three interior peaks of both-tail IPPi at a fixed f, over 0.99
    solves["solve_c IPPi at f infeasible"] = [
        SolveRequest("IPPi", 0.99, zo=zo, zi=zi, f=f, config=both)
        for zo, zi, f in ((2.0, 1.0, 0.75), (-1.5, -1.0, 0.5),
                          (2.0, 1.0, 0.25))]
    # IPPi against the original's direction, 0.05 above its supremum
    # over the remaining size; the targets below come from a stream of
    # their own, so that the inputs drawn after these rows stay as they
    # were
    solves["solve_c scan infeasible one tail"] = [
        SolveRequest("IPPi", sup + 0.05, zo=-zo, zi=zi, c_stage1=c * f)
        for zo, zi, c, f in looks if (sup := ippi(
            FixedDesign(-zo, c), InterimState(zi, f)).supremum) < 0.9]
    solves["solve_c scan lower bound both tails"] = [
        SolveRequest(m, 0.9 * design_power(m, zo, 1e-9, both), zo=zo,
                     config=both)
        for (zo, _, _, _), m in zip(looks, ("CP", "PP") * N_INPUTS)]
    solves["solve_c scan both tails interim"] = [
        SolveRequest("CPi", target, zo=zo, zi=zi, c_stage1=c * f,
                     config=both)
        for (zo, zi, c, f), target in zip(
            looks, (extra.uniform(0.3, 0.7) for _ in looks))
        if interim_power("CPi", zo, zi, 1e9, c * f / 1e9, both) > target]

    # the other primitives on floats, drawn after the inputs above so
    # that those stay as they were: Phi^-1 in AS241's central range and
    # beyond it, where a Newton step follows
    central = [rng.uniform(0.075, 0.925) for _ in range(N_INPUTS)]
    tails = [10 ** rng.uniform(-12.0, -1.2) for _ in range(N_INPUTS)]
    pvalues = [(10 ** rng.uniform(-6.0, -0.7), rng.choice((1, -1)))
               for _ in range(N_INPUTS)]
    rs = [rng.uniform(-0.99, 0.99) for _ in range(N_INPUTS)]
    ratios = [10 ** rng.uniform(-1.0, 1.0) for _ in range(N_INPUTS)]

    def floats(fn, inputs):
        return lambda: [fn(v) for v in inputs]

    def infeasible(request):
        try:
            solve_c(request)
        except ValueError:
            return
        raise AssertionError(f"{request} was solved")
    sims = {"PP 1e5": SimSpec("PP", 1.3, zo=2.2, n_sims=100_000, seed=3),
            "FBP both tails 2^17": SimSpec("FBP", 1.7, zo=-2.2,
                                           n_sims=1 << 17, seed=5,
                                           config=both),
            "CP 1e6": SimSpec("CP", 1.3, zo=2.2, n_sims=1_000_000, seed=3)}
    records = load_csv()
    rules = (FutilityRule("IPPi", 0.2), FutilityRule("PPi", 0.2))

    def replay():
        recs = load_csv()
        reproduce_interim_powers(recs)
        for rule in rules:
            futility_replay(recs, rule)

    def each(fn):
        return lambda: [fn(*a) for a in looks]

    return repower.__version__, [
        ("calibration", _calibration, 1),
        ("Phi float", lambda: [std_normal_cdf(x) for x in xs], N_INPUTS),
        ("Phi^-1 float central", floats(std_normal_quantile, central),
         N_INPUTS),
        ("Phi^-1 float tail", floats(std_normal_quantile, tails), N_INPUTS),
        ("p_to_z float", lambda: [p_to_z(p, d) for p, d in pvalues],
         N_INPUTS),
        ("z_to_p float", floats(z_to_p, xs), N_INPUTS),
        ("std_normal_pdf float", floats(std_normal_pdf, xs), N_INPUTS),
        ("fisher_z float", floats(fisher_z, rs), N_INPUTS),
        ("fisher_z_inv float", floats(fisher_z_inv, xs), N_INPUTS),
        *((f"weight_dominance_threshold {m} float", floats(
            lambda c, m=m: weight_dominance_threshold(m, c), ratios),
           N_INPUTS) for m in ("CPi", "IPPi")),
        *((f"Phi array {n}", lambda a=a: std_normal_cdf(a), 1)
          for n, a in arrays.items()),
        ("std_normal_pdf array 1200", lambda: std_normal_pdf(mapped["z"]),
         1),
        ("Phi^-1 array 1200", lambda: std_normal_quantile(mapped["p"]), 1),
        ("p_to_z array 1200", lambda: p_to_z(mapped["pvalue"], 1), 1),
        ("fisher_z array 1200", lambda: fisher_z(mapped["r"]), 1),
        ("fisher_z_inv array 1200", lambda: fisher_z_inv(mapped["z"]), 1),
        ("weight_dominance_threshold IPPi array 1200",
         lambda: weight_dominance_threshold("IPPi", mapped["c"]), 1),
        ("design_power CP", each(
            lambda zo, zi, c, f: design_power("CP", zo, c)), N_INPUTS),
        ("design_power CP array 1200",
         lambda: design_power("CP", 2.5, sizes), 1),
        ("interim_power IPPi", each(
            lambda zo, zi, c, f: interim_power("IPPi", zo, zi, c, f)),
         N_INPUTS),
        ("cp", lambda: [cp(d) for d, _ in designs], N_INPUTS),
        ("ippi", lambda: [ippi(d, s) for d, s in designs], N_INPUTS),
        ("cpi both tails zo=0",
         lambda: [cpi(d, s, both) for d, s in zero_looks], N_INPUTS),
        *((name, lambda reqs=reqs, call=(
            infeasible if "infeasible" in name else solve_c): [
                call(r) for r in reqs], len(reqs))
          for name, reqs in solves.items()),
        *((f"simulate_power {name}", lambda s=sim: simulate_power(s), 1)
          for name, sim in sims.items()),
        ("load_csv", load_csv, 1),
        ("reproduce_interim_powers",
         lambda: reproduce_interim_powers(records), 1),
        ("futility_replay", lambda: futility_replay(records, rules[0]), 1),
        ("replay", replay, 1),
        *((f"cold start: {name}", lambda argv=argv: _cold(argv), 1)
          for name, argv in COLD_STARTS),
    ]


def _measure():
    """Per-call samples in microseconds of every row, in this process,
    once the package on the path is byte-compiled."""
    package = importlib.util.find_spec("repower").submodule_search_locations
    if not compileall.compile_dir(package[0], quiet=1):
        raise RuntimeError(f"{package[0]} does not byte-compile")
    version, rows = _rows()
    out = {}
    for name, fn, calls in rows:
        fn()        # warm: caches, lazy imports
        loops = 1
        while True:
            start = time.perf_counter()
            for _ in range(loops):
                fn()
            took = time.perf_counter() - start
            if took >= SAMPLE_S:
                break
            loops *= 2
        times = []
        for _ in range(SAMPLES):
            start = time.perf_counter()
            for _ in range(loops):
                fn()
            times.append((time.perf_counter() - start) / loops / calls * 1e6)
        out[name] = times
    return {"version": version, "samples": out}


def _child(src):
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--child"],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _commit(src):
    """The short commit of the tree holding ``src``, marked when its
    working tree differs from it, or None outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args],
                              capture_output=True, text=True)
    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--", ".").stdout.strip()
    return head.stdout.strip() + ("+working-tree" if dirty else "")


def _summary(times):
    q1, _, q3 = statistics.quantiles(times, n=4)
    return {"median": round(statistics.median(times), 4),
            "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4), "n": len(times)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", metavar="LABEL=SRC",
                    help="a label and the src/ directory to import the "
                         "package from; repeatable (default: this "
                         "checkout's src/, labelled 'this')")
    ap.add_argument("--note", default="",
                    help="a free-text machine note stored in the output")
    ap.add_argument("--out", help="write the JSON here as well")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(_measure()))
        return 0
    trees = {}
    for spec in args.tree or [f"this={ROOT / 'src'}"]:
        label, sep, src = spec.partition("=")
        if not sep or not label or not src:
            ap.error(f"--tree takes LABEL=SRC, not {spec!r}")
        trees[label] = Path(src).resolve()
    samples = {label: {} for label in trees}
    versions = {}
    for r in range(ROUNDS):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        for label in order:
            got = _child(trees[label])
            versions[label] = got["version"]
            for name, times in got["samples"].items():
                samples[label].setdefault(name, []).extend(times)
    report = {
        "script": "bench/layers.py",
        "unit": "microseconds per call",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "note": args.note,
        "seed": SEED,
        "rounds": ROUNDS,
        "samples_per_round": SAMPLES,
        "trees": {label: {"commit": _commit(src),
                          "version": versions[label],
                          "rows": {name: _summary(times) for name, times
                                   in samples[label].items()}}
                  for label, src in trees.items()},
    }
    labels = list(trees)
    if len(labels) > 1:
        base = report["trees"][labels[0]]["rows"]
        report[f"median_over_{labels[0]}"] = {
            label: {name: round(row["median"] / base[name]["median"], 3)
                    for name, row in report["trees"][label]["rows"].items()}
            for label in labels[1:]}
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
