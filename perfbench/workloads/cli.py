"""cli: one fresh ``python -m repower.cli`` process per operation.

One process runs at a time.  A round runs the six subcommands once
each; every subcommand cycles through a short seeded list of argument
sets in its text, json and csv formats, so the same argv comes back
within a run and must print byte-identical output.  Output is parsed
and checked against the reference formulas at the printed precision.
"""
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import oracle

from . import OUT_DIR, ROOT, check_solve, child_env, log_uniform, \
    solve_problem
from .monitor import DATA, REPLAY_EXPECTED, case_study_looks

SETUP = "import repower.cli"
ROUND = 6
TAIL = 75
IN_PROCESS = False


def _config_args(cfg):
    args = ["--alpha", repr(cfg["alpha"]), "--shrinkage",
            repr(cfg["shrinkage"])]
    return args + (["--both-tails"] if cfg["both_tails"] else [])


def _cfg(rng, both_tails=None):
    return dict(alpha=rng.choice((0.05, 0.01)),
                shrinkage=rng.choice((0.0, 0.2)),
                both_tails=rng.random() < 0.3 if both_tails is None
                else both_tails)


def _power_variants(rng):
    cfg = _cfg(rng)
    zo, c = rng.uniform(1.0, 4.5), log_uniform(rng, 0.3, 5.0)
    po = log_uniform(rng, 1e-6, 0.2)
    direction = rng.choice("+-")
    ref_zo = (1 if direction == "+" else -1) * oracle.p_to_z(po)
    return [
        dict(cmd="power", zo=zo, c=c, cfg=cfg, fmt="text",
             argv=["power", "--zo", repr(zo), "--c", repr(c),
                   *_config_args(cfg), "--format", "text"]),
        dict(cmd="power", zo=ref_zo, c=c, cfg=cfg, fmt="json",
             argv=["power", "--po", repr(po), "--dir", direction, "--c",
                   repr(c), *_config_args(cfg), "--format", "json"]),
    ]


def _interim_variants(rng):
    cfg = _cfg(rng, both_tails=False)
    look = dict(zo=rng.uniform(1.0, 4.0), zi=rng.uniform(-1.5, 3.5),
                c=log_uniform(rng, 0.5, 6.0), f=rng.uniform(0.1, 0.9))
    argv = ["interim", *(a for k in ("zo", "zi", "c", "f")
                         for a in (f"--{k}", repr(look[k]))),
            *_config_args(cfg)]
    return [dict(cmd="interim", cfg=cfg, fmt=fmt, **look,
                 argv=argv + ["--format", fmt]) for fmt in ("text", "json")]


def _solve_variants(rng):
    prob = solve_problem(rng, rng.choice(oracle.FIXED), both_tails=False)
    cfg = {k: prob[k] for k in ("alpha", "shrinkage", "both_tails")}
    argv = ["solve", "--method", prob["method"].lower(), "--target",
            repr(prob["target"]), "--zo", repr(prob["zo"]),
            *_config_args(cfg)]
    return [dict(cmd="solve", cfg=cfg, fmt=fmt, method=prob["method"],
                 zo=prob["zo"], target=prob["target"],
                 argv=argv + ["--format", fmt]) for fmt in ("text", "json")]


def _curve_variants(rng):
    cfg = _cfg(rng)
    fixed = rng.choice(oracle.FIXED)
    interim = rng.choice(oracle.INTERIM)
    zo, zi = rng.uniform(1.0, 4.0), rng.uniform(-1.0, 3.0)
    k = log_uniform(rng, 0.2, 2.0)
    c_range = ["--c-range", "0.25:4:0.25"]
    nj_range = ["--nj-range", "0.2:5:0.2"]
    fixed_argv = ["curve", "--method", fixed.lower(), "--zo", repr(zo),
                  *c_range, *_config_args(cfg)]
    interim_argv = ["curve", "--method", interim.lower(), "--zo", repr(zo),
                    "--zi", repr(zi), "--c-stage1", repr(k), *nj_range,
                    *_config_args(cfg)]
    return [
        dict(cmd="curve", method=fixed, zo=zo, cfg=cfg, fmt="csv",
             argv=fixed_argv + ["--format", "csv"]),
        dict(cmd="curve", method=interim, zo=zo, zi=zi, k=k, cfg=cfg,
             fmt="json", argv=interim_argv + ["--format", "json"]),
        dict(cmd="curve", method=fixed, zo=zo, cfg=cfg, fmt="text",
             argv=fixed_argv + ["--format", "text"]),
    ]


def _ssrp_variants(rng):
    rule = rng.choice(tuple(REPLAY_EXPECTED))
    variants = [("interim", "text", []),
                ("futility", "csv", ["--futility-method", rule.lower()]),
                ("design-powers", "json", []),
                ("futility", "json",
                 ["--futility-method", rule.lower()])]
    return [dict(cmd="ssrp", report=report, fmt=fmt, rule=rule,
                 argv=["ssrp", "--report", report, *extra, "--format", fmt])
            for report, fmt, extra in variants]


def _simulate_variants(rng):
    cfg = _cfg(rng)
    while True:
        method = rng.choice(oracle.FIXED + oracle.INTERIM)
        look = dict(zo=rng.uniform(1.0, 4.0), zi=None, f=None,
                    c=log_uniform(rng, 0.3, 4.0))
        if method in oracle.INTERIM:
            look.update(zi=rng.uniform(-1.0, 3.0), f=rng.uniform(0.2, 0.8))
        power = oracle.power(method, look["zo"], look["zi"], look["c"],
                             look["f"], cfg["alpha"], cfg["shrinkage"],
                             cfg["both_tails"])
        if 0.05 <= power <= 0.95:
            break
    argv = ["simulate", "--method", method.lower(), "--c", repr(look["c"]),
            "--nsims", "20000", "--seed", str(rng.randrange(1 << 31))]
    if method != "PPi":
        argv += ["--zo", repr(look["zo"])]
    if method in oracle.INTERIM:
        argv += ["--zi", repr(look["zi"]), "--f", repr(look["f"])]
    argv += _config_args(cfg)
    return [dict(cmd="simulate", method=method, power=power, nsims=20000,
                 fmt=fmt, argv=argv + ["--format", fmt])
            for fmt in ("text", "json")]


VARIANTS = (_power_variants, _interim_variants, _solve_variants,
            _curve_variants, _ssrp_variants, _simulate_variants)


def make_ops(rng):
    """Rounds of six; subcommand j uses its (r mod len)-th argument set."""
    cycles = [make(rng) for make in VARIANTS]
    n_rounds = math.lcm(*(len(c) for c in cycles))
    return [cycle[r % len(cycle)] for r in range(n_rounds) for cycle in cycles]


class ColdRunner:
    """Runs each operation in a fresh interpreter; keeps the peak RSS."""

    def __init__(self):
        self.env = child_env()
        self.peak_rss_kb = 0

    def __call__(self, op):
        with tempfile.TemporaryFile(dir=OUT_DIR) as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repower.cli", *op["argv"]],
                stdout=subprocess.PIPE, stderr=err, env=self.env,
                cwd=ROOT)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            message = err.read().decode(errors="replace")
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out, message


def runner():
    return ColdRunner()


def in_process_runner():
    """Runs cli.main(argv) in this process, for the traced run."""
    import repower.cli

    def run(op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = repower.cli.main(op["argv"])
        return code, buf.getvalue().encode(), ""
    return run


def kind(op):
    return f"{op['cmd']} {op['fmt']}"


def describe(op):
    return "repower " + " ".join(op["argv"])


def _near(got, want, printed_abs):
    """got was printed with an absolute rounding of printed_abs."""
    return abs(got - want) <= printed_abs + 1e-12


def _methods_out(op, text):
    """{method: (power, supremum, feasible)} from power/interim output."""
    if op["fmt"] == "json":
        env = json.loads(text)
        return {m: (v["power"], v["supremum"], v["feasible_100"])
                for m, v in env["results"].items()}, 0.0, env
    found = {}
    for line in text.splitlines():
        if line.startswith("warning:"):
            continue
        method, power, sup, feas = line.split()
        found[method] = (float(power.split("=")[1]), float(sup.split("=")[1]),
                         feas.split("=")[1] == "yes")
    return found, 5e-7, None


def _check_powers(op, text, methods, reference):
    """reference(method, zo) is the power at the zo the program used."""
    found, tol, env = _methods_out(op, text)
    zo = op["zo"]
    if env is not None and op["cmd"] == "power":
        zo = env["inputs"]["zo"]
        if not oracle.close(zo, op["zo"], 0.0, 1e-7):
            return f"zo {zo!r} from --po, reference {op['zo']!r}"
    if set(found) != set(methods):
        return f"methods {sorted(found)}, expected {sorted(methods)}"
    for method, (power, sup, feasible) in found.items():
        ref = reference(method, zo)
        if not (_near(power, ref, tol) if tol else oracle.close(power, ref)):
            return f"{method} power {power!r}, reference {ref!r}"
        if sup < power - tol or sup > 1.0:
            return f"{method} supremum {sup!r} below its power"
        if feasible != (sup >= 1.0 - 1e-12 - tol):
            return f"{method} feasible_100 disagrees with its supremum"
    return None


def _check_power(op, text):
    cfg = op["cfg"]
    return _check_powers(
        op, text, oracle.FIXED,
        lambda m, zo: oracle.design_power(m, zo, op["c"], cfg["alpha"],
                                      cfg["shrinkage"], cfg["both_tails"]))


def _check_interim(op, text):
    cfg = op["cfg"]
    return _check_powers(
        op, text, oracle.INTERIM,
        lambda m, zo: oracle.interim_power(m, zo, op["zi"], op["c"],
                                       op["f"], cfg["alpha"],
                                       cfg["shrinkage"], False))


def _check_solve(op, text):
    cfg = op["cfg"]
    args = (cfg["alpha"], cfg["shrinkage"], cfg["both_tails"])
    if op["fmt"] == "json":
        res = json.loads(text)["results"]
        c = res["c"]
        problem = check_solve(op["method"], op["zo"], op["target"], c, *args)
        if problem:
            return problem
        return None if oracle.close(
            res["power"], oracle.design_power(op["method"], op["zo"], c,
                                              *args)) \
            else f"solve power {res['power']!r} is not the power at c"
    fields = dict(line.split("=") for line in text.splitlines())
    c = float(fields["c"])   # printed to 8 significant digits
    reached = oracle.design_power(op["method"], op["zo"], c, *args)
    if reached < op["target"] - 1e-6 or \
            not _near(float(fields["power"]), reached, 5e-7 + 1e-6):
        return f"power {reached!r} at printed c={c!r}, target {op['target']}"
    return None


def _check_curve(op, text):
    cfg = op["cfg"]
    args = (cfg["alpha"], cfg["shrinkage"], cfg["both_tails"])
    if op["fmt"] == "json":
        res = json.loads(text)["results"]
        k = op["k"]
        zo = None if op["method"] == "PPi" else op["zo"]
        for x, power in zip(res["x"], res["power"]):
            ref = oracle.interim_power(op["method"], zo, op["zi"], k + x,
                                       k / (k + x), *args)
            if not oracle.close(power, ref):
                return f"power {power!r} at nj={x!r}, reference {ref!r}"
        return None if len(res["x"]) == 25 else "wrong number of points"
    lines = text.splitlines()
    if lines[0] != "c,power" or len(lines) != 17:
        return "unexpected curve table"
    for line in lines[1:]:
        x, power = (float(v) for v in line.split(","))
        ref = oracle.design_power(op["method"], op["zo"], x, *args)
        if not oracle.close(power, ref, 1e-12, 1e-9):
            return f"power {power!r} at c={x!r}, reference {ref!r}"
    return None


def _check_ssrp(op, text):
    report = op["report"]
    if report == "interim":
        lines = text.splitlines()
        rows = lines[1:-1]
        if len(rows) != 10:
            return "interim report does not have ten rows"
        for line in rows:
            cells = line.split()
            study = " ".join(cells[:-6])
            computed = [float(v) for v in cells[-6:-3]]
            for got, want in zip(computed,
                                 oracle.PUBLISHED_INTERIM_PCT[study]):
                # 0.1 pp agreement, plus the rounding of the printout
                if abs(got - want) > 0.1 + 0.05 + 1e-9:
                    return f"{study}: {got}% against published {want}%"
        return None
    if report == "design-powers":
        rows = json.loads(text)["results"]["rows"]
        if len(rows) != 21:
            return "design-powers report does not have 21 rows"
        stage1 = {}
        for rec in _records():
            stage1[rec["study"]] = rec
        for row in rows:
            rec = stage1[row["study"]]
            for method in oracle.FIXED:
                ref = oracle.design_power(method, rec["zo"], rec["c_stage1"],
                                          0.05, 0.25, False)
                if not oracle.close(row[method.lower()], ref):
                    return f"{row['study']} {method} {row[method.lower()]!r}"
        return None
    # futility replay
    want = REPLAY_EXPECTED[op["rule"]]
    if op["fmt"] == "json":
        res = json.loads(text)["results"]
        got = (res["n_failed_stopped"], res["n_failed"],
               res["n_replicated_stopped"])
    else:
        rows = list(csv.reader(text.splitlines()))[1:]
        failed = [r for r in rows if r[3] == "no"]
        got = (sum(r[2] == "yes" for r in failed), len(failed),
               sum(r[2] == "yes" for r in rows if r[3] == "yes"))
        looks = {s: (zo, zi, c, f) for s, zo, zi, c, f in case_study_looks()}
        for study, power, _, _ in rows:
            zo, zi, c, f = looks[study]
            ref = oracle.interim_power(op["rule"], zo, zi, c, f)
            if not _near(float(power), ref, 5e-5):
                return f"{study} futility power {power}, reference {ref!r}"
    if got != want:
        return f"{op['rule']} futility replay gave {got}, expected {want}"
    return None


def _records():
    """zo and c_stage1 of every study of the case study's data file."""
    with open(DATA, newline="") as fh:
        return [dict(study=row["study"],
                     zo=float(row["fiso"]) / float(row["se_fiso"]),
                     c_stage1=(float(row["ni"]) - 3.0)
                     / (float(row["no"]) - 3.0))
                for row in csv.DictReader(fh)]


def _check_simulate(op, text):
    p = op["power"]
    if op["fmt"] == "json":
        res = json.loads(text)["results"]
        if not oracle.close(res["closed_form"], p):
            return f"closed form {res['closed_form']!r}, reference {p!r}"
        estimate, tol = res["estimate"], 0.0
    else:
        fields = dict(line.split("=") for line in text.splitlines())
        estimate, tol = float(fields["estimate"]), 5e-7
        if not _near(float(fields["closed_form"]), p, 5e-7):
            return f"closed form {fields['closed_form']}, reference {p!r}"
    std_err = math.sqrt(p * (1.0 - p) / op["nsims"])
    if abs(estimate - p) > 6.0 * std_err + tol:
        return f"estimate {estimate!r} is far from the closed form {p!r}"
    return None


CHECKS = {"power": _check_power, "interim": _check_interim,
          "solve": _check_solve, "curve": _check_curve, "ssrp": _check_ssrp,
          "simulate": _check_simulate}


def check(op, out, seen):
    code, stdout, message = out
    if code != 0:
        return f"exit status {code}: {message.strip()}"
    first = seen.setdefault(tuple(op["argv"]), stdout)
    if stdout != first:
        return "same argv printed different output"
    try:
        return CHECKS[op["cmd"]](op, stdout.decode())
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
