"""monitor: one interim look per operation, and the case-study replay.

A look builds the CPi, IPPi and PPi results with suprema and applies
the futility rule under IPPi and under PPi.  Looks come from the ten
continued studies of the bundled case study and from seeded synthetic
looks, some with a significant interim z-statistic (analytic suprema)
and most without (IPPi takes the numeric supremum).  The first
and the eleventh operations of every round of twenty are instead the
case-study replay: ``load_csv``, ``reproduce_interim_powers`` and
``futility_replay`` for both rules.  Looks with a significant interim
statistic are the cheapest and about a quarter of the operations, so
the median falls inside the band of the other looks; the replay is
the costliest and a tenth of the operations, so the reported 95th
percentile falls in the middle of its band.
"""
import csv
from pathlib import Path

import oracle

from . import log_uniform

SETUP = "import repower; repower.load_csv()"
ROUND = 20
TAIL = 95
IN_PROCESS = True
N_ROUNDS = 400
# slots of a round: 0 and 10 replay the case study, the rest are looks;
# a quarter look at a continued study, a quarter are synthetic looks
# with a significant interim statistic and the rest synthetic looks
# without
REPLAY_SLOTS = (0, 10)
CASE_STUDY_SLOTS = range(3, ROUND, 4)
SIGNIFICANT_SLOTS = range(1, ROUND, 4)
BOUNDARIES = (0.1, 0.2, 0.3)
# what the published futility analysis reports: (failed studies
# stopped, failed studies, successful studies stopped)
REPLAY_EXPECTED = {"IPPi": (4, 8, 0), "PPi": (6, 8, 0)}
DATA = Path(__file__).resolve().parents[2] / "src" / "repower" / "data" \
    / "ssrp.csv"


def case_study_looks():
    """(study, zo, zi, c, f) of the continued studies, from the data file."""
    looks = []
    with open(DATA, newline="") as fh:
        for row in csv.DictReader(fh):
            if not row["nr"].strip():
                continue
            no, ni, nr = (float(row[k]) for k in ("no", "ni", "nr"))
            looks.append((row["study"],
                          float(row["fiso"]) / float(row["se_fiso"]),
                          float(row["fisi"]) / float(row["se_fisi"]),
                          (nr - 3.0) / (no - 3.0), (ni - 3.0) / (nr - 3.0)))
    return looks


def make_ops(rng):
    studies = case_study_looks()
    ops = []
    for r in range(N_ROUNDS):
        for slot in range(ROUND):
            if slot in REPLAY_SLOTS:
                ops.append({"kind": "replay"})
                continue
            boundary = rng.choice(BOUNDARIES)
            if slot in CASE_STUDY_SLOTS:
                study, zo, zi, c, f = rng.choice(studies)
                ops.append(dict(kind="look", study=study, zo=zo, zi=zi, c=c,
                                f=f, alpha=0.05, shrinkage=0.0,
                                boundary=boundary))
                continue
            alpha = rng.choice((0.05, 0.01))
            crit = -oracle.quantile(alpha / 2.0)
            if slot in SIGNIFICANT_SLOTS:
                zi = rng.uniform(crit + 0.1, crit + 2.5)
            else:
                zi = rng.uniform(-2.0, crit - 0.1)
            ops.append(dict(kind="look", study=None,
                            zo=oracle.p_to_z(log_uniform(rng, 1e-5, 0.2)),
                            zi=zi, c=log_uniform(rng, 0.5, 8.0),
                            f=rng.uniform(0.1, 0.9), alpha=alpha,
                            shrinkage=rng.choice((0.0, 0.25)),
                            boundary=boundary))
    return ops


def _run(rp, op):
    if op["kind"] == "replay":
        records = rp.load_csv()
        report = rp.reproduce_interim_powers(records)
        replays = {m: rp.futility_replay(records, rp.FutilityRule(m, 0.30))
                   for m in REPLAY_EXPECTED}
        return records, report, replays
    cfg = rp.DesignConfig(alpha=op["alpha"], shrinkage=op["shrinkage"])
    fixed = rp.FixedDesign(op["zo"], op["c"])
    state = rp.InterimState(op["zi"], op["f"])
    results = (rp.cpi(fixed, state, cfg), rp.ippi(fixed, state, cfg),
               rp.ppi(fixed, state, cfg))
    decisions = tuple(
        rp.futility_decision(fixed, state, rp.FutilityRule(m, op["boundary"]),
                             cfg)
        for m in ("IPPi", "PPi"))
    return results, decisions


def runner():
    import repower as rp
    return lambda op: _run(rp, op)


in_process_runner = runner


def kind(op):
    if op["kind"] == "replay":
        return "case-study replay"
    significant = op["zi"] > -oracle.quantile(op["alpha"] / 2.0)
    source = "case-study look" if op["study"] else "synthetic look"
    return source + (", zi significant" if significant else "")


def describe(op):
    if op["kind"] == "replay":
        return "case-study replay"
    return ", ".join(f"{k}={v!r}" for k, v in op.items() if k != "kind")


def _check_replay(out):
    records, report, replays = out
    if len(records) != 21 or sum(r.continued for r in records) != 10:
        return "load_csv did not return 21 studies, 10 continued"
    if {row.study for row in report.rows} != set(oracle.PUBLISHED_INTERIM_PCT):
        return "reproduce_interim_powers covers the wrong studies"
    for row in report.rows:
        ref = oracle.PUBLISHED_INTERIM_PCT[row.study]
        for got, want in zip((row.cpi, row.ippi, row.ppi), ref):
            if not abs(got - want) <= 0.1:
                return f"{row.study}: {got!r}% against published {want}%"
    for method, want in REPLAY_EXPECTED.items():
        rep = replays[method]
        got = (rep.n_failed_stopped, rep.n_failed, rep.n_replicated_stopped)
        if rep.n_continued != 10 or got != want:
            return f"{method} futility replay gave {got}, expected {want}"
    return None


# remaining-size grid, in units of the original study
SUP_GRID = tuple(10.0 ** k for k in range(-3, 5))


def check(op, out, seen):
    if op["kind"] == "replay":
        return _check_replay(out)
    results, decisions = out
    zo, zi, c, f = op["zo"], op["zi"], op["c"], op["f"]
    cfg = (op["alpha"], op["shrinkage"], False)
    k = c * f   # interim size, held fixed along the supremum's axis
    for method, res in zip(oracle.INTERIM, results):
        ref = oracle.interim_power(method, zo, zi, c, f, *cfg)
        curve = [oracle.interim_power(method, zo, zi, k + x, k / (k + x),
                                      *cfg) for x in SUP_GRID]
        if res.method != method or not oracle.close(res.power, ref):
            return f"{method} power {res.power!r}, reference {ref!r}"
        if not res.power <= res.supremum <= 1.0:
            return f"{method} supremum {res.supremum!r} below its power"
        if res.supremum < max(curve) - 1e-12:
            return f"{method} supremum {res.supremum!r} below the curve"
        if res.feasible_100 != (res.supremum >= 1.0 - 1e-12):
            return f"{method} feasible_100 disagrees with its supremum"
    for method, dec in zip(("IPPi", "PPi"), decisions):
        ref = oracle.interim_power(method, zo, zi, c, f, *cfg)
        if dec.method != method or not oracle.close(dec.power, ref):
            return f"{method} futility power {dec.power!r}, reference {ref!r}"
        if abs(ref - op["boundary"]) > 1e-9 and \
                dec.stop != (ref < op["boundary"]):
            return f"{method} futility decision stop={dec.stop} is wrong"
    return None

