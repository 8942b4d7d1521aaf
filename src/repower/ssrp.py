"""Case study: 21 two-stage replications of social-science experiments.

The bundled dataset (see ``data/PROVENANCE.txt``) covers a coordinated
replication program in which every replication ran in two stages.
Eleven studies stopped after stage 1; ten continued to stage 2, and for
those the interim analysis is exactly the situation the interim power
methods address.  Effects are correlation coefficients; on the Fisher
z-scale an estimated correlation from n pairs has standard error
1 / sqrt(n - 3), so the effective relative sample size of a replication
is c = (nr - 3) / (no - 3) and the interim fraction is
f = (ni - 3) / (nr - 3).

``reproduce_interim_powers`` recomputes the three interim powers for
the ten continued studies and compares them with the published
percentages; ``reproduce_design_powers`` evaluates the four
design-stage methods on all 21 studies; ``futility_replay`` asks which
continued studies a power-based stopping rule would have halted.
"""
import csv
import math
import os
from dataclasses import dataclass, fields
from importlib import resources

from .design import DEFAULT_CONFIG, DesignConfig, design_power
from .interim import interim_power
from .normal import std_normal_cdf
from .solver import FutilityRule

ENV_DATA_PATH = "REPOWER_SSRP_DATA"

_STAGE2 = ("rr", "fisr", "se_fisr", "nr", "pr")

# published interim power, percent, for the ten continued studies
REFERENCE_INTERIM_POWER_PCT = {
    "Ackerman et al. (2010)": (100.0, 95.0, 90.3),
    "Duncan et al. (2012)": (100.0, 74.6, 43.4),
    "Gervais and Norenzayan (2012)": (97.5, 1.9, 0.3),
    "Kidd and Castano (2013)": (98.9, 1.6, 0.1),
    "Lee and Schwarz (2010)": (97.7, 3.1, 0.4),
    "Pyc and Rawson (2010)": (100.0, 85.3, 71.0),
    "Ramirez and Beilock (2011)": (100.0, 61.4, 4.2),
    "Rand et al. (2012)": (99.8, 51.9, 27.0),
    "Shah et al. (2012)": (87.0, 0.1, 0.0),
    "Sparrow et al. (2011)": (99.7, 74.1, 40.1),
}


class DatasetError(ValueError):
    """The dataset file is missing, malformed, or incomplete."""


class InvariantViolation(ValueError):
    """Rows whose columns contradict each other; lists the offenders."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("dataset invariant violations: "
                         + "; ".join(self.problems))


@dataclass(frozen=True)
class SsrpRecord:
    """One replication: correlations, Fisher-z values, sizes, p-values.

    Stage-2 fields (``rr``, ``fisr``, ``se_fisr``, ``nr``, ``pr``) are
    None for the eleven studies stopped after stage 1.
    """

    study: str
    ro: float
    ri: float
    rr: float
    fiso: float
    fisi: float
    fisr: float
    se_fiso: float
    se_fisi: float
    se_fisr: float
    no: int
    ni: int
    nr: int
    po: float
    pi: float
    pr: float

    @property
    def continued(self):
        return self.nr is not None


# the columns a dataset file must have
_COLUMNS = tuple(f.name for f in fields(SsrpRecord))


def default_data_path():
    """Path of the bundled dataset file."""
    return str(resources.files("repower").joinpath("data/ssrp.csv"))


def _float(row, key, study):
    raw = row[key].strip()
    if raw == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise DatasetError(f"{study}: column {key!r} is not numeric: "
                           f"{raw!r}") from None
    if not math.isfinite(value):
        raise DatasetError(f"{study}: column {key!r} is not finite")
    return value


def _int(row, key, study):
    value = _float(row, key, study)
    if value is None:
        return None
    if value != int(value):
        raise DatasetError(f"{study}: column {key!r} must be an integer")
    return int(value)


def load_csv(path=None):
    """Load and validate the replication dataset.

    The file is taken from ``path`` if given, else from the
    ``REPOWER_SSRP_DATA`` environment variable, else the bundled copy.

    Raises
    ------
    DatasetError
        On unreadable files, missing columns, or non-numeric fields.
    InvariantViolation
        When a row's columns contradict each other (standard errors
        not matching sample sizes, Fisher z not matching r, p-values
        not matching z-statistics, or half-filled stage-2 data).
    """
    if path is None:
        path = os.environ.get(ENV_DATA_PATH) or default_data_path()
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise DatasetError(f"{path}: empty dataset file")
            missing = set(_COLUMNS) - set(reader.fieldnames)
            if missing:
                raise DatasetError(
                    f"{path}: missing columns {sorted(missing)}")
            rows = list(reader)
    except OSError as exc:
        raise DatasetError(f"cannot read dataset: {exc}") from None
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    records = []
    problems = []
    for row in rows:
        study = (row["study"] or "").strip()
        if not study:
            raise DatasetError(f"{path}: row with empty study name")
        rec = SsrpRecord(study, *(
            (_int if f.type is int else _float)(row, f.name, study)
            for f in fields(SsrpRecord)[1:]))
        problems.extend(_row_problems(rec))
        records.append(rec)
    if problems:
        raise InvariantViolation(problems)
    return records


def _check_triplet(study, label, r, fis, se, p, n, problems):
    if r is None or fis is None or se is None or p is None or n is None:
        problems.append(f"{study}: incomplete {label} columns")
        return
    if n < 4:
        problems.append(f"{study}: {label} sample size below 4")
        return
    if not -1.0 < r < 1.0:
        problems.append(f"{study}: {label} correlation outside (-1, 1)")
        return
    if abs(fis - math.atanh(r)) > 1e-6:
        problems.append(f"{study}: {label} Fisher z inconsistent with r")
    se_expect = 1.0 / math.sqrt(n - 3.0)
    if abs(se - se_expect) > 0.01 * se_expect:
        problems.append(f"{study}: {label} standard error inconsistent "
                        f"with sample size")
    p_expect = float(2.0 * std_normal_cdf(-abs(fis) / se))
    if abs(p - p_expect) > 1e-6 * max(p_expect, 1e-12):
        problems.append(f"{study}: {label} p-value inconsistent with z")


def _row_problems(rec):
    problems = []
    filled = [getattr(rec, k) is not None for k in _STAGE2]
    if any(filled) != all(filled):
        problems.append(f"{rec.study}: stage-2 columns half filled")
        return problems
    _check_triplet(rec.study, "original", rec.ro, rec.fiso, rec.se_fiso,
                   rec.po, rec.no, problems)
    _check_triplet(rec.study, "interim", rec.ri, rec.fisi, rec.se_fisi,
                   rec.pi, rec.ni, problems)
    if all(filled):
        _check_triplet(rec.study, "final", rec.rr, rec.fisr, rec.se_fisr,
                       rec.pr, rec.nr, problems)
        if rec.nr is not None and rec.ni is not None and rec.nr <= rec.ni:
            problems.append(f"{rec.study}: final size not above interim")
    return problems


@dataclass(frozen=True)
class DerivedQuantities:
    """Unitless inputs for the power methods, derived from one record.

    ``c`` and ``f`` use the effective sizes n - 3 of the Fisher z
    scale.  ``zr`` and the stage-2 ratios are None for stopped studies;
    ``c_stage1 = (ni - 3) / (no - 3)`` exists for every study.
    """

    study: str
    zo: float
    zi: float
    zr: float
    c: float
    c_stage1: float
    f: float
    continued: bool


def derive(rec):
    """Derived z-statistics and relative sizes for one record.

    The relative size c is computed both from the sample sizes and from
    the squared standard-error ratio; disagreement beyond a relative
    1e-6 raises InvariantViolation.
    """
    zo = rec.fiso / rec.se_fiso
    zi = rec.fisi / rec.se_fisi
    c_stage1 = (rec.ni - 3.0) / (rec.no - 3.0)
    if not rec.continued:
        return DerivedQuantities(study=rec.study, zo=zo, zi=zi, zr=None,
                                 c=None, c_stage1=c_stage1, f=None,
                                 continued=False)
    c_sizes = (rec.nr - 3.0) / (rec.no - 3.0)
    c_se = (rec.se_fiso / rec.se_fisr) ** 2
    if abs(c_sizes - c_se) > 1e-6 * c_sizes:
        raise InvariantViolation(
            [f"{rec.study}: relative size from counts ({c_sizes:.8g}) "
             f"and from standard errors ({c_se:.8g}) disagree"])
    return DerivedQuantities(
        study=rec.study, zo=zo, zi=zi, zr=rec.fisr / rec.se_fisr,
        c=c_sizes, c_stage1=c_stage1,
        f=(rec.ni - 3.0) / (rec.nr - 3.0), continued=True)


@dataclass(frozen=True)
class InterimPowerRow:
    """Computed vs published interim power (percent) for one study."""

    study: str
    cpi: float
    ippi: float
    ppi: float
    ref_cpi: float
    ref_ippi: float
    ref_ppi: float

    @property
    def max_abs_diff(self):
        return max(abs(self.cpi - self.ref_cpi),
                   abs(self.ippi - self.ref_ippi),
                   abs(self.ppi - self.ref_ppi))


@dataclass(frozen=True)
class InterimPowerReport:
    """Rows plus the studies deviating beyond 0.1 percentage points."""

    rows: tuple
    max_abs_diff_pp: float
    mismatches: tuple


def reproduce_interim_powers(records=None, config=DEFAULT_CONFIG):
    """Interim power of the ten continued studies vs published values.

    Returns an InterimPowerReport whose rows carry the computed and the
    published percentages; ``max_abs_diff_pp`` is the largest absolute
    difference in percentage points.
    """
    if records is None:
        records = load_csv()
    rows = []
    for rec in records:
        if not rec.continued:
            continue
        d = derive(rec)
        ref = REFERENCE_INTERIM_POWER_PCT.get(rec.study)
        if ref is None:
            raise DatasetError(f"{rec.study}: no published interim power")
        cpi = 100.0 * interim_power("CPi", d.zo, d.zi, d.c, d.f, config)
        ippi = 100.0 * interim_power("IPPi", d.zo, d.zi, d.c, d.f, config)
        ppi = 100.0 * interim_power("PPi", None, d.zi, d.c, d.f, config)
        rows.append(InterimPowerRow(rec.study, cpi, ippi, ppi, *ref))
    rows.sort(key=lambda r: r.study)
    return InterimPowerReport(
        rows=tuple(rows),
        max_abs_diff_pp=max(r.max_abs_diff for r in rows),
        mismatches=tuple(r.study for r in rows if r.max_abs_diff > 0.1))


@dataclass(frozen=True)
class DesignPowerRow:
    """The four design-stage powers for one study's stage-1 size."""

    study: str
    c_stage1: float
    cp: float
    pp: float
    fbp: float
    cbp: float


@dataclass(frozen=True)
class DesignPowerReport:
    rows: tuple
    shrinkage: float
    cp_ge_pp_all: bool
    cbp_ge_fbp_all: bool
    fbp_pp_sign_varies: bool


def reproduce_design_powers(records=None, shrinkage=0.25,
                            alpha=DEFAULT_CONFIG.alpha):
    """Design-stage power of every study's stage-1 size.

    Evaluates CP, PP, FBP and CBP at c = (ni - 3) / (no - 3) with the
    given shrinkage of the original estimate, and summarizes the
    orderings across the 21 studies.
    """
    if records is None:
        records = load_csv()
    config = DesignConfig(alpha=alpha, shrinkage=shrinkage)
    rows = []
    for rec in records:
        d = derive(rec)
        rows.append(DesignPowerRow(
            study=rec.study, c_stage1=d.c_stage1,
            cp=design_power("CP", d.zo, d.c_stage1, config),
            pp=design_power("PP", d.zo, d.c_stage1, config),
            fbp=design_power("FBP", d.zo, d.c_stage1, config),
            cbp=design_power("CBP", d.zo, d.c_stage1, config)))
    rows.sort(key=lambda r: r.study)
    signs = {r.fbp > r.pp for r in rows}
    return DesignPowerReport(
        rows=tuple(rows), shrinkage=shrinkage,
        cp_ge_pp_all=all(r.cp >= r.pp for r in rows),
        cbp_ge_fbp_all=all(r.cbp >= r.fbp for r in rows),
        fbp_pp_sign_varies=signs == {True, False})


@dataclass(frozen=True)
class FutilityReplayRow:
    """One continued study under a hypothetical stopping rule."""

    study: str
    power: float
    stop: bool
    replicated: bool


@dataclass(frozen=True)
class FutilityReplayReport:
    rows: tuple
    rule: FutilityRule
    n_continued: int
    n_failed: int
    n_failed_stopped: int
    n_replicated_stopped: int


def futility_replay(records=None, rule=None, config=DEFAULT_CONFIG):
    """Apply a futility boundary to the ten continued studies.

    A study counts as replicated when its final pooled result is
    significant at two-sided 0.05 with the original's sign.  The report
    says how many of the studies that ultimately failed would have been
    stopped at interim by the rule, and how many successes it would
    have cost.
    """
    if records is None:
        records = load_csv()
    if rule is None:
        rule = FutilityRule()
    rows = []
    for rec in records:
        if not rec.continued:
            continue
        d = derive(rec)
        power = interim_power(rule.method, d.zo, d.zi, d.c, d.f, config)
        replicated = rec.pr < 0.05 and (rec.fisr > 0) == (rec.fiso > 0)
        rows.append(FutilityReplayRow(
            study=rec.study, power=float(power),
            stop=bool(power < rule.boundary), replicated=replicated))
    rows.sort(key=lambda r: r.study)
    failed = [r for r in rows if not r.replicated]
    return FutilityReplayReport(
        rows=tuple(rows), rule=rule,
        n_continued=len(rows),
        n_failed=len(failed),
        n_failed_stopped=sum(r.stop for r in failed),
        n_replicated_stopped=sum(r.stop for r in rows if r.replicated))
