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

from . import _methods
from .design import (DEFAULT_CONFIG, METHODS_FIXED, METHODS_INTERIM,
                     DesignConfig, FixedDesign, design_power)
from .interim import (FutilityRule, InterimState, futility_decision,
                      interim_power)

ENV_DATA_PATH = "REPOWER_SSRP_DATA"
_SQRT2 = math.sqrt(2.0)

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


_a_record = _methods.record(SsrpRecord)


def default_data_path():
    """Path of the bundled dataset file."""
    return str(resources.files("repower").joinpath("data/ssrp.csv"))


def _float(raw, key, study):
    raw = raw.strip()
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


def _int(raw, key, study):
    value = _float(raw, key, study)
    if value is None:
        return None
    if value != int(value):
        raise DatasetError(f"{study}: column {key!r} must be an integer")
    return int(value)


# the columns a dataset file must have, and the converter of each
# numeric one
_COLUMNS = tuple(f.name for f in fields(SsrpRecord))
_CONVERTERS = tuple((f.name, _int if f.type is int else _float)
                    for f in fields(SsrpRecord)[1:])


def load_csv(path=None):
    """Load and validate the replication dataset.

    The file is taken from ``path`` if given, else from the
    ``REPOWER_SSRP_DATA`` environment variable, else the bundled copy.

    Raises
    ------
    DatasetError
        On unreadable files, missing columns, rows whose field count
        differs from the header's, or non-numeric fields.
    InvariantViolation
        When a row's columns contradict each other (standard errors
        not matching sample sizes, Fisher z not matching r, p-values
        not matching z-statistics, or half-filled stage-2 data).
    """
    if path is None:
        path = os.environ.get(ENV_DATA_PATH) or default_data_path()
    elif not isinstance(path, (str, os.PathLike)):
        # open() reads an int, or a bool, as a file descriptor
        raise ValueError(f"path must be a str or an os.PathLike, not "
                         f"{type(path).__name__}")
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DatasetError(f"{path}: empty dataset file")
            # a repeated column name reads its last copy
            index = {name: i for i, name in enumerate(header)}
            missing = set(_COLUMNS) - set(index)
            if missing:
                raise DatasetError(
                    f"{path}: missing columns {sorted(missing)}")
            rows = [row for row in reader if row]   # blank lines aside
    except OSError as exc:
        raise DatasetError(f"cannot read dataset: {exc}") from None
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    study_at = index["study"]
    columns = [(index[name], name, convert) for name, convert in _CONVERTERS]
    records = []
    problems = []
    for k, row in enumerate(rows, 1):
        study = row[study_at].strip() if study_at < len(row) else ""
        if len(row) != len(header):
            where = study or f"{path}: data row {k}"
            short = (f", no column {header[len(row)]!r}"
                     if len(row) < len(header) else "")
            raise DatasetError(f"{where}: {len(row)} fields where the "
                               f"header has {len(header)}{short}")
        if not study:
            raise DatasetError(f"{path}: row with empty study name")
        rec = SsrpRecord(study, *[convert(row[i], name, study)
                                  for i, name, convert in columns])
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
    # 2 Phi(-|z|), whose lower tail erfc keeps to about 1e-15 relative
    p_expect = math.erfc(abs(fis) / se / _SQRT2)
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
    ratio = rec.se_fiso / rec.se_fisr
    c_se = ratio * ratio
    if abs(c_sizes - c_se) > 1e-6 * c_sizes:
        raise InvariantViolation(
            [f"{rec.study}: relative size from counts ({c_sizes:.8g}) "
             f"and from standard errors ({c_se:.8g}) disagree"])
    return DerivedQuantities(
        study=rec.study, zo=zo, zi=zi, zr=rec.fisr / rec.se_fisr,
        c=c_sizes, c_stage1=c_stage1,
        f=(rec.ni - 3.0) / (rec.nr - 3.0), continued=True)


def _derived(records, continued=False):
    """(record, derived quantities) pairs in file order, derived as they
    are iterated; only the continued studies if ``continued``.  The
    bundled dataset is loaded when ``records`` is None."""
    if records is None:
        records = load_csv()
    return ((rec, derive(rec)) for rec in records
            if _a_record("records entry", rec).continued or not continued)


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
    rows = []
    for rec, d in _derived(records, continued=True):
        ref = REFERENCE_INTERIM_POWER_PCT.get(rec.study)
        if ref is None:
            raise DatasetError(f"{rec.study}: no published interim power")
        rows.append(InterimPowerRow(rec.study, *(
            100.0 * interim_power(m, d.zo, d.zi, d.c, d.f, config)
            for m in METHODS_INTERIM), *ref))
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
    config = DesignConfig(alpha=alpha, shrinkage=shrinkage)
    rows = [DesignPowerRow(rec.study, d.c_stage1, *(
        design_power(m, d.zo, d.c_stage1, config) for m in METHODS_FIXED))
        for rec, d in _derived(records)]
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
    if rule is None:
        rule = FutilityRule()
    rows = []
    for rec, d in _derived(records, continued=True):
        decision = futility_decision(FixedDesign(d.zo, d.c),
                                     InterimState(d.zi, d.f), rule, config)
        rows.append(FutilityReplayRow(
            rec.study, decision.power, decision.stop,
            replicated=rec.pr < 0.05 and (rec.fisr > 0) == (rec.fiso > 0)))
    rows.sort(key=lambda r: r.study)
    failed = [r for r in rows if not r.replicated]
    return FutilityReplayReport(
        rows=tuple(rows), rule=rule,
        n_continued=len(rows),
        n_failed=len(failed),
        n_failed_stopped=sum(r.stop for r in failed),
        n_replicated_stopped=sum(r.stop for r in rows if r.replicated))
