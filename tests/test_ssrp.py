"""Dataset ingestion, derived quantities, and case-study reports."""
import re

import numpy as np
import pytest

from repower import (METHODS_INTERIM, DatasetError, DesignConfig,
                     FixedDesign, FutilityRule, InterimState,
                     InvariantViolation, REFERENCE_INTERIM_POWER_PCT,
                     SsrpRecord, cli, derive, fisher_z, futility_decision,
                     futility_replay, interim_power, load_csv,
                     reproduce_design_powers, reproduce_interim_powers,
                     std_normal_cdf)

HEADER = ("study,ro,ri,rr,fiso,fisi,fisr,se_fiso,se_fisi,se_fisr,"
          "no,ni,nr,po,pi,pr")


def _fields(study="Synthetic et al. (2020)", ro=0.3, no=103, ri=0.2,
            ni=53, rr=0.25, nr=103, stopped=False, **overrides):
    """One internally consistent CSV row, optionally with broken cells."""
    def stage(r, n):
        fis = float(fisher_z(r))
        se = float(1.0 / np.sqrt(n - 3))
        p = 2.0 * float(std_normal_cdf(-abs(fis) / se))
        return fis, se, p

    fiso, seo, po = stage(ro, no)
    fisi, sei, pi = stage(ri, ni)
    fisr, ser, pr = stage(rr, nr)
    row = {
        "study": study, "ro": repr(ro), "ri": repr(ri), "rr": repr(rr),
        "fiso": repr(fiso), "fisi": repr(fisi), "fisr": repr(fisr),
        "se_fiso": repr(seo), "se_fisi": repr(sei), "se_fisr": repr(ser),
        "no": str(no), "ni": str(ni), "nr": str(nr),
        "po": repr(po), "pi": repr(pi), "pr": repr(pr),
    }
    if stopped:
        for col in ("rr", "fisr", "se_fisr", "nr", "pr"):
            row[col] = ""
    row.update(overrides)
    return row


def _write(tmp_path, rows, name="data.csv"):
    path = tmp_path / name
    lines = [HEADER] + [",".join(r[c] for c in HEADER.split(","))
                        for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_bundled_dataset_shape(records):
    assert len(records) == 21
    assert sum(r.continued for r in records) == 10
    assert len({r.study for r in records}) == 21


def test_path_and_env_override(tmp_path, monkeypatch):
    path = _write(tmp_path, [_fields()])
    recs = load_csv(path)
    assert len(recs) == 1 and recs[0].continued
    monkeypatch.setenv("REPOWER_SSRP_DATA", path)
    assert len(load_csv()) == 1
    monkeypatch.delenv("REPOWER_SSRP_DATA")
    assert len(load_csv()) == 21


def test_parse_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DatasetError):
        load_csv(str(empty))
    with pytest.raises(DatasetError):
        load_csv(str(tmp_path / "missing.csv"))
    headerless = tmp_path / "bad.csv"
    headerless.write_text("study,ro\nfoo,0.3\n")
    with pytest.raises(DatasetError):
        load_csv(headerless)
    row = _fields()
    row["no"] = "xyz"
    garbled = _write(tmp_path, [row], "garbled.csv")
    with pytest.raises(DatasetError):
        load_csv(garbled)


STUDY = "Synthetic et al. (2020)"


@pytest.mark.parametrize("overrides, error, text", [
    ({"ro": "nan"}, DatasetError, f"{STUDY}: column 'ro' is not finite"),
    ({"no": "103.5"}, DatasetError,
     f"{STUDY}: column 'no' must be an integer"),
    # the header alone
    (None, DatasetError, ": no data rows"),
    ({"study": "  "}, DatasetError, ": row with empty study name"),
    ({"fisi": ""}, InvariantViolation,
     f"violations: {STUDY}: incomplete interim columns"),
    ({"ni": "3"}, InvariantViolation,
     f"violations: {STUDY}: interim sample size below 4"),
    ({"ro": "1.5"}, InvariantViolation,
     f"violations: {STUDY}: original correlation outside (-1, 1)"),
    ({"pr": "0.5"}, InvariantViolation,
     f"violations: {STUDY}: final p-value inconsistent with z"),
])
def test_loader_errors_say_what_is_wrong(tmp_path, overrides, error, text):
    rows = [] if overrides is None else [{**_fields(), **overrides}]
    with pytest.raises(error) as exc:
        load_csv(_write(tmp_path, rows))
    assert str(exc.value).endswith(text)


@pytest.mark.parametrize("ragged, text", [
    (lambda row: row[:-1],
     f"{STUDY}: 15 fields where the header has 16, no column 'pr'"),
    (lambda row: row + ["7"], f"{STUDY}: 17 fields where the header has 16"),
], ids=["short", "long"])
def test_a_ragged_row_names_its_study_and_field_count(tmp_path, capsys,
                                                       ragged, text):
    row = ragged([_fields()[c] for c in HEADER.split(",")])
    path = tmp_path / "ragged.csv"
    path.write_text(HEADER + "\n" + ",".join(row) + "\n")
    with pytest.raises(DatasetError) as exc:
        load_csv(str(path))
    assert str(exc.value) == text
    assert cli.main(["ssrp", "--data", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {text}\n"


def test_a_continued_study_needs_a_published_interim_power(tmp_path):
    records = load_csv(_write(tmp_path, [_fields()]))
    with pytest.raises(DatasetError, match=rf"^{re.escape(STUDY)}: no "
                       "published interim power$"):
        reproduce_interim_powers(records)


def test_invariant_violations_reported_with_rows(tmp_path):
    # standard error inconsistent with the sample size by more than 1%
    bad_se = _fields(study="BadSe et al. (2020)", se_fiso="0.2")
    # Fisher effect inconsistent with the correlation
    bad_fis = _fields(study="BadFis et al. (2020)", fiso="0.5")
    path = _write(tmp_path, [_fields(), bad_se, bad_fis])
    with pytest.raises(InvariantViolation) as exc:
        load_csv(path)
    text = "\n".join(exc.value.problems)
    assert "BadSe" in text and "BadFis" in text
    assert "standard error" in text and "Fisher z" in text
    assert len(exc.value.problems) >= 2


def test_stage2_all_or_none(tmp_path):
    half = _fields(study="Half et al. (2020)")
    half["nr"] = ""
    path = _write(tmp_path, [half])
    with pytest.raises(InvariantViolation):
        load_csv(path)


def test_interim_cannot_exceed_final(tmp_path):
    shrunk = _fields(study="Backwards et al. (2020)", ni=203, nr=103)
    path = _write(tmp_path, [shrunk])
    with pytest.raises(InvariantViolation):
        load_csv(path)


def test_derive_known_rows(by_study):
    d = derive(by_study["Duncan"])
    assert d.c == pytest.approx(7.42, abs=0.005)
    assert d.f == pytest.approx(0.37, abs=0.005)
    assert d.zo == pytest.approx(2.8355, abs=1e-3)
    assert d.continued
    d = derive(by_study["Shah"])
    assert d.c == pytest.approx(11.62, abs=0.005)
    assert d.f == pytest.approx(0.45, abs=0.005)
    assert d.zi < 0.0
    assert d.zi == pytest.approx(-1.4493, abs=1e-3)


def test_derive_dual_route_consistency(records):
    for rec in records:
        d = derive(rec)
        k = (rec.ni - 3) / (rec.no - 3)
        assert d.c_stage1 == pytest.approx(k, rel=1e-12)
        if rec.continued:
            assert d.c == pytest.approx((rec.nr - 3) / (rec.no - 3),
                                        rel=1e-12)
            assert d.c == pytest.approx(d.c_stage1 / d.f, rel=1e-9)
            assert 0.0 < d.f < 1.0
        else:
            assert d.c is None and d.f is None and d.zr is None


def test_derive_rejects_inconsistent_variance_ratio():
    rec = SsrpRecord(study="Skewed et al. (2020)", ro=0.3, ri=0.2,
                     rr=0.25, fiso=float(fisher_z(0.3)),
                     fisi=float(fisher_z(0.2)),
                     fisr=float(fisher_z(0.25)), se_fiso=0.1,
                     se_fisi=1.0 / np.sqrt(50.0),
                     se_fisr=0.1005, no=103, ni=53, nr=103,
                     po=0.002, pi=0.152, pr=0.011)
    with pytest.raises(InvariantViolation):
        derive(rec)


def test_derive_synthetic_equal_sizes(tmp_path):
    path = _write(tmp_path, [_fields(no=103, nr=103)])
    d = derive(load_csv(path)[0])
    assert d.c == pytest.approx(1.0, rel=1e-12)


def test_sign_carries_through(records):
    for rec in records:
        d = derive(rec)
        assert np.sign(d.zo) == np.sign(rec.fiso)
        assert np.sign(d.zi) == np.sign(rec.fisi)


def test_effect_direction_audit(records):
    assert all(rec.ro > 0 for rec in records)
    assert all(rec.po < 0.05 for rec in records)
    declined = sum(
        rec.ro > (rec.rr if rec.continued else rec.ri)
        for rec in records)
    assert declined == 19
    significant = sum(abs(derive(rec).zi) > 1.959964 for rec in records)
    assert significant == 12


def test_interim_power_report(records):
    report = reproduce_interim_powers(records)
    assert len(report.rows) == 10
    assert report.max_abs_diff_pp < 0.1
    assert report.mismatches == ()
    rows = {r.study.split()[0]: r for r in report.rows}
    assert rows["Pyc"].cpi == pytest.approx(100.0, abs=0.1)
    assert rows["Pyc"].ippi == pytest.approx(85.3, abs=0.1)
    assert rows["Pyc"].ppi == pytest.approx(71.0, abs=0.1)
    assert rows["Sparrow"].cpi == pytest.approx(99.7, abs=0.1)
    assert rows["Sparrow"].ippi == pytest.approx(74.1, abs=0.1)
    assert rows["Sparrow"].ppi == pytest.approx(40.1, abs=0.1)
    assert rows["Shah"].cpi == pytest.approx(87.0, abs=0.1)
    # the one study continued despite a significant interim p-value
    assert rows["Ackerman"].ppi == pytest.approx(90.3, abs=0.1)


def test_reference_table_is_complete():
    assert len(REFERENCE_INTERIM_POWER_PCT) == 10
    for vals in REFERENCE_INTERIM_POWER_PCT.values():
        assert len(vals) == 3


def test_design_power_report(records):
    report = reproduce_design_powers(records, shrinkage=0.25)
    assert len(report.rows) == 21
    assert report.shrinkage == 0.25
    assert report.cp_ge_pp_all
    assert report.cbp_ge_fbp_all
    assert report.fbp_pp_sign_varies
    for row in report.rows:
        assert row.cp > row.pp
        assert row.cbp > row.fbp
    diffs = [row.fbp - row.pp for row in report.rows]
    assert min(diffs) < 0.0 < max(diffs)


def test_interim_ordering_on_continued_rows(records):
    report = reproduce_interim_powers(records)
    rows = {r.study.split()[0]: r for r in report.rows}
    rand = rows["Rand"]
    assert rand.cpi >= rand.ippi >= rand.ppi
    assert rand.cpi == pytest.approx(99.8, abs=0.1)
    assert rand.ippi == pytest.approx(51.9, abs=0.1)
    assert rand.ppi == pytest.approx(27.0, abs=0.1)


def test_futility_replay(records):
    replay = futility_replay(records, FutilityRule("IPPi", 0.30))
    assert replay.n_continued == 10
    assert replay.n_failed == 8
    assert replay.n_failed_stopped == 4
    assert replay.n_replicated_stopped == 0
    stopped = {r.study.split()[0] for r in replay.rows if r.stop}
    assert stopped == {"Gervais", "Kidd", "Lee", "Shah"}
    replay = futility_replay(records, FutilityRule("PPi", 0.30))
    assert replay.n_failed_stopped == 6
    assert replay.n_replicated_stopped == 0
    stopped = {r.study.split()[0] for r in replay.rows if r.stop}
    assert stopped == {"Gervais", "Kidd", "Lee", "Shah", "Ramirez",
                       "Rand"}


def test_reports_default_to_the_bundled_data_and_rule(records):
    assert reproduce_interim_powers() == reproduce_interim_powers(records)
    assert futility_replay(records) == futility_replay(records,
                                                       FutilityRule())


@pytest.mark.parametrize("config", [DesignConfig(),
                                    DesignConfig(0.01, 0.3, True)])
def test_report_rows_are_the_per_study_calls_bit_for_bit(records, config):
    # the reports may evaluate the studies in any way, but must give
    # the very floats one call per study gives
    looks = {rec.study: derive(rec) for rec in records if rec.continued}
    report = reproduce_interim_powers(records, config)
    assert [r.study for r in report.rows] == sorted(looks)
    for row in report.rows:
        d = looks[row.study]
        assert (row.cpi, row.ippi, row.ppi) == tuple(
            100.0 * interim_power(m, d.zo, d.zi, d.c, d.f, config)
            for m in METHODS_INTERIM)
    for rule in (FutilityRule("IPPi", 0.3), FutilityRule("PPi", 0.1)):
        replay = futility_replay(records, rule, config)
        for row in replay.rows:
            d = looks[row.study]
            decision = futility_decision(FixedDesign(d.zo, d.c),
                                         InterimState(d.zi, d.f), rule,
                                         config)
            assert (row.power, row.stop) == (decision.power, decision.stop)
