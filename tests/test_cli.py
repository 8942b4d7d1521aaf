"""Command-line interface: envelopes, exit codes, formats."""
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repower import cli


def run(argv, capsys):
    """Invoke the CLI in process and capture (code, stdout, stderr)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def envelope(argv, capsys):
    code, out, err = run(argv + ["--format", "json"], capsys)
    assert code == 0, err
    return json.loads(out)


def test_json_envelope_shape(capsys):
    code, out, err = run(["power", "--method", "cp", "--zo", "2",
                          "--c", "4", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["command", "inputs", "results", "warnings"]
    assert data["command"] == "power"
    assert isinstance(data["warnings"], list)
    assert data["results"]["CP"]["power"] == pytest.approx(
        0.979326630641108, abs=1e-12)
    assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_p_value_input_reproduces_half_power(capsys):
    data = envelope(["power", "--method", "cp", "--po", "0.05",
                     "--dir", "+", "--c", "1"], capsys)
    assert data["results"]["CP"]["power"] == pytest.approx(0.5, abs=1e-9)
    data = envelope(["power", "--method", "pp", "--po", "0.046",
                     "--dir", "+", "--c", "0.96"], capsys)
    assert data["results"]["PP"]["power"] == pytest.approx(0.5, abs=0.01)


def test_power_default_reports_all_methods(capsys):
    data = envelope(["power", "--zo", "2.5", "--c", "2"], capsys)
    assert sorted(data["results"]) == ["CBP", "CP", "FBP", "PP"]
    code, out, _ = run(["power", "--zo", "2.5", "--c", "2"], capsys)
    assert code == 0
    for tag in ("CP", "PP", "FBP", "CBP"):
        assert tag in out


def test_argument_conflicts_exit_2(capsys):
    cases = [
        ["power", "--zo", "2", "--po", "0.05", "--dir", "+", "--c", "1"],
        ["power", "--po", "0.05", "--c", "1"],
        ["power", "--c", "1"],
        ["power", "--zo", "2", "--c", "-1"],
        ["power", "--zo", "2", "--c", "xyz"],
        ["power", "--zo", "2"],
        ["interim", "--method", "cpi", "--zi", "1", "--c", "2",
         "--f", "0.4"],
        ["interim", "--method", "cpi", "--zo", "2", "--zi", "1",
         "--f", "0.4"],
        ["interim", "--method", "ppi", "--zi", "1", "--f", "0"],
        ["interim", "--zo", "2", "--zi", "1", "--c", "2", "--f", "1"],
        ["solve", "--method", "ppi", "--target", "0.6", "--zi", "1.5",
         "--f", "0.4"],
        ["solve", "--method", "cp", "--target", "1.5", "--zo", "2"],
        ["curve", "--method", "cp", "--zo", "2",
         "--c-range", "2:1:0.5"],
        ["power", "--method", "nope", "--zo", "2", "--c", "1"],
        [],
    ]
    for argv in cases:
        code, _, err = run(argv, capsys)
        assert code == 2, (argv, err)


def test_conflict_messages_are_specific(capsys):
    _, _, err = run(["power", "--zo", "2", "--po", "0.05", "--dir", "+",
                     "--c", "1"], capsys)
    assert "not both" in err
    _, _, err = run(["power", "--po", "0.05", "--c", "1"], capsys)
    assert "--dir" in err
    _, _, err = run(["interim", "--method", "ppi", "--zi", "1",
                     "--f", "0"], capsys)
    assert "interim fraction" in err


def test_domain_errors_exit_1(capsys):
    code, _, err = run(["solve", "--method", "pp", "--target", "0.999",
                        "--zo", "2.31"], capsys)
    assert code == 1
    assert err.startswith("error:")
    assert "supremum 0.9895" in err
    code, _, err = run(["power", "--zo", "2", "--c", "inf"], capsys)
    assert code == 1 or code == 2


def test_interim_f_zero_reduces_to_design(capsys):
    at_zero = envelope(["interim", "--method", "cpi", "--zo", "2.2",
                        "--zi", "0.7", "--c", "1.8", "--f", "0"], capsys)
    fixed = envelope(["power", "--method", "cp", "--zo", "2.2",
                      "--c", "1.8"], capsys)
    assert (at_zero["results"]["CPi"]["power"]
            == fixed["results"]["CP"]["power"])
    skipped = envelope(["interim", "--zo", "2.2", "--zi", "0.7",
                        "--c", "1.8", "--f", "0"], capsys)
    assert "PPi" not in skipped["results"]
    assert any("PPi is undefined at f = 0; skipped" in w
               for w in skipped["warnings"])


def test_ppi_needs_no_original_study(capsys):
    data = envelope(["interim", "--method", "ppi", "--zi", "2.0537",
                     "--f", "0.5"], capsys)
    assert data["results"]["PPi"]["power"] >= 0.73


def test_solve_round_trip_through_cli(capsys):
    solved = envelope(["solve", "--method", "cp", "--target", "0.9",
                       "--zo", "2.31"], capsys)
    c = solved["results"]["c"]
    back = envelope(["power", "--method", "cp", "--zo", "2.31",
                     "--c", repr(c)], capsys)
    assert back["results"]["CP"]["power"] == pytest.approx(0.9, abs=1e-6)


def test_curve_csv_is_parseable(capsys):
    code, out, _ = run(["curve", "--method", "cp", "--zo", "2",
                        "--c-range", "0.5:2:0.5", "--format", "csv"],
                       capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["c", "power"]
    assert len(rows) == 5
    powers = [float(r[1]) for r in rows[1:]]
    assert powers == sorted(powers)
    assert [float(r[0]) for r in rows[1:]] == [0.5, 1.0, 1.5, 2.0]


def test_curve_interim_axis_is_remaining_fraction(capsys):
    code, out, _ = run(["curve", "--method", "ippi", "--zo", "2",
                        "--zi", "1", "--c-stage1", "0.8",
                        "--nj-range", "0.5:2:0.75", "--format", "csv"],
                       capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["nj_ratio", "power"]
    assert [float(r[0]) for r in rows[1:]] == [0.5, 1.25, 2.0]
    assert float(rows[2][1]) == pytest.approx(0.5268995018, abs=1e-9)


def test_ssrp_interim_report_csv(capsys):
    code, out, _ = run(["ssrp", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["study", "cpi_pct", "ippi_pct", "ppi_pct"]
    assert len(rows) == 11
    table = {r[0].split()[0]: r for r in rows[1:]}
    assert float(table["Pyc"][1]) == pytest.approx(100.0, abs=0.1)
    assert float(table["Sparrow"][3]) == pytest.approx(40.1, abs=0.1)


def test_ssrp_design_power_flags(capsys):
    data = envelope(["ssrp", "--report", "design-powers"], capsys)
    res = data["results"]
    assert res["cp_ge_pp_all"] is True
    assert res["cbp_ge_fbp_all"] is True
    assert res["fbp_pp_sign_varies"] is True
    assert res["shrinkage"] == 0.25
    assert len(res["rows"]) == 21


def test_ssrp_futility_report(capsys):
    data = envelope(["ssrp", "--report", "futility"], capsys)
    res = data["results"]
    assert res["n_failed_stopped"] == 4
    assert res["n_replicated_stopped"] == 0
    data = envelope(["ssrp", "--report", "futility",
                     "--futility-method", "ppi"], capsys)
    assert data["results"]["n_failed_stopped"] == 6
    code, out, _ = run(["ssrp", "--report", "futility", "--format",
                        "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["study", "power", "stop", "replicated"]
    assert len(rows) == 11


def test_simulate_envelope_and_determinism(capsys):
    argv = ["simulate", "--method", "cpi", "--zo", "2.81", "--zi", "1.2",
            "--c", "2", "--f", "0.4", "--nsims", "20000", "--seed", "7",
            "--format", "json"]
    code, first, _ = run(argv, capsys)
    assert code == 0
    data = json.loads(first)
    res = data["results"]
    assert set(res) == {"estimate", "std_err", "closed_form",
                        "z_score", "n_success"}
    assert res["closed_form"] == pytest.approx(0.936705740517279,
                                               abs=1e-12)
    assert abs(res["z_score"]) < 5.0
    code, second, _ = run(argv, capsys)
    assert first == second


def test_simulate_with_no_spread_scores_zero(capsys):
    # every draw succeeds, so the standard error is 0 and the z-score
    # is 0 rather than a division by it
    res = envelope(["simulate", "--method", "cp", "--zo", "10", "--c", "4",
                    "--nsims", "1000"], capsys)["results"]
    assert (res["estimate"], res["std_err"], res["z_score"]) == \
        (1.0, 0.0, 0.0)


def test_text_warnings_are_prefixed(capsys):
    code, out, _ = run(["interim", "--zo", "2.2", "--zi", "0.7",
                        "--c", "1.8", "--f", "0"], capsys)
    assert code == 0
    assert "warning: PPi is undefined at f = 0; skipped" in out


def test_tiny_p_value_is_accepted(capsys):
    data = envelope(["power", "--po", "1e-20", "--dir", "+", "--c", "1"],
                    capsys)
    assert data["inputs"]["zo"] == pytest.approx(9.336044849234058,
                                                 rel=1e-15)


def test_infeasible_supremum_respects_c_lower(capsys):
    # FBP reaches 1 only as c -> 0; from c = 10 up it stays below Phi(4)
    code, _, err = run(["solve", "--method", "fbp", "--target", "0.99999",
                        "--zo", "4", "--c-lower", "10"], capsys)
    assert code == 1
    assert err == ("error: target power 0.99999 exceeds the attainable "
                   "supremum 0.999968\n")
    code, _, err = run(["solve", "--method", "pp", "--target", "0.999",
                        "--zo", "2.31"], capsys)
    assert code == 1
    assert err == ("error: target power 0.999 exceeds the attainable "
                   "supremum 0.989556\n")


def test_infeasible_supremum_is_reached_within_c_cap(capsys):
    # PPi nears its c -> inf limit 0.767305 only far beyond c = 1e9, the
    # largest size searched; the message reports the maximum below it
    code, _, err = run(["solve", "--method", "ppi", "--target", "0.76",
                        "--zi", "0.73", "--c-stage1", "3e5"], capsys)
    assert code == 1
    assert err == ("error: target power 0.76 exceeds the attainable "
                   "supremum 0.756835\n")


@pytest.mark.parametrize("argv, message", [
    (["power", "--method", "fbp", "--zo", "2", "--c", "1", "--alpha",
      "1e-300"], "error: alpha must exceed about 3.5e-162 for FBP and CBP"),
    (["solve", "--method", "cbp", "--target", "0.5", "--zo", "1e-300",
      "--both-tails"], "error: target power 0.5 exceeds the attainable "
     "supremum 0.00125\n"),
])
def test_tiny_alpha_and_tiny_zo_exit_1_with_a_reason(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith(message)


def test_solve_on_c_stage1_axis_past_2_24(capsys):
    # from c_stage1 = 2**24 on, c_stage1 + 1e-9 rounds back to c_stage1,
    # which put the scan's first point at f = 1
    for method, k in (("ippi", "2e7"), ("cpi", "1e8")):
        data = envelope(["solve", "--method", method, "--target", "0.5",
                         "--zo", "2", "--zi", "1", "--c-stage1", k], capsys)
        res = data["results"]
        assert res["c"] > float(k) and 0.0 < res["f"] < 1.0
        assert res["power"] == pytest.approx(0.5, abs=1e-8)


def test_curve_below_one_ulp_of_c_stage1(capsys):
    # 1e8 + 1e-9 rounds to 1e8, which once gave every point f = 1
    code, out, err = run(["curve", "--method", "cpi", "--zo", "2",
                          "--zi", "1", "--c-stage1", "1e8",
                          "--nj-range", "1e-9:3e-9:1e-9"], capsys)
    assert code == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["nj_ratio", "power"] and len(rows) == 4
    assert [float(r[1]) for r in rows[1:]] == [0.0, 0.0, 0.0]


def test_cli_import_leaves_scipy_optimize_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repower.cli; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_solve_on_c_stage1_axis_beyond_c_cap(capsys):
    # c_stage1 = 2e9 is past C_CAP = 1e9, which once left no remaining
    # size to scan ("supremum 0"); IPPi rises towards
    # ippi_limit(2, 1, 2e9) = 0.841 as nj grows
    data = envelope(["solve", "--method", "ippi", "--target", "0.5",
                     "--zo", "2", "--zi", "1", "--c-stage1", "2e9"], capsys)
    res = data["results"]
    assert res["c"] > 2e9 and 0.0 < res["f"] < 1.0
    assert res["power"] == pytest.approx(0.5, abs=1e-8)


def test_package_and_cli_load_no_scipy_outside_simulate():
    # scipy is needed for `simulate` only, whose ndtri is imported when
    # the first batch is drawn
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    script = "\n".join([
        "import contextlib, io, sys",
        "import repower, repower.cli",
        "loaded = [sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]",
        "runs = [",
        "    ['power', '--zo', '2.3', '--c', '1.5', '--both-tails'],",
        "    ['interim', '--zo', '2.3', '--zi', '0.8', '--c', '2', '--f', '0.4'],",
        "    ['solve', '--method', 'ippi', '--target', '0.8', '--zo', '2.8',",
        "     '--zi', '1.2', '--c-stage1', '0.8'],",
        "    ['curve', '--method', 'cp', '--zo', '2', '--c-range', '0.5:3:0.5'],",
        "    ['ssrp', '--report', 'interim'],",
        "]",
        "for argv in runs:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert repower.cli.main(argv) == 0, argv",
        "    loaded.append(sorted(m for m in sys.modules",
        "                         if m.split('.')[0] == 'scipy'))",
        "print(loaded)",
    ])
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == str([[]] * 6) + "\n"


# the stdout of `repower ssrp --report R` on the bundled data
SSRP_PINNED = {
    ("records", "text"): """\
study                          no   ni   nr    zo     zi     c      f
Ackerman et al. (2010)         55  266  611 1.976  2.267 11.69 0.4326
Aviezer et al. (2012)          15   21    - 4.480  5.837     -      -
Balafoutas and Sutter (2012)   72  253    - 2.300  3.536     -      -
Derex et al. (2013)            51   63    - 4.089  4.902     -      -
Duncan et al. (2012)           15   36   92 2.836  1.062 7.417 0.3708
Gervais and Norenzayan (2012)  58  227  541 2.183 -0.821 9.782 0.4164
Gneezy et al. (2014)          449  573    - 3.843  3.365     -      -
Hauser et al. (2014)           20   38    - 3.343  3.658     -      -
Janssen et al. (2010)          13   30    - 3.006  4.120     -      -
Karpicke and Blunt (2011)      40   43    - 4.510  3.559     -      -
Kidd and Castano (2013)        82  271  680 2.506 -1.111  8.57 0.3959
Kovacs et al. (2010)           24   85    - 2.279  3.517     -      -
Lee and Schwarz (2010)         40  122  286 2.479 -0.762 7.649 0.4205
Morewedge et al. (2010)        51  126    - 2.772  3.433     -      -
Nishi et al. (2015)           200  382    - 3.139  3.543     -      -
Pyc and Rawson (2010)          36  132  306 2.276  1.698 9.182 0.4257
Ramirez and Beilock (2011)     20   26   79 4.458 -0.363 4.471 0.3026
Rand et al. (2012)            343 1002 2136 2.595  0.894 6.274 0.4684
Shah et al. (2012)             55  273  607 1.999 -1.449 11.62  0.447
Sparrow et al. (2011)          69  104  234 3.134  1.108   3.5 0.4372
Wilson et al. (2014)           30   56    - 3.288  3.620     -      -
""",
    ("interim", "text"): """\
study                         cpi_pct ippi_pct ppi_pct published_cpi published_ippi published_ppi
Ackerman et al. (2010)          100.0     95.0    90.3         100.0           95.0          90.3
Duncan et al. (2012)            100.0     74.6    43.4         100.0           74.6          43.4
Gervais and Norenzayan (2012)    97.5      1.9     0.3          97.5            1.9           0.3
Kidd and Castano (2013)          98.9      1.6     0.1          98.9            1.6           0.1
Lee and Schwarz (2010)           97.7      3.1     0.4          97.7            3.1           0.4
Pyc and Rawson (2010)           100.0     85.3    71.0         100.0           85.3          71.0
Ramirez and Beilock (2011)      100.0     61.4     4.2         100.0           61.4           4.2
Rand et al. (2012)               99.8     51.9    27.0          99.8           51.9          27.0
Shah et al. (2012)               87.0      0.1     0.0          87.0            0.1           0.0
Sparrow et al. (2011)            99.7     74.1    40.1          99.7           74.1          40.1
largest deviation from published values: 0.047 percentage points
""",
    ("design-powers", "text"): """\
study                         c_stage1     cp     pp    fbp    cbp
Ackerman et al. (2010)           5.058 0.9152 0.7116 0.5742 0.6775
Aviezer et al. (2012)            1.500 0.9844 0.9136 0.9557 0.9965
Balafoutas and Sutter (2012)     3.623 0.9071 0.7309 0.5998 0.7067
Derex et al. (2013)              1.250 0.9290 0.8362 0.8902 0.9672
Duncan et al. (2012)             2.750 0.9414 0.7907 0.7045 0.8509
Gervais and Norenzayan (2012)    4.073 0.9106 0.7248 0.5903 0.6965
Gneezy et al. (2014)             1.278 0.9030 0.8052 0.8398 0.9331
Hauser et al. (2014)             2.059 0.9492 0.8254 0.7901 0.9209
Janssen et al. (2010)            2.700 0.9594 0.8177 0.7501 0.9029
Karpicke and Blunt (2011)        1.081 0.9403 0.8598 0.9440 0.9891
Kidd and Castano (2013)          3.392 0.9335 0.7632 0.6505 0.7911
Kovacs et al. (2010)             3.905 0.9218 0.7389 0.6112 0.7342
Lee and Schwarz (2010)           3.216 0.9153 0.7484 0.6290 0.7505
Morewedge et al. (2010)          2.562 0.9143 0.7657 0.6682 0.7942
Nishi et al. (2015)              1.924 0.9042 0.7774 0.7176 0.8376
Pyc and Rawson (2010)            3.909 0.9214 0.7385 0.6105 0.7329
Ramirez and Beilock (2011)       1.353 0.9731 0.8957 0.9489 0.9939
Rand et al. (2012)               2.938 0.9156 0.7560 0.6445 0.7689
Shah et al. (2012)               5.192 0.9273 0.7207 0.5873 0.7085
Sparrow et al. (2011)            1.530 0.8283 0.7243 0.6603 0.7445
Wilson et al. (2014)             1.963 0.9326 0.8075 0.7663 0.8945
CP >= PP in all rows: True; CBP >= FBP in all rows: True; FBP - PP changes sign: True
""",
    ("futility", "text"): """\
study                          power stop replicated
Ackerman et al. (2010)        0.9504   no         no
Duncan et al. (2012)          0.7460   no        yes
Gervais and Norenzayan (2012) 0.0194  yes         no
Kidd and Castano (2013)       0.0155  yes         no
Lee and Schwarz (2010)        0.0312  yes         no
Pyc and Rawson (2010)         0.8529   no        yes
Ramirez and Beilock (2011)    0.6140   no         no
Rand et al. (2012)            0.5193   no         no
Shah et al. (2012)            0.0009  yes         no
Sparrow et al. (2011)         0.7410   no         no
rule IPPi < 0.3: stops 4 of 8 failed and 0 of 2 successful replications
""",
    ("records", "csv"): """\
study,no,ni,nr,zo,zi,c,f
Ackerman et al. (2010),55,266,611,1.976,2.267,11.69,0.4326
Aviezer et al. (2012),15,21,-,4.480,5.837,-,-
Balafoutas and Sutter (2012),72,253,-,2.300,3.536,-,-
Derex et al. (2013),51,63,-,4.089,4.902,-,-
Duncan et al. (2012),15,36,92,2.836,1.062,7.417,0.3708
Gervais and Norenzayan (2012),58,227,541,2.183,-0.821,9.782,0.4164
Gneezy et al. (2014),449,573,-,3.843,3.365,-,-
Hauser et al. (2014),20,38,-,3.343,3.658,-,-
Janssen et al. (2010),13,30,-,3.006,4.120,-,-
Karpicke and Blunt (2011),40,43,-,4.510,3.559,-,-
Kidd and Castano (2013),82,271,680,2.506,-1.111,8.57,0.3959
Kovacs et al. (2010),24,85,-,2.279,3.517,-,-
Lee and Schwarz (2010),40,122,286,2.479,-0.762,7.649,0.4205
Morewedge et al. (2010),51,126,-,2.772,3.433,-,-
Nishi et al. (2015),200,382,-,3.139,3.543,-,-
Pyc and Rawson (2010),36,132,306,2.276,1.698,9.182,0.4257
Ramirez and Beilock (2011),20,26,79,4.458,-0.363,4.471,0.3026
Rand et al. (2012),343,1002,2136,2.595,0.894,6.274,0.4684
Shah et al. (2012),55,273,607,1.999,-1.449,11.62,0.447
Sparrow et al. (2011),69,104,234,3.134,1.108,3.5,0.4372
Wilson et al. (2014),30,56,-,3.288,3.620,-,-
""",
}


def test_ssrp_reports_are_pinned(capsys):
    for (report, fmt), expected in SSRP_PINNED.items():
        code, out, err = run(["ssrp", "--report", report, "--format", fmt],
                             capsys)
        assert (code, out, err) == (0, expected, "")


WARNING_ORDER = "warning: CPi >= IPPi >= PPi is not guaranteed for these inputs"
SIM = ["simulate", "--method", "cp", "--c", "2", "--zo", "2"]
CURVE_CP = ["curve", "--method", "cp", "--zo", "2"]
CURVE_IPPI = ["curve", "--method", "ippi", "--zo", "2", "--zi", "1",
              "--c-stage1", "1"]


@pytest.mark.parametrize("argv, code, last_err, warning", [
    (["interim", "--zo", "2.4", "--zi", "1.2", "--c", "2", "--f", "0.3",
      "--alpha", "0.01"], 0, None, WARNING_ORDER),
    (CURVE_CP, 2, "repower curve: error: --c-range is required for cp",
     None),
    (CURVE_CP + ["--c-range", "1:2:1", "--nj-range", "1:2:1"], 2,
     "repower curve: error: --nj-range applies to interim methods only",
     None),
    (CURVE_IPPI, 2, "repower curve: error: --nj-range is required for ippi",
     None),
    (CURVE_IPPI + ["--nj-range", "1:2:1", "--c-range", "1:2:1"], 2,
     "repower curve: error: --c-range applies to fixed-design methods only",
     None),
    (["curve", "--method", "ippi", "--zo", "2", "--nj-range", "1:2:1"], 2,
     "repower curve: error: interim curves need --zi and --c-stage1; the "
     "grid is the remaining size nj / no", None),
    (["curve", "--method", "cp", "--c-range", "1:2:1"], 2,
     "repower curve: error: --zo is required for cp", None),
    (CURVE_CP + ["--c-range", "1:2"], 2,
     "repower curve: error: argument --c-range: expected start:stop:step",
     None),
    (CURVE_CP + ["--c-range", "a:2:1"], 2,
     "repower curve: error: argument --c-range: expected numeric "
     "start:stop:step", None),
    (CURVE_CP + ["--c-range", "1:inf:1"], 2,
     "repower curve: error: argument --c-range: range values must be "
     "finite", None),
    (SIM + ["--nsims", "0"], 2,
     "repower simulate: error: argument --nsims: must be a positive integer",
     None),
    (SIM + ["--nsims", "2000", "--seed", "-1"], 2,
     "repower simulate: error: argument --seed: must be a nonnegative "
     "integer", None),
    (SIM + ["--nsims", "10"], 2,
     "repower simulate: error: n_sims must be an integer of at least 1000",
     None),
    (["simulate", "--method", "cpi", "--c", "2", "--zo", "2", "--zi", "1",
      "--nsims", "2000"], 2,
     "repower simulate: error: CPi requires f in (0, 1)", None),
    # sizes too small to evaluate, ranges too long to build, and the type
    # argparse could not parse
    (["power", "--zo", "2", "--c", "5e-324"], 1,
     "error: c must be at least 2.2250738585072014e-308", None),
    (["curve", "--method", "fbp", "--zo", "2",
      "--c-range", "1e-320:3e-320:1e-320"], 1,
     "error: c must be at least 2.2250738585072014e-308", None),
    (CURVE_CP + ["--c-range", "1:1e300:1e-300"], 2,
     "repower curve: error: argument --c-range: more than 1000000 points",
     None),
    (CURVE_IPPI + ["--nj-range", "1:1000001:1"], 2,
     "repower curve: error: argument --nj-range: more than 1000000 points",
     None),
    (["power", "--zo", "2", "--c", "xyz"], 2,
     "repower power: error: argument --c: invalid float value: 'xyz'", None),
    (SIM + ["--nsims", "abc"], 2,
     "repower simulate: error: argument --nsims: invalid int value: 'abc'",
     None),
    (SIM + ["--seed", "x"], 2,
     "repower simulate: error: argument --seed: invalid int value: 'x'",
     None),
    # a size below the smallest normal double is refused before any draw
    (["simulate", "--method", "cp", "--zo", "2", "--c", "5e-324",
      "--nsims", "2000"], 2,
     "repower simulate: error: c must be at least 2.2250738585072014e-308",
     None),
    # a c_lower beyond the end of the scan: the grid is that one point
    (["solve", "--method", "cp", "--target", "0.8", "--zo", "2.3",
      "--c-lower", "2e9"], 0, None, "warning: every size down to the lower "
     "bound meets the target; returning the bound itself"),
    # a target a hair under an interior peak, and one a hair over an
    # interior dip, both inside a window narrower than the scan spacing
    (["solve", "--method", "cbp", "--target", "5.9294e-07", "--zo", "-0.5"],
     0, None, None),
    (["solve", "--method", "fbp", "--target", "0.9989853976", "--zo",
      "4.46518391558482"], 0, None, "warning: solution lies on a falling "
     "branch: slightly larger designs have lower power"),
    # a both-tail look inside the one-tail ordering region, where PPi
    # exceeds IPPi
    (["interim", "--zo", "7.81275838196607", "--zi", "-2.259550283086341",
      "--c", "151.69625813897292", "--f", "0.4754686226214025", "--alpha",
      "0.01", "--both-tails"], 0, None, WARNING_ORDER),
])
def test_cli_branches_are_pinned(argv, code, last_err, warning, capsys):
    got, out, err = run(argv, capsys)
    assert got == code
    assert (err.splitlines()[-1] if err else None) == last_err
    lines = [line for line in out.splitlines()
             if line.startswith("warning: ")]
    assert lines == ([warning] if warning else [])


def test_range_of_one_million_points_is_accepted():
    assert cli._range_arg("1:1000000:1") == (1.0, 1e6, 1.0)
