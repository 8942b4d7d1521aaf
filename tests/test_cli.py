"""Command-line interface: envelopes, exit codes, formats."""
import csv
import io
import json
import os
import subprocess
import sys
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
