"""The scalar path needs only the standard library.

``import repower`` and the subcommands that answer on the float path
(power, interim, an inverse-path solve, the ssrp reports, curve) run
without importing numpy, and the method table's parts return Python
floats on floats.  The subcommands that build arrays (a scanning solve,
simulate) import it where they build them, and print what they did.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repower import DesignConfig, SolveRequest, _methods, cli, solve_c

SRC = str(Path(__file__).resolve().parents[1] / "src")
CONFIGS = (DesignConfig(), DesignConfig(alpha=0.01, shrinkage=0.2),
           DesignConfig(both_tails=True))


def _parts_inputs():
    """(zd, zi, s, x) on floats, s = 0 and sizes from 1e-9 to 1e9 on
    both axes; a fixed design ignores s."""
    sizes = (1e-9, 1e-3, 0.37, 1.0, 2.5, 1e3, 1e9)
    for zd, zi in ((2.1, 0.6), (-0.8, 1.9), (0.0, -1.2)):
        for x in sizes:
            for s in (0.0, *sizes):
                yield zd, zi, s, x


@pytest.mark.parametrize("tag", sorted(_methods.METHODS))
def test_scalar_parts_are_python_floats(tag):
    entry = _methods.METHODS[tag]
    for config in CONFIGS:
        for zd, zi, s, x in _parts_inputs():
            t, z = entry.parts(zd, zi, s, x, config)
            assert type(t) is float and type(z) is float, (zd, zi, s, x)


def test_math_and_numpy_sqrt_agree_on_the_parts_arguments(monkeypatch):
    # every argument the seven methods' parts take the root of, on the
    # inputs above and on 3000 drawn sizes
    seen = []
    sqrt = _methods._sqrt

    def record(v):
        seen.append(v)
        return sqrt(v)
    monkeypatch.setattr(_methods, "_sqrt", record)
    rng = np.random.default_rng(22)
    drawn = [(float(zd), float(zi), float(s), float(x)) for zd, zi, s, x
             in zip(rng.uniform(-5, 5, 3000), rng.uniform(-5, 5, 3000),
                    10.0 ** rng.uniform(-12, 12, 3000),
                    10.0 ** rng.uniform(-12, 12, 3000))]
    for entry in _methods.METHODS.values():
        for zd, zi, s, x in [*_parts_inputs(), *drawn]:
            entry.parts(zd, zi, s, x, CONFIGS[0])
    assert len(seen) > 40_000 and all(type(v) is float for v in seen)
    roots = np.sqrt(np.array(seen))
    assert [math.sqrt(v) for v in seen] == roots.tolist()


def _fresh(*lines, argv=()):
    """The stdout of ``lines`` run in a fresh interpreter under -W error,
    with ``argv`` as its arguments."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-W", "error", "-c",
                          "\n".join(lines), *argv],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _loads_numpy(*argv):
    """Whether numpy is in sys.modules after ``repower.cli.main(argv)``
    in a fresh interpreter under -W error (after the imports alone for
    no argv), with the exit status."""
    return _fresh(
        "import contextlib, io, sys",
        "import repower, repower.cli",
        "code = 0",
        "if sys.argv[1:]:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        code = repower.cli.main(sys.argv[1:])",
        "print(code, 'numpy' in sys.modules)", argv=argv)


# the one-tail solves the inverse rules answer, as (argv, request)
INVERSE_SOLVES = [
    (["--method", "cp", "--target", "0.9", "--zo", "2.807"],
     dict(method="CP", target_power=0.9, zo=2.807)),
    (["--method", "pp", "--target", "0.7", "--zo", "2.5"],
     dict(method="PP", target_power=0.7, zo=2.5)),
    (["--method", "fbp", "--target", "0.06387034644586316", "--zo",
      "0.0078125", "--alpha", "0.5"],
     dict(method="FBP", target_power=0.06387034644586316, zo=0.0078125,
          config=DesignConfig(alpha=0.5))),
    (["--method", "cbp", "--target", "1e-07", "--zo", "-0.5"],
     dict(method="CBP", target_power=1e-07, zo=-0.5)),
    (["--method", "ppi", "--target", "0.5", "--zi", "1.5", "--c-stage1",
      "0.8"],
     dict(method="PPi", target_power=0.5, zi=1.5, c_stage1=0.8)),
    (["--method", "cpi", "--target", "0.8", "--zo", "2.5", "--zi", "0.3",
      "--f", "0.4"],
     dict(method="CPi", target_power=0.8, zo=2.5, zi=0.3, f=0.4)),
]


# a text and a CSV curve, as (argv, stdout)
CURVES = [
    (["curve", "--method", "cp", "--zo", "2", "--c-range", "0.5:3:0.5"],
     "c,power\n0.5,0.2926187535\n1,0.5159677934\n1.5,0.6877652385\n"
     "2,0.8074295788\n2.5,0.8853789898\n3,0.9337270336\n"),
    (["curve", "--method", "ippi", "--zo", "2", "--zi", "1", "--c-stage1",
      "0.8", "--nj-range", "0.5:3:0.5", "--format", "csv"],
     "nj_ratio,power\n0.5,0.2511364869\n1,0.4594073028\n1.5,0.5798149142\n"
     "2,0.6570133906\n2.5,0.7102303389\n3,0.7488812589\n"),
]


@pytest.mark.parametrize("argv", [
    [],
    ["power", "--zo", "2.3", "--c", "1.5"],
    ["power", "--po", "0.003", "--dir", "-", "--c", "2", "--both-tails",
     "--format", "json"],
    ["interim", "--zo", "2.3", "--zi", "0.8", "--c", "2", "--f", "0.4"],
    ["interim", "--zo", "2.3", "--zi", "0.8", "--c", "2", "--f", "0.4",
     "--format", "json"],
    ["interim", "--zo", "2.3", "--zi", "0.8", "--c", "2", "--f", "0.4",
     "--both-tails"],
    # a look at a non-significant interim
    ["interim", "--zo", "3.2", "--zi", "-1.3", "--c", "2", "--f", "0.4"],
    # both-tail CPi at a zero original: its supremum is a rule too
    *(["interim", "--both-tails", "--zo", "0", "--zi", "1", "--c", "2",
       "--f", "0.4", "--format", f] for f in ("text", "json")),
    *(["solve", *argv] for argv, _ in INVERSE_SOLVES),
    *(["ssrp", "--report", r, "--format", f] for r, f in (
        ("interim", "text"), ("futility", "csv"), ("records", "text"),
        ("design-powers", "json"))),
    # a curve evaluates its grid point by point on the float path
    *(argv for argv, _ in CURVES),
], ids=lambda argv: " ".join(argv[:3]) or "import")
def test_scalar_commands_leave_numpy_unloaded(argv):
    assert _loads_numpy(*argv) == "0 False\n"


@pytest.mark.parametrize("argv, stdout", CURVES,
                         ids=[argv[2] for argv, _ in CURVES])
def test_numpy_free_curves_print_what_they_did(argv, stdout, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("call", [
    "repower.z_to_p(2.0)",
    # every normal primitive and the dominance thresholds
    "[f(0.3) for f in (repower.std_normal_cdf, repower.std_normal_pdf, "
    "repower.std_normal_quantile, repower.p_to_z, repower.z_to_p, "
    "repower.fisher_z, repower.fisher_z_inv)], repower.p_to_z(0.3, -1), "
    "[repower.weight_dominance_threshold(m, 2.0) for m in ('CPi', 'IPPi')]",
    # both-tail CPi at a zero original, with and without an interior peak
    *("repower.cpi(repower.FixedDesign(0.0, {}), repower.InterimState({}, "
      "0.4), repower.DesignConfig(both_tails=True))".format(c, zi)
      for c, zi in ((2.0, 1.0), (1e7, 1.5), (3.0, 0.0))),
])
def test_scalar_calls_leave_numpy_unloaded(call):
    assert _fresh("import sys, repower", call,
                  "print('numpy' in sys.modules)") == "False\n"


@pytest.mark.parametrize("request_kwargs", [r for _, r in INVERSE_SOLVES],
                         ids=lambda r: r["method"])
def test_the_numpy_free_solves_take_the_inverse_path(request_kwargs):
    assert solve_c(SolveRequest(**request_kwargs)).path == "inverse"


@pytest.mark.parametrize("argv, stdout", [
    # IPPi has no inverse rule: the scan answers
    (["solve", "--method", "ippi", "--target", "0.8", "--zo", "2.8", "--zi",
      "1.2", "--c-stage1", "0.8"],
     "c=2.3801526\npower=0.800000\nf=0.336113\n"),
    (["simulate", "--method", "pp", "--zo", "2.2", "--c", "1.3", "--nsims",
      "20000", "--seed", "3"],
     "estimate=0.640050\nstd_err=0.003394\nclosed_form=0.641182\n"
     "z_score=-0.333\n"),
])
def test_array_commands_print_what_they_did(argv, stdout, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == stdout
