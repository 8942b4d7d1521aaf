"""What importing the package and running a command loads.

``import repower`` loads no submodule: each public name imports its
module on first use and is then bound in the package as that module's
own object.  Each ``repower.cli`` handler imports the modules it runs,
so ``repower power`` loads neither ``interim``, ``solver``, ``ssrp``
nor ``mc``.  Each check runs in a fresh interpreter under -W error.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repower

SRC = str(Path(__file__).resolve().parents[1] / "src")
BASE = ("_methods", "design", "normal")


def _run(*args):
    """(stdout, stderr) of a fresh interpreter under -W error that
    imports the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-W", "error", *args], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout, out.stderr


def _fresh(*lines):
    return _run("-c", "\n".join(lines))[0]


def test_import_repower_loads_no_submodule():
    assert _fresh(
        "import sys, repower",
        "print(sorted(m for m in sys.modules if m.startswith('repower.')))"
    ) == "[]\n"


# each command's argv and the package modules it loads besides cli
COMMANDS = [
    (["power", "--zo", "2.3", "--c", "1.5", "--format", "json"], BASE),
    (["interim", "--zo", "2.3", "--zi", "0.8", "--c", "2", "--f", "0.4"],
     (*BASE, "interim")),
    (["solve", "--method", "cp", "--target", "0.9", "--zo", "2.807"],
     (*BASE, "solver")),
    (["ssrp", "--report", "futility"], (*BASE, "interim", "ssrp")),
    (["curve", "--method", "cp", "--zo", "2", "--c-range", "0.5:3:0.5",
      "--format", "csv"], BASE),
    (["simulate", "--method", "pp", "--zo", "2.2", "--c", "1.3", "--nsims",
      "2000"], (*BASE, "mc")),
]


@pytest.mark.parametrize("argv, modules", COMMANDS,
                         ids=[argv[0] for argv, _ in COMMANDS])
def test_each_command_loads_exactly_its_modules(argv, modules):
    # -X importtime lists every module the first time it is imported;
    # under -m the cli runs as __main__, so repower.cli is not among them
    _, err = _run("-X", "importtime", "-m", "repower.cli", *argv)
    loaded = {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
              if line.startswith("import time:")}
    assert sorted(m for m in loaded if m.startswith("repower.")) == [
        f"repower.{m}" for m in sorted(modules)]


def test_star_import_binds_every_name_as_its_modules_object():
    # each name is the object of the module _HOME names, and is bound in
    # the package namespace once looked up
    assert _fresh(
        "import importlib, repower",
        "from repower import *",
        "g = globals()",
        "home = {n: importlib.import_module('repower.' + repower._HOME[n])",
        "        for n in repower.__all__}",
        "print([n for n in repower.__all__ if not (",
        "    g[n] is getattr(home[n], n) is vars(repower)[n])])",
    ) == "[]\n"


def test_star_import_leaves_numpy_unloaded():
    assert _fresh("import sys", "from repower import *",
                  "print('numpy' in sys.modules)") == "False\n"


def test_dir_lists_every_public_name_before_any_is_used():
    assert _fresh(
        "import sys, repower",
        "names = dir(repower)",
        "print(set(repower.__all__) <= set(names), names == sorted(names),",
        "      [m for m in sys.modules if m.startswith('repower.')])",
    ) == "True True []\n"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'repower' has no attribute 'nope'$"):
        repower.nope
    assert not hasattr(repower, "nope")


def test_submodules_import_from_the_package():
    assert _fresh(
        "import sys",
        "from repower import cli, _methods",
        "print(cli is sys.modules['repower.cli'],",
        "      _methods is sys.modules['repower._methods'])",
    ) == "True True\n"


def test_futility_methods_are_one_object():
    # the rule and the CLI's choices both read the one tuple in _methods
    from repower import _methods, cli
    from repower.interim import FutilityRule
    for method in (*_methods.METHODS, "ippi", "", None):
        if method in _methods.FUTILITY_METHODS:
            assert FutilityRule(method).method == method
        else:
            with pytest.raises(ValueError, match="use IPPi or PPi"):
                FutilityRule(method)
    assert cli._FLAGS["--futility-method"]["choices"] == tuple(
        m.lower() for m in _methods.FUTILITY_METHODS)
