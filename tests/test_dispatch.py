"""Answers that do not follow numpy's CPU dispatch.

numpy picks its kernels for the CPU it runs on, and its AVX-512 ``exp``,
``log``, ``log10`` and ``power`` differ from the C library's in the last
bit.  The solver's scan therefore takes its grid's transcendental steps
from ``math``, and ``simulate_power`` judges its draws with IEEE
arithmetic and ``ndtri`` alone.  A child process with numpy's AVX-512
targets turned off must then print the digest that this process
computes: the answers of seeded scanning solves and the success counts
of the pinned simulations.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

DIGEST = """
import hashlib, random
from repower import (DesignConfig, InfeasibleTarget, SolveRequest, solve_c,
                     simulate_power)
from test_mc import PINNED

def digest():
    rng, out = random.Random(20), []
    for _ in range(150):
        cfg = DesignConfig(alpha=rng.choice((0.05, 0.01, 0.1)),
                           shrinkage=rng.choice((0.0, 0.25)),
                           both_tails=rng.random() < 0.5)
        zo, zi = rng.uniform(-1.0, 4.0), rng.uniform(-1.0, 3.0)
        target, kind = rng.uniform(0.05, 0.95), rng.randrange(4)
        if kind == 0:
            req = SolveRequest("IPPi", target, zo=zo, zi=zi,
                               c_stage1=rng.uniform(0.2, 3.0), config=cfg)
        elif kind == 1:
            req = SolveRequest("IPPi", target, zo=zo, zi=zi,
                               f=rng.uniform(0.1, 0.9), config=cfg)
        elif kind == 2:
            req = SolveRequest("PPi", target, zi=zi,
                               c_stage1=rng.uniform(0.2, 3.0), config=cfg)
        else:
            req = SolveRequest(rng.choice(("CP", "PP", "FBP", "CBP")),
                               target, zo=zo, c_lower=rng.uniform(0.1, 5.0),
                               config=cfg)
        try:
            res = solve_c(req)
            out.append((res.c, res.power, res.path, res.evaluations))
        except InfeasibleTarget as exc:
            out.append(str(exc))
    out.append(solve_c(SolveRequest(
        "IPPi", 0.24687582369131147, zo=-0.38263270314898756,
        zi=2.1101096346003487, f=0.16241886451375764,
        config=DesignConfig(alpha=0.14593080811942624))).c)
    out += [simulate_power(spec).n_success for spec, _ in PINNED]
    scans = sum(isinstance(r, tuple) and r[2] == "scan" for r in out)
    return scans, hashlib.sha256(repr(out).encode()).hexdigest()
"""


def _avx512_targets():
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:         # numpy 1
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__
            if name.startswith("AVX512") or name == "X86_V4"]


def test_scans_and_counts_are_the_same_without_avx512():
    targets = _avx512_targets()
    if not targets:
        pytest.skip("this numpy build dispatches no AVX-512 kernel")
    here = Path(__file__).parent
    scope = {}
    exec(DIGEST, scope)
    scans, expected = scope["digest"]()
    assert scans >= 50
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join(
                   [str(here.parent / "src"), str(here)]))
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         DIGEST + "\nprint(*digest())"],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == [str(scans), expected]
