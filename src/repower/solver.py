"""Invert power curves for the relative sample size, and futility rules.

``solve_c`` finds the smallest relative sample size ``c`` at which a
chosen method reaches a target power.  It searches over the size that
grows, u: the remaining size nj / no at a fixed ``c_stage1`` (so that
c = c_stage1 + u), else c itself, and its scan ends where c reaches
C_CAP.  Because several of the curves are not monotone (FBP and CBP can
dip before rising, interim curves can start high and fall), the solver
scans a logarithmic grid for the first upward or downward crossing and
refines it with an ITP root on log u (interpolate, truncate, project;
Oliveira and Takahashi 2020), so it always returns the smallest
crossing.  ITP converges superlinearly on these smooth curves and takes
at most one step more than bisection to the same tolerance.  If the
target exceeds the least upper bound of the curve, ``InfeasibleTarget``
is raised carrying that bound.
"""
import math
from dataclasses import dataclass

import numpy as np

from . import _methods, design
from .design import DEFAULT_CONFIG
from .interim import interim_power

C_CAP = 1e9
_TOL = 1e-8
_C_MIN = 1e-9
# the scan grid of every request without c_stage1 or a c_lower above 1e-9
_GRID = np.geomspace(_C_MIN, C_CAP, 1200)
_GRID.setflags(write=False)


class InfeasibleTarget(ValueError):
    """Target power above the least upper bound of the curve."""

    def __init__(self, target, supremum):
        self.target_power = float(target)
        self.supremum = float(supremum)
        super().__init__(
            f"target power {self.target_power:.6g} exceeds the attainable "
            f"supremum {self.supremum:.6g}")


@dataclass(frozen=True)
class SolveRequest:
    """What to solve for.

    Exactly one sizing axis applies: fixed-design methods vary ``c``
    directly; interim methods either hold the interim fraction ``f``
    fixed while ``c`` varies, or hold ``c_stage1 = ni / no`` fixed so
    that growing ``c`` means adding remaining observations.
    """

    method: str
    target_power: float
    zo: float = None
    zi: float = None
    f: float = None
    c_stage1: float = None
    c_lower: float = 0.0
    config: design.DesignConfig = DEFAULT_CONFIG

    def __post_init__(self):
        if not 0.0 < self.target_power < 1.0:
            raise ValueError("target power must lie strictly in (0, 1)")
        if self.c_lower < 0.0 or not np.isfinite(self.c_lower):
            raise ValueError("c_lower must be finite and nonnegative")
        entry = _methods._lookup(self.method)
        entry.check(self.zo, self.zi, (self.f, self.c_stage1))
        if not entry.interim:
            return
        if (self.f is None) == (self.c_stage1 is None):
            raise ValueError(
                "interim solving needs exactly one of f or c_stage1")
        if self.f is not None and not 0.0 < self.f < 1.0:
            raise ValueError("f must lie strictly in (0, 1)")
        # without the original, the power at a fixed f is the same for
        # every c
        if self.f is not None and "zo" not in entry.needs:
            raise ValueError(
                f"{self.method} at a fixed interim fraction does not vary "
                "with c; fix c_stage1 instead")
        if self.c_stage1 is not None and not 0.0 < self.c_stage1 < np.inf:
            raise ValueError("c_stage1 must be positive and finite")


@dataclass(frozen=True)
class SolveResult:
    """Smallest c meeting the target, with the achieved power.

    ``f`` is the interim fraction at the solution (None for fixed
    designs); ``warning`` flags solutions on a falling branch of the
    curve, where adding observations lowers power again.
    """

    c: float
    power: float
    f: float = None
    warning: str = None


def _curve(request):
    """Power as a function of the growing size u, plus the fixed size s.

    u is the remaining size x = nj / no at fixed s = c_stage1 (s = 0 for
    fixed designs), or the total size c at a fixed interim fraction f
    (s = 0 again); either way c = s + u.  Evaluates the method table
    directly: ``SolveRequest`` has checked the inputs, and the solver
    passes only positive, finite u.
    """
    r = request
    entry = _methods._lookup(r.method)
    zd = design.shrunken_zo(r.zo, r.config) if "zo" in entry.needs else 0.0
    s = r.c_stage1 or 0.0
    return design._along(entry, zd, r.zi, s, r.f, r.config), s


def _infeasible(request):
    """InfeasibleTarget carrying the supremum along the request's axis.

    When c_lower lies above the axis's lower end, or the curve nears a
    supremum above the target only beyond C_CAP, the bound reported is
    the maximum over the range ``solve_c`` scanned.
    """
    r = request
    fn, s = _curve(r)
    sup = design._supremum(r.method, r.zo, r.zi, s, r.config, r.f)
    if r.c_lower > s or sup >= r.target_power:
        grid = _scan_grid(r, s)
        sup = design._numeric_supremum(fn, (), grid[0], grid[-1])
    return InfeasibleTarget(r.target_power, sup)


def _root(fn, a, b, fa, fb, target, rising):
    """Crossing of the target inside (a, b), refined by ITP on log u.

    On entry fa = fn(a) < target <= fb = fn(b) on a rising curve, and
    fa >= target > fb on a falling one.  Stops once
    b - a <= 1e-14 * max(1, b), or after 200 steps, and returns the
    bracket end that meets the target with its power, so the achieved
    power never falls below the target.  Positions are offsets x from
    log a, which keeps them exact to a few ulp of the bracket width.
    """
    w0 = math.log1p((b - a) / a)
    # half the log width at which the c criterion holds for any a < b
    # inside the entry bracket
    eps = 0.5e-14 * max(1.0, a) / b
    # ITP's usual settings: kappa1 = 0.2 / w0, kappa2 = 2, n0 = 1
    n_max = max(math.ceil(math.log2(w0 / (2.0 * eps))), 0) + 1
    k1 = 0.2 / w0
    for j in range(200):
        if (b - a) <= 1e-14 * max(1.0, b):
            break
        w = math.log1p((b - a) / a)
        half = 0.5 * w
        ya, yb = fa - target, fb - target
        xf = w * ya / (ya - yb)             # regula falsi
        d = half - xf
        # the truncation is at least half the stopping width, and at
        # least the width over which the secant moves by one ulp of the
        # target: after a point within rounding of the target the next
        # step either closes the bracket or lands past the plateau of
        # values equal to the target up to rounding, which it bisects
        delta = max(k1 * w * w, eps, math.ulp(target) * w / abs(ya - yb))
        xt = xf + math.copysign(delta, d) if delta <= abs(d) else half
        r = max(eps * 2.0 ** (n_max - j) - half, 0.0)
        x = xt if abs(xt - half) <= r else half - math.copysign(r, d)
        c = a * math.exp(x)
        if not a < c < b:
            c = a + 0.5 * (b - a)
        fc = float(fn(c))
        if (fc >= target) == rising:
            b, fb = c, fc
        else:
            a, fa = c, fc
    return (b, fb) if rising else (a, fa)


def solve_c(request):
    """Smallest relative sample size reaching the target power.

    Returns
    -------
    SolveResult

    Raises
    ------
    InfeasibleTarget
        If no c up to 1e9 reaches the target; carries the least upper
        bound of the curve as ``supremum``.
    """
    fn, s = _curve(request)
    target = request.target_power
    grid = _scan_grid(request, s)
    vals = np.asarray(fn(grid), dtype=float)
    warning = None
    # a curve that meets the target at the lower bound has its smallest
    # exact crossing, if any, where it first drops below
    rising = not vals[0] >= target
    cross = np.nonzero((vals >= target) == rising)[0]
    if cross.size == 0 and rising:
        raise _infeasible(request)
    if cross.size == 0:
        u, power = float(grid[0]), float(vals[0])
        warning = ("every size down to the lower bound meets the "
                   "target; returning the bound itself")
    else:
        i = int(cross[0])
        u, power = _root(fn, float(grid[i - 1]), float(grid[i]),
                         float(vals[i - 1]), float(vals[i]), target, rising)
    if power < target - _TOL:
        raise _infeasible(request)
    c = s + u
    ahead = float(fn(min(c * 1.001 + 1e-12 - s, grid[-1])))
    if warning is None and ahead < power - 1e-12:
        warning = ("solution lies on a falling branch: slightly larger "
                   "designs have lower power")
    f = request.f if request.c_stage1 is None else s / c
    return SolveResult(c=c, power=power, f=f, warning=warning)


def _scan_grid(request, s):
    """Log grid over the growing size u, denser than any known dip width.

    It runs from u = c_lower - s, but at least 1e-9, to where c = s + u
    reaches C_CAP; a start beyond that end is the whole grid.
    """
    start = max(request.c_lower - s, _C_MIN)
    stop = max(C_CAP - s, 1.0)
    if start >= stop:
        return np.array([start])
    if start == _C_MIN and s == 0.0:
        return _GRID
    return np.geomspace(start, stop, 1200)


@dataclass(frozen=True)
class FutilityRule:
    """Stop the replication at interim when power drops below a boundary."""

    method: str = "IPPi"
    boundary: float = 0.30

    def __post_init__(self):
        if self.method not in ("IPPi", "PPi"):
            raise ValueError("futility rules use IPPi or PPi")
        if not 0.0 < self.boundary < 1.0:
            raise ValueError("boundary must lie strictly in (0, 1)")


@dataclass(frozen=True)
class FutilityDecision:
    """Outcome of applying a futility rule at one interim look."""

    method: str
    power: float
    boundary: float
    stop: bool


def futility_decision(fixed, state, rule=FutilityRule(),
                      config=DEFAULT_CONFIG):
    """Apply a futility rule: stop when interim power < boundary.

    The comparison is strict, so a power exactly on the boundary
    continues.
    """
    power = interim_power(rule.method, fixed.zo, state.zi, fixed.c,
                          state.f, config)
    return FutilityDecision(method=rule.method, power=float(power),
                            boundary=rule.boundary,
                            stop=bool(power < rule.boundary))
