"""Invert power curves for the relative sample size, and futility rules.

``solve_c`` finds the smallest relative sample size ``c`` at which a
chosen method reaches a target power.  It searches over the size that
grows, u: the remaining size nj / no at a fixed ``c_stage1`` (so that
c = c_stage1 + u), else c itself.  When one tail counts and the curve
rises from the bottom of its axis, the method's inverse rule (see
``_methods``) estimates the crossing, and the estimate with a partner
2^-30 u away brackets it.  When both tails count, a fixed design's
power rises from the bottom of its axis wherever the one-tail rule
answers, and the one-tail rules bound and estimate its crossing
(``_two_tail_cell``).  Otherwise (interim curves with both tails, IPPi,
curves that start above the target or dip before they rise) a
logarithmic grid is scanned up to where c reaches C_CAP, or ten times
c_stage1 if that is larger, for the first upward or downward crossing;
where no scanned size passes, it zooms in where the curve comes closest
(``design._numeric_supremum``).  ``_refine`` then narrows any bracket
by Illinois steps.  When one tail counts, the search runs on the Phi
argument t + z against Phi^{-1} of the target (see ``design._along``),
and Phi is applied to the result only.  If the target exceeds the least
upper bound of the curve, ``InfeasibleTarget`` is raised carrying that
bound.
"""
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _methods, design
from .design import DEFAULT_CONFIG
from .interim import interim_power
from .normal import std_normal_cdf, std_normal_quantile

C_CAP = 1e9
_C_MIN = 1e-9
# the scan grid of every request without c_stage1 or a c_lower above 1e-9
_GRID = np.geomspace(_C_MIN, C_CAP, 1200)
_GRID.setflags(write=False)
FUTILITY_METHODS = ("IPPi", "PPi")


class InfeasibleTarget(ValueError):
    """Target power above the least upper bound of the curve.

    ``supremum`` is that bound, or the maximum over the sizes
    ``solve_c`` scans (c up to C_CAP, or to ten times c_stage1 if that
    is larger) where c_lower cuts the axis or the curve nears its bound
    only beyond them.
    """

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
        _methods.unit("target_power", self.target_power)
        _methods._within("c_lower", self.c_lower, 0.0, np.inf, True,
                         "be finite and nonnegative")
        entry = _methods._lookup(self.method)
        entry.check(self.zo, self.zi, (self.f, self.c_stage1))
        if not entry.interim:
            return
        if (self.f is None) == (self.c_stage1 is None):
            raise ValueError(
                "interim solving needs exactly one of f or c_stage1")
        if self.f is not None:
            _methods.unit("f", self.f)
        # without the original, power at a fixed f is the same for every c
        if self.f is not None and "zo" not in entry.needs:
            raise ValueError(
                f"{self.method} at a fixed interim fraction does not vary "
                "with c; fix c_stage1 instead")
        if self.c_stage1 is not None:
            _methods.positive("c_stage1", self.c_stage1)


@dataclass(frozen=True)
class SolveResult:
    """Smallest c meeting the target, with the achieved power.

    ``f`` is the interim fraction at the solution (None for fixed
    designs); ``warning`` flags solutions on a falling branch of the
    curve, where adding observations lowers power again.  ``path`` says
    how the answer was found, "inverse", "scan" or "lower bound", and
    ``evaluations`` at how many sizes the curve was evaluated; neither
    takes part in comparisons or the repr.
    """

    c: float
    power: float
    f: float = None
    warning: str = None
    path: str = field(default=None, compare=False, repr=False)
    evaluations: int = field(default=None, compare=False, repr=False)


def _refine(fn, level, a, b, fa, fb):
    """(u, fn(u)) at the end of the bracket a <= b that reaches ``level``,
    once b - a <= 1e-14 * b; on entry fa = fn(a) and fb = fn(b),
    and exactly one of them reaches it unless a = b.

    Illinois steps: a secant whose kept end has its residual halved when
    that end is kept twice (Dowell and Jarratt 1971).  Each step is held
    inside the bracket by half the stop width, and by the width over
    which the secant moves one ulp of the level, so a step that lands
    beside the crossing lands across it.  Where the residuals are equal,
    or three steps have not halved the bracket, it bisects.
    """
    rising = fb >= level
    ya, yb, ulp = fa - level, fb - level, math.ulp(level)
    kept, widths = 0, (math.inf,) * 3   # 1: the last step kept a; -1: b
    while (w := b - a) > (tol := 1e-14 * b):
        x = a + 0.5 * w
        if ya != yb and w <= 0.5 * widths[0]:
            delta = max(0.5 * tol, ulp * w / abs(ya - yb))
            if 2.0 * delta < w:
                x = min(max(a + delta, a + w * ya / (ya - yb)), b - delta)
        widths = (*widths[1:], w)
        fx = float(fn(x))
        if (fx >= level) == rising:
            b, fb, yb = x, fx, fx - level
            ya, kept = (0.5 * ya if kept == 1 else ya), 1
        else:
            a, fa, ya = x, fx, fx - level
            yb, kept = (0.5 * yb if kept == -1 else yb), -1
    return (b, fb) if rising else (a, fa)


def _cell(fn, level, u, lo, hi, gap=2.0 ** -30):
    """A cell (a, b, f(a), f(b)) across which fn crosses ``level``, from
    an estimate u of the crossing in [lo, hi]: a partner 2^-30 u away on
    the side of the crossing, then partners 64 times as far, held in
    [lo, hi], until one lies across; None if lo or hi does not."""
    fu = float(fn(u))
    below = fu < level
    while True:
        v = min(u * (1.0 + gap), hi) if below else max(u * (1.0 - gap), lo)
        fv = float(fn(v))
        if (fv < level) != below:
            return (u, v, fu, fv) if below else (v, u, fv, fu)
        if v == (hi if below else lo):
            return None
        u, fu, gap = v, fv, 64.0 * gap


def _two_tail_cell(fn, entry, zd, level, config, start):
    """The cell across which a fixed design's both-tail power Phi(t + z)
    + Phi(z - t) at zd >= 0 first reaches ``level``, from the one-tail
    inverse rule; None where the rule does not answer at level / 2, or
    where ``_cell`` finds no crossing between the ends below.

    The data part t is at least 0 and the quantile part z <= 0 does not
    fall as the size x grows.  Where the rule answers, the one-tail
    argument t + z rises over the whole axis, and as phi(z - t) <=
    phi(t + z), so does the power: it crosses ``level`` once.  It lies
    below 2 Phi(t + z), so the rule's answer at Phi^{-1}(level / 2) is a
    lower end, and above Phi(t + z) and 2 Phi(z), so the answer at
    Phi^{-1}(level), or at zd = 0 (where the rule inverts z alone, t
    being proportional to zd) at Phi^{-1}(level / 2), is an upper end b.
    Each end keeps a margin of 2^-30 of itself for the rounding of the
    rule.  The crossing is the fixed point of x -> the answer at
    Phi^{-1}(level - Phi(z - t)), which contracts where the second tail
    fades; up to three Aitken rounds of it from b estimate the crossing
    for ``_cell``, whose first partner lies as far off as the last round
    moved the estimate.
    """
    def at(q, zd=zd):
        return entry.inverse(zd, None, 0.0, None, q, config)

    def step(x):
        t, z = entry.parts(zd, None, 0.0, x, config)
        p = level - std_normal_cdf(z - t)
        return at(std_normal_quantile(p)) if p > 0.0 else None
    q = std_normal_quantile(0.5 * level)
    half = at(q)
    b = min((x for x in (at(std_normal_quantile(level)), at(q, 0.0))
             if x is not None), default=None)
    if half is None or b is None or b < start:
        return None
    lo = max(start, half * (1.0 - 2.0 ** -30))
    u, gap = b, 2.0 ** -30
    for _ in range(3):
        u1 = step(u)
        u2 = u1 and step(u1)
        if u2 is None:
            break
        d1, d2 = u1 - u, u2 - u1
        un = u2 - d2 * d2 / (d2 - d1) if abs(d2) < abs(d1) else u2
        un = min(max(un, lo), b)
        if abs(un - u2) <= 2.0 ** -32 * un and abs(d2) <= abs(d1):
            u, gap = un, 2.0 ** -30
            break
        u, gap = un, max(2.0 ** -30, abs(un - u) / un)
    return _cell(fn, level, u, lo, b * (1.0 + 2.0 ** -30), gap)


def solve_c(request):
    """Smallest relative sample size reaching the target power.

    Returns
    -------
    SolveResult

    Raises
    ------
    InfeasibleTarget
        If no c up to 1e9, or up to ten times c_stage1 if that is
        larger, reaches the target; carries the least upper bound of
        the curve as ``supremum``.
    ValueError
        If c_stage1 is so large that c_stage1 + nj / no rounds to
        c_stage1 at the answer.
    """
    r = request
    # c = s + u, s = c_stage1 or 0 (see the module docstring); inputs
    # are checked by SolveRequest, and every u passed is finite and > 0
    entry = _methods._lookup(r.method)
    zd = design.shrunken_zo(r.zo, r.config) if "zo" in entry.needs else 0.0
    s = float(r.c_stage1 or 0.0)
    curve, finish = design._along(entry, zd, r.zi, s, r.f, r.config)
    evaluations = 0

    def fn(u):
        nonlocal evaluations
        evaluations += getattr(u, "size", 1)
        return curve(u)
    target = r.target_power
    # the least curve value whose power meets the target: Phi^{-1} of
    # it when the curve is the Phi argument, raised past the rounding of
    # both maps
    level = target if r.config.both_tails else std_normal_quantile(target)
    while finish(level) < target:
        level = math.nextafter(level, math.inf)
    start, stop = _span(r, s)
    cell, path = None, "inverse"
    if entry.inverse is not None and not r.config.both_tails:
        # as floats, whose overflow in the rules is an inf, not a warning
        u = entry.inverse(float(zd), r.zi and float(r.zi), s, r.f, level,
                          r.config)
        # the rules answer on a curve below level all the way up to u,
        # so the scan start, if well below u, is too
        if (u is not None and start <= u <= stop
                and (u >= 2.0 * start or fn(start) < level)):
            cell = _cell(fn, level, u, u * (1.0 - 2.0 ** -30),
                         u * (1.0 + 2.0 ** -30))
    elif entry.inverse is not None and not entry.interim:
        # the power is even in zd
        cell = _two_tail_cell(fn, entry, abs(zd), level, r.config, start)
    if cell is None or not start <= cell[0] <= cell[1] <= stop:
        # the least level whose power still meets the target, which a
        # curve flat at the target's power needs: walked down by at most
        # 64 ulps, as Phi is flat over millions of them near 1.  The
        # inverse paths keep the level a few ulps high: a curve with a
        # slope crosses it as many ulps of its own later, and the ulp
        # walk below meets the target
        for _ in range(64):
            lower = math.nextafter(level, -math.inf)
            if finish(lower) < target:
                break
            level = lower
        *cell, path = _scan(fn, finish, r, entry, zd, s, level, start, stop)
    rising = cell[3] >= level
    u, value = _refine(fn, level, *cell)
    # Phi is not monotone at the ulp scale, so a value at or above level
    # can still fall short: walk on by ulps to where the power meets the
    # target
    power = finish(value)
    for _ in range(64):
        if power >= target:
            break
        u = math.nextafter(u, math.inf if rising else -math.inf)
        power = finish(float(fn(u)))
    c = s + u
    if c == s != 0.0:
        raise ValueError(
            f"c_stage1 = {s:.6g} is too large: the target is reached at "
            f"nj / no = {u:.6g}, which rounds away in c_stage1 + nj / no")
    warning = None
    if path == "lower bound":
        warning = ("every size down to the lower bound meets the "
                   "target; returning the bound itself")
    # a downward crossing falls; a probe alone can step past a dip, up
    # to the end of the scan
    elif not rising or finish(float(fn(
            min(c * 1.001 + 1e-12 - s, max(start, stop))))) < power - 1e-12:
        warning = ("solution lies on a falling branch: slightly larger "
                   "designs have lower power")
    f = r.f if r.c_stage1 is None else s / c
    return SolveResult(c=c, power=power, f=f, warning=warning, path=path,
                       evaluations=evaluations)


def _scan(fn, finish, r, entry, zd, s, level, start, stop):
    """The first cell (a, b, f(a), f(b)) of the scan grid from start to
    stop, zoomed, across which the curve crosses ``level``, and the path:
    "scan", or "lower bound" with the cell (start, start, f(start),
    f(start)) where the curve never drops below level."""
    target = r.target_power
    grid = _GRID if (start, stop) == (_C_MIN, C_CAP) else (
        np.geomspace(start, stop, 1200) if start < stop
        else np.array([start]))
    vals = np.asarray(fn(grid), dtype=float)
    # a curve that meets the target at the lower bound has its smallest
    # exact crossing, if any, where it first drops below
    rising = not vals[0] >= level
    if rising and r.c_lower <= s and not vals[vals.argmax()] >= level:
        sup = design._supremum(entry, zd, r.zi, s, r.config, r.f)
        if sup < target:    # then no zoom can find a crossing
            raise InfeasibleTarget(target, sup)
    if rising:
        best, cell = design._numeric_supremum(fn, grid, vals, level)
    else:   # where f drops below level, -f passes -level
        best, cell = design._numeric_supremum(
            lambda u: -fn(u), grid, -vals, math.nextafter(-level, math.inf))
        cell = cell and (*cell[:2], -cell[2], -cell[3])
    if cell is None and rising:     # the bound over the scanned sizes
        raise InfeasibleTarget(target, min(1.0, finish(best)))
    if cell is None:
        return (*map(float, (grid[0], grid[0], vals[0], vals[0])),
                "lower bound")
    return (*map(float, cell), "scan")


def _span(request, s):
    """The growing size u runs from c_lower - s, but at least 1e-9 and
    s * 1e-300 (s / u stays finite), to c = s + u = C_CAP, or 10 s if
    larger, as the interim curves vary with u / s, but no further than
    the largest double.  A start past the end leaves the scan one point."""
    start = max(request.c_lower - s, _C_MIN, s * 1e-300)
    stop = min(max(C_CAP, 10.0 * s), sys.float_info.max) - s
    return start, stop


@dataclass(frozen=True)
class FutilityRule:
    """Stop the replication at interim when power drops below a boundary."""

    method: str = "IPPi"
    boundary: float = 0.30

    def __post_init__(self):
        if self.method not in FUTILITY_METHODS:
            raise ValueError("futility rules use IPPi or PPi")
        _methods.unit("boundary", self.boundary)


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
