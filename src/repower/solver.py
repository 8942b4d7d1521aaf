"""Invert power curves for the relative sample size.

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
(``_numeric_supremum``, the package's one numeric search; every
supremum a ``PowerResult`` carries comes from a rule of the method
table).  ``_refine`` then narrows any bracket by Illinois steps.  When
one tail counts, the search runs on the Phi argument t + z against
Phi^{-1} of the target (see ``_along``), and Phi is applied to the
result only.  If the target exceeds the least upper bound of the
curve, ``InfeasibleTarget`` is raised carrying that bound.  The
inverse and supremum rules are called directly: an interim request has
s > 0 or a fixed f, so no interim method stands in for its design
counterpart there, as CPi does for CP in ``design._result``.
"""
import functools
import math
import sys
from dataclasses import dataclass, field

from . import _methods, design
from .design import DEFAULT_CONFIG
from .normal import _mapped, std_normal_cdf, std_normal_quantile

C_CAP = 1e9
_C_MIN = 1e-9


class InfeasibleTarget(ValueError):
    """Target power above the least upper bound of the curve.

    ``supremum`` is that bound, or the maximum over the sizes
    ``solve_c`` scans (c up to C_CAP, or to ten times c_stage1 if that
    is larger) where c_lower cuts the axis or the curve nears its bound
    only beyond them.  IPPi at a fixed f has no rule for its bound: it
    is the larger of the zoomed maximum and the curve's limits as c ->
    0 and as c grows, where that stays below the target.
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

    _RULES = (("target_power", _methods.unit),
              ("c_lower", _methods.nonnegative), ("f", _methods.unit),
              ("c_stage1", _methods.positive))
    _OPTIONAL = ("f", "c_stage1")

    def __post_init__(self):
        _methods.settle(self)
        design._a_config("config", self.config)
        entry = _methods._lookup(self.method)
        zo, zi = entry.check(self.zo, self.zi, (self.f, self.c_stage1))
        if entry.interim and (self.f is None) == (self.c_stage1 is None):
            raise ValueError(
                "interim solving needs exactly one of f or c_stage1")
        # without the original, power at a fixed f is the same for every c
        if self.f is not None and "zo" not in entry.needs:
            raise ValueError(
                f"{self.method} at a fixed interim fraction does not vary "
                "with c; fix c_stage1 instead")
        object.__setattr__(self, "zo", zo)
        object.__setattr__(self, "zi", zi)


_a_request = _methods.record(SolveRequest)


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
        fx = fn(x)
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
    fu = fn(u)
    below = fu < level
    while True:
        v = min(u * (1.0 + gap), hi) if below else max(u * (1.0 - gap), lo)
        fv = fn(v)
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
    fades; one step of it from b estimates the crossing for ``_cell``,
    whose first partner lies as far off as the step moved.
    """
    def at(q, zd=zd):
        u = entry.inverse(zd, None, 0.0, None, q, config)
        return u if u is not None and u < math.inf else None
    q = std_normal_quantile(0.5 * level)
    half = at(q)
    b = min((x for x in (at(std_normal_quantile(level)), at(q, 0.0))
             if x is not None), default=None)
    if half is None or b is None or b < start:
        return None
    lo = max(start, half * (1.0 - 2.0 ** -30))
    t, z = entry.parts(zd, None, 0.0, b, config)
    p = level - std_normal_cdf(z - t)
    u = at(std_normal_quantile(p)) if p > 0.0 else None
    u = b if u is None else min(max(u, lo), b)
    return _cell(fn, level, u, lo, b * (1.0 + 2.0 ** -30),
                 max(2.0 ** -30, (b - u) / u))


def _along(entry, zd, zi, s, f, config):
    """The curve to search as the size grows, and the map from its
    values to powers.

    The growing size is the remaining size x at fixed s when ``f`` is
    None, else c at the fixed interim fraction f.  When one tail counts,
    the curve is the Phi argument t + z and the map is Phi: Phi is
    increasing, so maxima and crossings of the argument are those of
    the power, found without evaluating Phi.  When both tails count,
    the curve is the power itself.
    """
    def curve(u):
        if f is None:
            t, z = entry.parts(zd, zi, s, u, config)
        else:
            t, z = entry.parts(zd, zi, u * f, u * (1.0 - f), config)
        if config.both_tails:
            return _methods._tail_power(t, z, True)
        return t + z
    return curve, (float if config.both_tails else std_normal_cdf)


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
    r = _a_request("request", request)
    # c = s + u, s = c_stage1 or 0 (see the module docstring); inputs
    # are checked by SolveRequest, and every u passed is finite and > 0
    entry = _methods._lookup(r.method)
    zd = design.shrunken_zo(r.zo, r.config) if "zo" in entry.needs else 0.0
    s = r.c_stage1 or 0.0
    curve, finish = _along(entry, zd, r.zi, s, r.f, r.config)
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
        u = entry.inverse(zd, r.zi, s, r.f, level, r.config)
        # the rules answer on a curve below level all the way up to u,
        # so the scan start, if well below u, is too; an estimate that
        # overflowed to inf lies past the stop
        if (u is not None and start <= u <= stop
                and (u >= 2.0 * start or fn(start) < level)):
            cell = _cell(fn, level, u, u * (1.0 - 2.0 ** -30),
                         u * (1.0 + 2.0 ** -30))
    elif entry.inverse is not None and not entry.interim and 0.5 * level:
        # the power is even in zd; a level whose half is 0 is left to the scan
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
        # the grid overflows to inf, and inf - inf is NaN, without a
        # warning, as a Python float does
        import numpy as np
        with np.errstate(over="ignore", invalid="ignore"):
            *cell, path = _scan(fn, finish, r, entry, zd, s, level, start,
                                stop)
    rising = cell[3] >= level
    u, value = _refine(fn, level, *cell)
    # Phi is not monotone at the ulp scale, so a value at or above level
    # can still fall short: walk on to where the power meets the target,
    # by 1, 2, 4, ... ulps of u, as a flat curve moves less than an ulp
    # of its value per ulp of u
    power = finish(value)
    step = 0.0
    for _ in range(7):
        if power >= target:
            break
        step = step + step or math.ulp(u)
        u = u + step if rising else u - step
        power = finish(fn(u))
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
    elif not rising or finish(fn(
            min(c * 1.001 + 1e-12 - s, max(start, stop)))) < power - 1e-12:
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
    import numpy as np
    target = r.target_power
    grid = np.array([start])
    if start < stop:    # geomspace's grid, its powers from libm
        grid = _mapped(functools.partial(math.pow, 10.0))(np.linspace(
            math.log10(start), math.log10(stop), 1200))
        grid[0], grid[-1] = start, stop
    vals = np.asarray(fn(grid), dtype=float)
    # a curve that meets the target at the lower bound has its smallest
    # exact crossing, if any, where it first drops below
    rising = not vals[0] >= level
    sup = ()    # the rule's bound, or IPPi's limits at a fixed f
    if rising and r.c_lower <= s and not vals[vals.argmax()] >= level:
        sup = entry.sup(zd, r.zi, s, r.f, r.config)
        if not isinstance(sup, tuple) and sup < target:
            raise InfeasibleTarget(target, sup)     # no zoom can pass it
    if rising:
        best, cell = _numeric_supremum(fn, grid, vals, level)
    else:   # where f drops below level, -f passes -level
        best, cell = _numeric_supremum(
            lambda u: -fn(u), grid, -vals, math.nextafter(-level, math.inf))
        cell = cell and (*cell[:2], -cell[2], -cell[3])
    if cell is None and rising:
        # the bound over the scanned sizes, or IPPi's limits past them
        # where they stay below the target
        best = min(1.0, finish(best))
        bound = max((best, *sup)) if isinstance(sup, tuple) else best
        raise InfeasibleTarget(target, bound if bound < target else best)
    if cell is None:
        return (*map(float, (grid[0], grid[0], vals[0], vals[0])),
                "lower bound")
    return (*map(float, cell), "scan")


def _numeric_supremum(curve, grid, vals, level):
    """Largest value of ``curve`` from a log grid and its values, and
    the first cell (a, b, f(a), f(b)) where f reaches ``level``, or
    None; till one does, zooms on the largest value (NaN aside) with a
    33-point log grid over its two cells to a log spacing below 1e-6.
    """
    import numpy as np
    best, t = -math.inf, None   # t: the log grid, taken on a zoom
    while True:
        i = int(vals.argmax())      # stops at a NaN: then skip them
        i = i if vals[i] == vals[i] else int(np.fmax(vals, -math.inf).argmax())
        if vals[i] >= level:
            j = max(int((vals >= level).argmax()), 1)
            return best, (grid[j - 1], grid[j], vals[j - 1], vals[j])
        best = max(best, float(vals[i]))
        t = _mapped(math.log)(grid) if t is None else t
        if t.size < 2 or not t[1] - t[0] >= 1e-6:
            return best, None
        t = np.linspace(t[max(i - 1, 0)], t[min(i + 1, len(t) - 1)], 33)
        grid = _mapped(math.exp)(t)
        vals = curve(grid)


def _span(request, s):
    """The growing size u runs from c_lower - s, but at least 1e-9 and
    s * 1e-300 (s / u stays finite), to c = s + u = C_CAP, or 10 s if
    larger, as the interim curves vary with u / s, but no further than
    the largest double.  A start past the end leaves the scan one point."""
    start = max(request.c_lower - s, _C_MIN, s * 1e-300)
    stop = min(max(C_CAP, 10.0 * s), sys.float_info.max) - s
    return start, stop
