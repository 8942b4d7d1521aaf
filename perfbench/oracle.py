"""Reference values computed apart from the program, with the stdlib only.

Every power is derived here from the sampling model rather than copied
from the package's weights: the replication estimate is normal around
the true effect, the design prior is a point or a normal centred on
the (shrunken) original estimate, and the final test is a z-test at
level alpha or a pooled posterior test at alpha^2 / 2.  Units are
those of the original study (its effective size is 1), so ``c`` is
the replication's size, ``c * f`` the interim size and ``zo``, ``zi``
the two observed z-statistics.
"""
import math
from statistics import NormalDist

_STD = NormalDist()
FIXED = ("CP", "PP", "FBP", "CBP")
INTERIM = ("CPi", "IPPi", "PPi")

# published interim power in percent (CPi, IPPi, PPi) of the ten
# studies of the case study that continued to stage 2
PUBLISHED_INTERIM_PCT = {
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


def phi(x):
    """Standard normal distribution function, accurate in the lower tail."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def quantile(p):
    return _STD.inv_cdf(p)


def p_to_z(p):
    """Positive z-statistic of a two-sided p-value, from the lower tail."""
    return -quantile(p / 2.0)


def _reject(mean, sd, crit, both_tails):
    """P(Z > -crit) + [P(Z < crit)] for Z ~ N(mean, sd^2), crit < 0."""
    up = phi((mean + crit) / sd)
    return up + phi((-mean + crit) / sd) if both_tails else up


def design_power(method, zo, c, alpha=0.05, shrinkage=0.0,
                 both_tails=False):
    """Design-stage power from the distribution of the final statistic."""
    zd = (1.0 - shrinkage) * zo
    if method in ("CP", "PP"):
        # replication z-statistic: mean sqrt(c) zd, variance 1 (+ c under
        # the normal design prior); flat analysis at level alpha
        var = 1.0 + (c if method == "PP" else 0.0)
        return _reject(math.sqrt(c) * zd, math.sqrt(var),
                       quantile(alpha / 2.0), both_tails)
    # pooled posterior z-statistic sqrt(1 + c) * (zd + c*theta_r)/(1 + c):
    # mean zd sqrt(1 + c); variance c under the normal design prior,
    # c / (1 + c) under the point prior; level alpha^2 / 2
    var = c if method == "FBP" else c / (1.0 + c)
    return _reject(zd * math.sqrt(1.0 + c), math.sqrt(var),
                   quantile(alpha * alpha / 4.0), both_tails)


def interim_power(method, zo, zi, c, f, alpha=0.05, shrinkage=0.0,
                  both_tails=False):
    """Interim power: the final z-statistic sqrt(f) zi + sqrt(1-f) Z_j
    + drift, averaged over the method's prior on the effect."""
    cf = c * f
    if method == "PPi":
        # effect ~ N(interim estimate, 1/(c f)): mean zi / sqrt(f)
        mean = zi / math.sqrt(f)
        var = (1.0 - f) / f
    else:
        zd = (1.0 - shrinkage) * zo
        if method == "CPi":
            m, extra = zd, 0.0
        else:
            # original and interim pooled: mean (zd + sqrt(cf) zi)/(1+cf)
            m = (zd + math.sqrt(cf) * zi) / (1.0 + cf)
            extra = (1.0 - f) ** 2 * c / (1.0 + cf)
        mean = math.sqrt(f) * zi + (1.0 - f) * math.sqrt(c) * m
        var = (1.0 - f) + extra
    return _reject(mean, math.sqrt(var), quantile(alpha / 2.0), both_tails)


def power(method, zo, zi, c, f, alpha, shrinkage, both_tails):
    if method in FIXED:
        return design_power(method, zo, c, alpha, shrinkage, both_tails)
    return interim_power(method, zo, zi, c, f, alpha, shrinkage, both_tails)


def design_limits(method, zo, alpha=0.05, shrinkage=0.0, both_tails=False):
    """Limits of design power as c -> 0 and c -> inf."""
    zd = (1.0 - shrinkage) * zo
    za = quantile(alpha / 2.0)
    zat = quantile(alpha * alpha / 4.0)
    sign = [1.0, -1.0] if both_tails else [1.0]

    def lim(x):
        return 1.0 if x > 0 else (0.0 if x < 0 else 0.5)

    if method == "CP":
        small = sum(phi(za) for _ in sign)
        large = sum(lim(s * zd) if zd != 0 else phi(za) for s in sign)
    elif method == "PP":
        small = sum(phi(za) for _ in sign)
        large = sum(phi(s * zd) for s in sign)
    elif method == "FBP":
        small = sum(lim(s * zd + zat) for s in sign)
        large = sum(phi(s * zd) for s in sign)
    else:
        small = sum(lim(s * zd + zat) for s in sign)
        large = sum(lim(s * zd) if zd != 0 else phi(zat) for s in sign)
    return small, large


def cp_inverse(target, zo, alpha=0.05, shrinkage=0.0):
    """Analytic CP sample size: ((Phi^-1(P) - z_alpha) / zd)^2."""
    zd = (1.0 - shrinkage) * zo
    return ((quantile(target) - quantile(alpha / 2.0)) / zd) ** 2


def close(a, b, abs_tol=1e-12, rel_tol=1e-10):
    return math.isfinite(a) and abs(a - b) <= max(abs_tol,
                                                   rel_tol * abs(b))
