"""Standard-normal primitives and effect-scale transforms.

All power formulas in this package reduce to Phi evaluated at a linear
combination of z-statistics, so everything funnels through the two
functions below.  ``std_normal_cdf`` uses the complementary error
function, which keeps full relative accuracy in the lower tail;
``std_normal_quantile`` polishes the rational approximation of
``scipy.special.ndtri`` with one tail-aware Newton step.  The step stays
so that critical values and ``p_to_z``, and with them every number the
CLI prints, keep their digits; it buys no accuracy, as polished or not
the quantile lies within about 2 ulp of the true value.  The simulator
therefore skips it and calls ``ndtri`` directly on its uniforms, which
never leave (0, 1): the step and the checks are most of this wrapper's
cost on large arrays.

Functions accept scalars or numpy arrays and return matching types.
"""
import numpy as np
from scipy import special

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _as_float_array(x, name):
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValueError(f"{name} must not contain NaN")
    return arr


def _scalar_or_array(out, *inputs):
    if all(np.isscalar(v) or np.ndim(v) == 0 for v in inputs):
        return float(out)
    return out


def std_normal_cdf(x):
    """Phi(x), the standard normal distribution function."""
    arr = _as_float_array(x, "x")
    out = 0.5 * special.erfc(-arr / _SQRT2)
    return _scalar_or_array(out, x)


def std_normal_pdf(x):
    """phi(x), the standard normal density."""
    arr = _as_float_array(x, "x")
    out = _INV_SQRT_2PI * np.exp(-0.5 * arr * arr)
    return _scalar_or_array(out, x)


def std_normal_quantile(p):
    """Phi^{-1}(p) for p strictly inside (0, 1).

    Raises ValueError if any p lies outside the open unit interval
    (the quantile is unbounded at 0 and 1).
    """
    arr = _as_float_array(p, "p")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("p must lie strictly between 0 and 1")
    q = special.ndtri(arr)
    dens = _INV_SQRT_2PI * np.exp(-0.5 * q * q)
    # one Newton step, using the nearer tail so the residual keeps
    # relative precision; skipped where the density underflows
    lower = arr <= 0.5
    resid = np.where(lower,
                     0.5 * special.erfc(-q / _SQRT2) - arr,
                     (1.0 - arr) - 0.5 * special.erfc(q / _SQRT2))
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(dens > 1e-280, resid / np.maximum(dens, 1e-300), 0.0)
    out = q - step
    return _scalar_or_array(out, p)


def fisher_z(r):
    """Fisher z-transform atanh(r) of a correlation, |r| < 1."""
    arr = _as_float_array(r, "r")
    if np.any(np.abs(arr) >= 1.0):
        raise ValueError("correlations must satisfy |r| < 1")
    out = np.arctanh(arr)
    return _scalar_or_array(out, r)


def fisher_z_inv(z):
    """Back-transform tanh(z) from the Fisher scale to a correlation."""
    arr = _as_float_array(z, "z")
    out = np.tanh(arr)
    return _scalar_or_array(out, z)


def p_to_z(p, direction=1):
    """Signed z-statistic recovering a two-sided p-value.

    Parameters
    ----------
    p : float or array
        Two-sided p-value in (0, 1).
    direction : {1, -1}
        Sign of the underlying effect estimate.
    """
    arr = _as_float_array(p, "p")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("p must lie strictly between 0 and 1")
    d = np.asarray(direction, dtype=float)
    if np.any(np.abs(d) != 1.0):
        raise ValueError("direction must be +1 or -1")
    # the lower tail keeps full precision down to the smallest p
    out = -d * std_normal_quantile(arr / 2.0)
    return _scalar_or_array(out, p, direction)


def z_to_p(z):
    """Two-sided p-value of a z-statistic."""
    arr = _as_float_array(z, "z")
    out = special.erfc(np.abs(arr) / _SQRT2)
    return _scalar_or_array(out, z)
