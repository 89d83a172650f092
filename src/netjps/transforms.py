"""Zero-skewness power transform of the positive treatment scale."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, DomainError, InputError, NoRootError
from .linear_model import powers

SKEW_TOL = 1e-8  # root tolerance, in skewness units
SKEW_POSTCONDITION = 1e-6


def skewness(x):
    """Sample skewness m3 / m2^(3/2) with population central moments.

    No small-sample correction is applied: the zero-skewness objective is
    stated in terms of these exact moments.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 3:
        raise InputError("skewness needs a 1-d sample of length >= 3")
    if not np.all(np.isfinite(x)):
        raise InputError("skewness needs finite values")
    _, sq, cube = powers(x - x.mean())
    m2 = np.mean(sq)
    # guard against rounding residue when the sample is constant
    if m2 <= (4 * np.finfo(float).eps * max(1.0, abs(float(x.mean())))) ** 2:
        raise DegenerateSampleError("zero-variance sample has undefined skewness")
    m3 = np.mean(cube)
    return float(m3 / m2**1.5)


# below the smallest normal float, k * log(z) denormalizes and loses all
# precision; the transform is indistinguishable from its log limit there
_K_LOG_LIMIT = np.finfo(float).tiny


def boxcox_apply(z, k):
    """(z^k - 1)/k on the positive domain; k = 0 is the log limit.

    Evaluated as expm1(k log z)/k, which stays accurate as k -> 0.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0) or not np.all(np.isfinite(z)):
        raise DomainError("power transform requires strictly positive finite values")
    return _boxcox_from_log(np.log(z), k)


def _boxcox_from_log(logz, k):
    """:func:`boxcox_apply` from log z, already taken on a checked domain."""
    if abs(k) < _K_LOG_LIMIT:
        return logz
    return np.expm1(k * logz) / k


@dataclass(frozen=True)
class BoxCoxFit:
    """Fitted exponent with the achieved skewness and the sample minimum."""

    k: float
    skewness: float
    source_min: float

    def __post_init__(self):
        if not self.source_min > 0:
            raise DomainError("power transform domain requires source min > 0")
        if abs(self.skewness) > SKEW_POSTCONDITION:
            raise DomainError(
                f"achieved skewness {self.skewness:.3e} exceeds {SKEW_POSTCONDITION:.0e}"
            )


def boxcox_zero_skew(z):
    """Find k with skewness((z^k - 1)/k) = 0 and return (fit, transformed).

    Bracketed root search on k over [-5, 5], with bracket doubling before
    failure: Illinois (modified false-position) steps, falling back to the
    bracket midpoint whenever the secant point leaves the open bracket;
    terminates when |skewness| < 1e-8.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0) or not np.all(np.isfinite(z)):
        raise DomainError("zero-skewness transform requires strictly positive finite values")
    # one log and one domain check per root, not per skewness evaluation
    logz = np.log(z)

    def s(k):
        with np.errstate(over="ignore", invalid="ignore"):
            t = _boxcox_from_log(logz, k)
        if not np.all(np.isfinite(t)):
            return math.nan
        try:
            return skewness(t)
        except DegenerateSampleError:
            # extreme k can flatten the transform to a constant
            return math.nan

    def bracketed(a, b):
        return not (math.isnan(a) or math.isnan(b)) and (a > 0) != (b > 0)

    lo, hi = -5.0, 5.0
    s_lo, s_hi = s(lo), s(hi)
    for _ in range(4):  # doubling stops at [-80, 80]
        if bracketed(s_lo, s_hi):
            break
        ns_lo, ns_hi = s(lo * 2), s(hi * 2)
        if not math.isnan(ns_lo):
            lo, s_lo = lo * 2, ns_lo
        if not math.isnan(ns_hi):
            hi, s_hi = hi * 2, ns_hi
    if not bracketed(s_lo, s_hi):
        raise NoRootError(
            "no zero-skewness root bracketed: "
            f"skewness {s_lo:.4g} at k={lo:g}, {s_hi:.4g} at k={hi:g}"
        )

    # Illinois: halve the stored value at an endpoint that survives two steps
    # running, so the false-position point cannot stall at that end
    k, s_k = lo, s_lo
    kept = 0  # endpoint kept by the last step: -1 lo, +1 hi
    for _ in range(200):
        k = (lo * s_hi - hi * s_lo) / (s_hi - s_lo)
        if not lo < k < hi:
            k = 0.5 * (lo + hi)
        s_k = s(k)
        if math.isnan(s_k):
            raise NoRootError(f"skewness non-finite inside bracket at k={k:g}")
        if abs(s_k) < SKEW_TOL:
            break
        if (s_k > 0) == (s_lo > 0):
            lo, s_lo = k, s_k
            if kept == 1:
                s_hi *= 0.5
            kept = 1
        else:
            hi, s_hi = k, s_k
            if kept == -1:
                s_lo *= 0.5
            kept = -1

    zstar = _boxcox_from_log(logz, k)
    fit = BoxCoxFit(k=float(k), skewness=float(s_k), source_min=float(z.min()))
    return fit, zstar
