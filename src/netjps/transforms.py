"""Zero-skewness power transform of the positive treatment scale."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, DomainError, InputError, NoRootError
from .linear_model import frequency_weights, powers, weighted_mean

SKEW_TOL = 1e-8  # root tolerance, in skewness units
SKEW_POSTCONDITION = 1e-6


def skewness(x, weights=None):
    """Sample skewness m3 / m2^(3/2) with population central moments, each
    a :func:`~netjps.linear_model.weighted_mean` under frequency ``weights``.

    No small-sample correction is applied: the zero-skewness objective is
    stated in terms of these exact moments.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 3:
        raise InputError("skewness needs a 1-d sample of length >= 3")
    if not np.all(np.isfinite(x)):
        raise InputError("skewness needs finite values")
    weights = frequency_weights(weights, x.size)
    mean = weighted_mean(x, weights)
    _, sq, cube = powers(x - mean)
    m2 = weighted_mean(sq, weights)
    # guard against rounding residue when the sample is constant
    if m2 <= (4 * np.finfo(float).eps * max(1.0, abs(float(mean)))) ** 2:
        raise DegenerateSampleError("zero-variance sample has undefined skewness")
    m3 = weighted_mean(cube, weights)
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
    """Fitted exponent with the achieved skewness."""

    k: float
    skewness: float

    def __post_init__(self):
        if abs(self.skewness) > SKEW_POSTCONDITION:
            raise DomainError(
                f"achieved skewness {self.skewness:.3e} exceeds {SKEW_POSTCONDITION:.0e}"
            )


# Reach of the root search: the cold bracket [-5, 5], doubled four times.
_K_REACH = 80.0


def boxcox_zero_skew(z, weights=None, k_start=None):
    """Find k with skewness((z^k - 1)/k) = 0 and return (fit, transformed);
    the skewness is weighted by the rows' frequency ``weights`` (1 each
    without).

    Bracketed root search on k: the bracket starts at [-5, 5], or at
    k_start +- 1/8 when a nearby root is known (a bootstrap replicate starts
    at the point estimate's k), and doubles its half-width about that
    centre, clipped to [-80, 80], until the skewness changes sign across it.
    A start whose first bracket has a non-finite skewness at an end (a far
    start, where the moments overflow) falls back to [-5, 5].
    Illinois (modified false-position) steps then shrink it, falling back to
    the bracket midpoint whenever the secant point leaves the open bracket;
    terminates when |skewness| < 1e-8.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0) or not np.all(np.isfinite(z)):
        raise DomainError("zero-skewness transform requires strictly positive finite values")
    if np.ptp(z) == 0:
        raise NoRootError("no zero-skewness root: the treatment has zero variance")
    # one log and one domain check per root, not per skewness evaluation
    logz = np.log(z)
    weights = frequency_weights(weights, z.size)

    def s(k):
        # extreme k can overflow the transform or its moments, or flatten
        # the transform to a constant: no skewness there
        with np.errstate(over="ignore", invalid="ignore"):
            t = _boxcox_from_log(logz, k)
            if not np.all(np.isfinite(t)):
                return math.nan
            try:
                value = skewness(t, weights)
            except DegenerateSampleError:
                return math.nan
        return value if math.isfinite(value) else math.nan

    def bracketed(a, b):
        return not (math.isnan(a) or math.isnan(b)) and (a > 0) != (b > 0)

    cold = (0.0, 5.0)
    if k_start is None:
        starts = [cold]
    elif math.isfinite(k_start):
        starts = [(min(max(float(k_start), -_K_REACH), _K_REACH), 0.125), cold]
    else:
        raise InputError(f"root search start k={k_start} is not finite")
    for centre, half in starts:
        lo, hi = max(centre - half, -_K_REACH), min(centre + half, _K_REACH)
        s_lo, s_hi = s(lo), s(hi)
        if not (math.isnan(s_lo) or math.isnan(s_hi)):
            break
    # an endpoint whose skewness is non-finite keeps the last finite one
    while not bracketed(s_lo, s_hi) and (centre - half > -_K_REACH or centre + half < _K_REACH):
        if centre - half > -_K_REACH:
            k = max(centre - 2 * half, -_K_REACH)
            if not math.isnan(s_k := s(k)):
                lo, s_lo = k, s_k
        if centre + half < _K_REACH:
            k = min(centre + 2 * half, _K_REACH)
            if not math.isnan(s_k := s(k)):
                hi, s_hi = k, s_k
        half *= 2
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
    fit = BoxCoxFit(k=float(k), skewness=float(s_k))
    return fit, zstar
