"""Gaussian linear models: least squares, densities, polynomial design rows.

The least-squares solver is a backward-stable orthogonal decomposition
(column-pivoted QR); explicit normal equations are never formed here and are
kept only as an independent oracle in the test suite.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError, InputError, SingularDesignError

RANK_TOL = 1e-10  # singular if a pivoted R diagonal < RANK_TOL * largest

# Design rows for the outcome model, in the canonical reporting order
# (polynomials in each treatment and score, score and treatment interactions,
# intercept last).
WITH_INTERFERENCE_TERMS = (
    "z", "z^2", "z^3",
    "phi", "phi^2", "phi^3", "z*phi",
    "g", "g^2", "g^3",
    "lambda", "lambda^2", "lambda^3", "g*lambda",
    "z*g",
    "const",
)
WITHOUT_INTERFERENCE_TERMS = (
    "z", "z^2", "z^3",
    "phi", "phi^2", "phi^3", "z*phi",
    "const",
)
VARIANTS = ("with_interference", "without_interference")


@dataclass(frozen=True)
class LinearFit:
    """OLS coefficients with the maximum-likelihood residual scale.

    ``sigma`` is sqrt(RSS/n): the fitted values feed Gaussian density
    evaluations, where the ML convention is the one that matters.
    """

    theta: np.ndarray
    sigma: float
    n: int
    rss: float
    names: tuple

    def __post_init__(self):
        if self.sigma < 0:
            raise DomainError("residual scale must be >= 0")
        if len(self.names) != self.theta.shape[0]:
            raise InputError("coefficient count must equal design column count")

    def predict(self, x):
        return np.asarray(x, dtype=float) @ self.theta

    def coef(self, name):
        return float(self.theta[self.names.index(name)])


def fit_ols(x, y, names=None):
    """Least-squares fit of ``y`` on the columns of ``x``.

    Raises
    ------
    SingularDesignError
        If the design is rank deficient (tolerance-checked on the pivoted R
        diagonal); the error names the offending column set.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise InputError("design matrix must be 2-d")
    n, p = x.shape
    if y.shape != (n,):
        raise InputError(f"response length {y.shape} does not match {n} design rows")
    if n < p:
        raise InputError(f"need rows >= columns, got {n} x {p}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InputError("design and response must be finite")
    if names is None:
        names = tuple(f"x{j}" for j in range(p))
    names = tuple(names)
    if len(names) != p:
        raise InputError("need one name per design column")

    q, r, piv = scipy.linalg.qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    largest = diag[0] if diag.size else 0.0
    rank = int(np.sum(diag >= RANK_TOL * largest)) if largest > 0 else 0
    if rank < p:
        offending = tuple(names[j] for j in piv[rank:])
        raise SingularDesignError(
            f"singular design: columns {sorted(offending)} are linearly dependent "
            f"(tolerance {RANK_TOL:g})",
            columns=offending,
        )
    theta_piv = scipy.linalg.solve_triangular(r, q.T @ y)
    theta = np.empty(p)
    theta[piv] = theta_piv
    resid = y - x @ theta
    rss = float(resid @ resid)
    theta.setflags(write=False)
    return LinearFit(theta=theta, sigma=math.sqrt(rss / n), n=n, rss=rss, names=names)


def normal_density(x, mean, sd, out=None):
    """Gaussian pdf, vectorized over ``x`` and ``mean``.

    With ``out``, an array of the broadcast shape, every step writes there
    and no array is allocated.
    """
    if not np.isscalar(sd) or not math.isfinite(sd) or sd <= 0:
        raise DomainError(f"normal density requires scalar sd > 0, got {sd!r}")
    u = np.divide(np.subtract(np.asarray(x, dtype=float), mean, out=out), sd, out=out)
    # -0.5 * (u * u) equals (-0.5 * u) * u wherever exp can tell them apart:
    # scaling by a power of two is exact above the subnormal range
    w = np.multiply(np.multiply(u, u, out=out), -0.5, out=out)
    return np.divide(np.exp(w, out=out), sd * math.sqrt(2.0 * math.pi), out=out)


def build_outcome_matrix(z, g, phi, lam, variant):
    """Stacked outcome-model design rows for vector inputs.

    ``with_interference`` produces the 16-term row
    [z, z^2, z^3, phi, phi^2, phi^3, z*phi, g, g^2, g^3, lambda, lambda^2,
    lambda^3, g*lambda, z*g, 1]; ``without_interference`` keeps only the
    first seven plus the intercept.  Scalar inputs broadcast.
    """
    if variant not in VARIANTS:
        raise InputError(f"unknown outcome variant {variant!r}")
    z, g, phi, lam = np.broadcast_arrays(
        np.asarray(z, dtype=float),
        np.asarray(g, dtype=float),
        np.asarray(phi, dtype=float),
        np.asarray(lam, dtype=float),
    )
    for arr, label in ((z, "z"), (g, "g"), (phi, "phi"), (lam, "lambda")):
        if not np.all(np.isfinite(arr)):
            raise InputError(f"non-finite {label} in outcome design")
    one = np.ones_like(z)
    cols = [z, z**2, z**3, phi, phi**2, phi**3, z * phi]
    if variant == "with_interference":
        cols += [g, g**2, g**3, lam, lam**2, lam**3, g * lam, z * g]
        names = WITH_INTERFERENCE_TERMS
    else:
        names = WITHOUT_INTERFERENCE_TERMS
    cols.append(one)
    return np.column_stack([c.ravel() for c in cols]), names

