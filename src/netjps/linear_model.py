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


def normal_density(x, mean, sd):
    """Gaussian pdf, vectorized over ``x`` and ``mean``."""
    if not np.isscalar(sd) or not math.isfinite(sd) or sd <= 0:
        raise DomainError(f"normal density requires scalar sd > 0, got {sd!r}")
    u = (np.asarray(x, dtype=float) - mean) / sd
    return np.exp(-0.5 * (u * u)) / (sd * math.sqrt(2.0 * math.pi))


def powers(x):
    """(x, x^2, x^3) by products: numpy takes a float ``**`` through ``pow``,
    some fifty times slower."""
    sq = x * x
    return x, sq, sq * x


def outcome_terms(z, g, phi, lam, variant, z_phi=None, g_lam=None):
    """The outcome polynomial's terms, in the order of the variant's names.

    ``z``, ``g``, ``phi`` and ``lam`` are the :func:`powers` of each
    treatment and score, per unit or as unit means.  A product term is the
    product of its factors' first powers, which is also its unit mean
    wherever one factor is the same for every unit; otherwise the caller
    passes the product's unit mean as ``z_phi`` or ``g_lam``.  theta . terms
    is then the imputed outcome, or its unit average.  The
    without_interference variant ignores ``g``, ``lam`` and ``g_lam``.
    """
    if variant not in VARIANTS:
        raise InputError(f"unknown outcome variant {variant!r}")
    terms = [*z, *phi, z[0] * phi[0] if z_phi is None else z_phi]
    if variant == "with_interference":
        terms += [*g, *lam, g[0] * lam[0] if g_lam is None else g_lam, z[0] * g[0]]
    return [*terms, 1.0]


def outcome_value(theta, terms):
    """theta . terms, summed in term order."""
    return sum(t * term for t, term in zip(theta, terms))


def build_outcome_matrix(z, g, phi, lam, variant):
    """Stacked outcome-model design rows for vector inputs (scalars
    broadcast): one column per :func:`outcome_terms` term, named by
    ``WITH_INTERFERENCE_TERMS`` or ``WITHOUT_INTERFERENCE_TERMS``.  The
    without_interference variant ignores ``g`` and ``lam`` (None allowed).
    """
    inputs = {"z": z, "phi": phi}
    if variant == "with_interference":
        inputs.update({"g": g, "lambda": lam})
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in inputs.values()))
    for label, arr in zip(inputs, arrays):
        if not np.all(np.isfinite(arr)):
            raise InputError(f"non-finite {label} in outcome design")
    z, phi, *g_lam = arrays
    g_powers, lam_powers = (powers(g_lam[0]), powers(g_lam[1])) if g_lam else (None, None)
    terms = outcome_terms(powers(z), g_powers, powers(phi), lam_powers, variant)
    names = WITH_INTERFERENCE_TERMS if g_lam else WITHOUT_INTERFERENCE_TERMS
    return np.column_stack([np.broadcast_to(t, z.shape).ravel() for t in terms]), names
