"""Gaussian linear models: least squares, densities, polynomial design rows.

The least-squares solver is a backward-stable orthogonal decomposition: one
Householder QR, without column pivoting, whose R both decides the rank and
solves for the coefficients.  Explicit normal equations are never formed here
and are kept only as an independent oracle in the test suite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, SingularDesignError

# Column j is singular if |R[j, j]| <= RANK_TOL * (norm of R's column j): the
# sine of its angle to the span of the columns before it.  A column's own
# scale cancels, so the rule does not depend on any column's units.
RANK_TOL = 1e-10

# Terms per BLAS dot product in a sum over rows.  OpenBLAS computes a ddot
# of at most 10000 terms on one thread, so a sum of such dots added in order
# has the same bits whatever the BLAS thread count; one ddot over more rows
# does not.
DOT_BLOCK = 10_000

# Multiply-adds m * n * k per BLAS matrix product in a sum over rows.
# OpenBLAS runs a gemm of at most SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD
# = 65536 * 4 of them on one thread (interface/gemm.c), so a sum of such
# products added in order has the same bits whatever the BLAS thread count.
GEMM_ONE_THREAD = 65536 * 4

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


@dataclass(frozen=True)
class LinearFit:
    """OLS coefficients with the maximum-likelihood residual scale.

    ``sigma`` is sqrt(RSS/n): the fitted values feed Gaussian density
    evaluations, where the ML convention is the one that matters.  ``n`` is
    the number of rows counted, the frequency weights' sum (the row count
    under weights of 1), an int whenever that sum is whole; ``rss`` is the
    weighted sum of squared residuals.
    """

    theta: np.ndarray
    sigma: float
    n: int | float
    rss: float
    names: tuple

    def __post_init__(self):
        if self.sigma < 0:
            raise DomainError("residual scale must be >= 0")
        if len(self.names) != self.theta.shape[0]:
            raise InputError("coefficient count must equal design column count")

    def coef(self, name):
        return float(self.theta[self.names.index(name)])


def frequency_weights(weights, n):
    """``weights`` as n positive finite floats; None gives each row weight 1."""
    if weights is None:
        return np.ones(n)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise InputError(f"weights have shape {weights.shape}, expected ({n},)")
    if n and not (weights.min() > 0 and weights.max() < math.inf):  # NaN fails both
        raise InputError("weights must be positive and finite")
    return weights


def weighted_mean(x, weights):
    """sum(weights * x) / sum(weights): pairwise sums, whose order does not
    depend on the BLAS thread count; under weights of 1 the bits of
    ``x.mean()``."""
    return (weights * x).sum() / weights.sum()


def sum_of_squares(r):
    """r . r as dots of at most ``DOT_BLOCK`` terms, added in order."""
    return float(sum(r[i:i + DOT_BLOCK] @ r[i:i + DOT_BLOCK] for i in range(0, r.size, DOT_BLOCK)))


def fit_ols(x, y, names=None, weights=None):
    """Least-squares fit of ``y`` on the columns of ``x``.

    [x | y] is copied into one Fortran-order buffer, which numpy's QR
    reads column by column without a transpose copy.  Row i counts
    ``weights[i]`` times, as if repeated (once each without weights): the
    buffer holds the rows scaled by sqrt(weights) for the one QR.

    Raises
    ------
    SingularDesignError
        If a column lies within ``RANK_TOL`` (the sine of the angle) of the
        span of the columns before it, the first column only if it is zero;
        the error names every such column, in design order.
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
    weights = frequency_weights(weights, n)
    root_w = np.sqrt(weights)
    xy = np.empty((n, p + 1), order="F")
    x = np.multiply(x, root_w[:, None], out=xy[:, :p])
    y = np.multiply(y, root_w, out=xy[:, p])
    total = float(weights.sum())

    # one QR of [x | y]: R is the top-left p x p block, Q^T y its last column
    r_xy = np.linalg.qr(xy, mode="r")
    r, qty = r_xy[:p, :p], r_xy[:p, p]
    # hypot: no column norm overflows, whatever the column's scale
    singular = ~(np.abs(np.diagonal(r)) > RANK_TOL * np.hypot.reduce(r, axis=0))
    if singular.any():
        offending = tuple(nm for nm, flag in zip(names, singular) if flag)
        raise SingularDesignError(
            f"singular design: columns {list(offending)} depend on the columns "
            f"before them (tolerance {RANK_TOL:g})",
            columns=offending,
        )
    # an upper-triangular R needs no row swaps: this is back substitution
    theta = np.linalg.solve(r, qty)
    resid = y - x @ theta
    rss = sum_of_squares(resid)
    theta.setflags(write=False)
    return LinearFit(theta=theta, sigma=math.sqrt(rss / total),
                     n=int(total) if total.is_integer() else total, rss=rss, names=names)


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


def outcome_terms(z, g, phi, lam, z_phi=None, g_lam=None):
    """The outcome polynomial's terms, in the order of its names.

    ``z``, ``g``, ``phi`` and ``lam`` are the :func:`powers` of each
    treatment and score, per unit or as unit means.  A product term is the
    product of its factors' first powers, which is also its unit mean
    wherever one factor is the same for every unit; otherwise the caller
    passes the product's unit mean as ``z_phi`` or ``g_lam``.  theta . terms
    is then the imputed outcome, or its unit average.  With ``g`` None (no
    exposure) the polynomial has no g or lambda terms, and ``lam`` and
    ``g_lam`` are ignored.
    """
    terms = [*z, *phi, z[0] * phi[0] if z_phi is None else z_phi]
    if g is not None:
        terms += [*g, *lam, g[0] * lam[0] if g_lam is None else g_lam, z[0] * g[0]]
    return [*terms, 1.0]


def outcome_value(theta, terms):
    """theta . terms, summed in term order."""
    return sum(t * term for t, term in zip(theta, terms, strict=True))


def build_outcome_matrix(z, g, phi, lam):
    """Stacked outcome-model design rows for vector inputs (scalars
    broadcast), filled into one Fortran-order array: one column per
    :func:`outcome_terms` term, named by ``WITH_INTERFERENCE_TERMS``, or by
    ``WITHOUT_INTERFERENCE_TERMS`` when ``g`` is None (``lam`` is then
    ignored).
    """
    inputs = {"z": z, "phi": phi}
    if g is not None:
        inputs.update({"g": g, "lambda": lam})
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in inputs.values()))
    for label, arr in zip(inputs, arrays):
        if not np.all(np.isfinite(arr)):
            raise InputError(f"non-finite {label} in outcome design")
    z, phi, *g_lam = arrays
    g_powers, lam_powers = (powers(g_lam[0]), powers(g_lam[1])) if g_lam else (None, None)
    terms = outcome_terms(powers(z), g_powers, powers(phi), lam_powers)
    names = WITH_INTERFERENCE_TERMS if g_lam else WITHOUT_INTERFERENCE_TERMS
    x = np.empty((z.size, len(terms)), order="F")
    for j, term in enumerate(terms):
        x[:, j] = np.ravel(term)
    return x, names
