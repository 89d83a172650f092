"""Joint propensity-score pipeline for continuous treatments under interference.

The estimation procedure has five stages: fit the Gaussian treatment models
(individual treatment on its covariates after a zero-skewness power
transform; neighborhood treatment on its covariates plus the individual
treatment), evaluate both propensity scores at the observed treatments, fit
the polynomial outcome model on treatments and scores, impute per-unit
potential outcomes over a (z, g) grid under counterfactual scores, and
average over units.  Marginal curves average the per-unit imputations over
the observed distribution of the other treatment.

The outcome model is linear in its coefficients and no term mixes the two
scores, so every imputed average (a surface cell, a point of a marginal
curve, the naive curve) is theta . the unit means of the outcome terms
(:func:`netjps.linear_model.outcome_terms` is the polynomial's one
definition).  Grid imputation therefore forms only unit sums of score
powers, accumulated over blocks of units sized from the grid by an
element budget (:func:`_unit_block`), so its working memory is
O(max(``BLOCK_ELEMENTS``, (n_z + n_g) * ``UNIT_BLOCK``)) whatever the
panel's size.  The surface's neighborhood-score sums factor into products
over the units, which take O((n_z + n_g) * n) exps where a direct
evaluation takes one per unit and cell.  Every contraction over units sums
in one fixed order whatever the BLAS thread count: a curve's is a set of
BLAS dot products (``np.vecdot``) of at most one block, and so at most
``DOT_BLOCK``, terms each, and a surface tile's an in-order sum of matrix
products (``np.matmul``) small enough for OpenBLAS to run each on one
thread (``GEMM_ONE_THREAD``).

Every stage runs one weighted arithmetic on the dataset's frequency
weights, which are 1 for each row unless given: the Box-Cox root and the
OLS fits through their ``weights``, and every unit mean of imputation as
sum_i w_i x_i / sum_i w_i.  The point estimate and each bootstrap replicate
therefore run the same code.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.ma  # noqa: F401  lazy in numpy, loaded by np.percentile: load it at import

from .errors import DegenerateExposureError, DomainError, InputError
from .linear_model import (
    DOT_BLOCK,
    GEMM_ONE_THREAD,
    LinearFit,
    build_outcome_matrix,
    fit_ols,
    normal_density,
    outcome_terms,
    outcome_value,
    powers,
    weighted_mean,
)
from .transforms import BoxCoxFit, boxcox_apply, boxcox_zero_skew


@dataclass(frozen=True)
class GridPolicy:
    """Evaluation grid: equispaced between empirical percentiles by default,
    or explicit values when given."""

    n_z: int = 20
    n_g: int = 20
    lower_pct: float = 5.0
    upper_pct: float = 95.0
    z_values: tuple | None = None
    g_values: tuple | None = None

    def __post_init__(self):
        if not self.lower_pct < self.upper_pct:
            raise InputError("grid lower_pct must be below upper_pct")

    def resolve(self, dataset, g_obs=None):
        """The z grid on ``dataset``, and the g grid on ``g_obs`` if given.
        Empirical percentiles count each row once, so a panel whose weights
        are not all 1 (a bootstrap replicate) needs explicit grid values."""
        weighted = bool(np.any(dataset.weights != 1))
        z_grid = self._axis(self.z_values, self.n_z, dataset.z, "z", weighted)
        g_grid = None
        if g_obs is not None:
            g_grid = self._axis(self.g_values, self.n_g, g_obs, "g", weighted)
        return z_grid, g_grid

    def _axis(self, explicit, n, obs, label, weighted):
        if explicit is not None:
            grid = np.asarray(explicit, dtype=float)
        elif weighted:
            raise InputError(f"a weighted panel needs explicit {label} grid values")
        else:
            lo, hi = np.percentile(obs, [self.lower_pct, self.upper_pct])
            grid = np.linspace(lo, hi, n)
        if grid.size == 0:
            raise InputError(f"empty {label} grid")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise InputError(f"{label} grid must be strictly increasing")
        return grid


def outside_support(grid, obs):
    """Whether the increasing ``grid`` reaches below or above ``obs``."""
    return grid[0] < np.min(obs) or grid[-1] > np.max(obs)


@dataclass(frozen=True)
class JpsConfig:
    """Covariate bindings and grid policy for one estimation run, and where
    the Box-Cox root search starts: None for the cold bracket, or a nearby
    root's k (a bootstrap replicate gets the full panel's)."""

    x_z: tuple
    x_g: tuple
    grid: GridPolicy = field(default_factory=GridPolicy)
    boxcox_start: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "x_z", tuple(self.x_z))
        object.__setattr__(self, "x_g", tuple(self.x_g))


@dataclass(frozen=True)
class GpsFit:
    """Fitted treatment models: the transform, Z*-model and G-model; the
    no-interference estimator has none of the last (``g_model`` None)."""

    boxcox: BoxCoxFit
    z_model: LinearFit
    g_model: LinearFit | None

    @property
    def x_z(self):
        """The individual-treatment covariates: the Z*-design is (const, *x_z)."""
        return self.z_model.names[1:]

    @property
    def x_g(self):
        """The neighborhood-treatment covariates: the G-design is (const, *x_g, z)."""
        return self.g_model.names[1:-1]


@dataclass(frozen=True)
class PropensityScores:
    """Gaussian density values of both scores at the observed treatments.

    :func:`predict_scores` also keeps the per-unit conditional means it
    evaluated them at, the Z* mean and the part of the G mean without the
    individual treatment (``base_g``), for imputation to reuse.  Without a
    G-model ``lam`` and ``base_g`` are None.
    """

    phi: np.ndarray
    lam: np.ndarray | None
    mean_zstar: np.ndarray | None = None
    base_g: np.ndarray | None = None

    def __post_init__(self):
        for arr, label in ((self.phi, "individual"), (self.lam, "neighborhood")):
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
                raise DomainError(f"{label} propensity scores must be positive and finite")


@dataclass
class DrfGrid:
    """Imputed dose-response surface and marginals.

    ``surface[iz, ig]`` averages the imputed potential outcomes at
    (z_grid[iz], g_grid[ig]); a z-only grid (the no-interference estimator)
    has ``g_grid``/``surface``/``marginal_g`` set to None.  Non-finite
    surface cells and marginal entries are set to NaN here, and the
    surface's are listed in ``meta["flagged_cells"]``, its last key (empty
    without a surface).  Neither is logged: the bootstrap builds a grid per
    replicate, so the CLI logs a point estimate's flags.
    """

    z_grid: np.ndarray
    g_grid: np.ndarray | None
    surface: np.ndarray | None
    marginal_z: np.ndarray
    marginal_g: np.ndarray | None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for label, grid in (("z", self.z_grid), ("g", self.g_grid)):
            if grid is not None and grid.size > 1 and not np.all(np.diff(grid) > 0):
                raise InputError(f"{label} grid must be strictly increasing")
        shape = None if self.g_grid is None else (self.z_grid.size, self.g_grid.size)
        if self.surface is not None and self.surface.shape != shape:
            raise InputError("surface dimensions must match the grids")
        for name in ("surface", "marginal_z", "marginal_g"):
            values = getattr(self, name)
            if values is not None and not np.all(np.isfinite(values)):
                setattr(self, name, np.where(np.isfinite(values), values, np.nan))
        flagged = [] if self.surface is None else np.argwhere(np.isnan(self.surface)).tolist()
        self.meta = {**self.meta, "flagged_cells": [tuple(cell) for cell in flagged]}

    @property
    def estimator(self):
        """"joint", or "naive" for a z-only grid: the name a log line gives."""
        return "joint" if self.g_grid is not None else "naive"


def finite_argmax(values):
    """Index of the largest finite entry of ``values``, or None if none is.

    ``np.argmax`` ranks NaN above every number, so on a curve with flagged
    entries it would name a flagged grid point the optimum.
    """
    finite = np.isfinite(values)
    return int(np.argmax(np.where(finite, values, -np.inf))) if finite.any() else None


@dataclass(frozen=True)
class TreatmentDesigns:
    """The arrays stage 1 fits on one dataset and stage 2 evaluates the
    scores with: the transformed treatment z*, the Z*-design (const, *x_z)
    and the G-design (const, *x_g, z), None without a G-model."""

    zstar: np.ndarray
    xz: np.ndarray
    xg: np.ndarray | None = None


def _design(dataset, names, z=None):
    """The design (const, *names), with the treatment ``z`` as its last
    column if given, filled into one Fortran-order array; and its column
    names."""
    cols = ("const", *names) if z is None else ("const", *names, "z")
    x = np.empty((dataset.n, len(cols)), order="F")
    x[:, 0] = 1.0
    dataset.covariate_matrix(names, out=x[:, 1:len(names) + 1])
    if z is not None:
        x[:, -1] = z
    return x, cols


def _fit_z_model(dataset, config):
    """The individual-treatment model of both estimators: the zero-skewness
    Box-Cox root, searched from ``config.boxcox_start``, and the OLS fit of
    Z* on (const, *x_z).  Returns the transform, the fit, z* and the design."""
    bc, zstar = boxcox_zero_skew(dataset.z, dataset.weights, config.boxcox_start)
    xz, names_z = _design(dataset, config.x_z)
    return bc, fit_ols(xz, zstar, names=names_z, weights=dataset.weights), zstar, xz


def fit_treatment_models(dataset, config):
    """Stage 1: Gaussian models for both treatments, and the
    :class:`TreatmentDesigns` they were fitted on, for stage 2.

    The individual treatment is transformed to zero skewness first; the
    neighborhood-treatment design always includes the individual treatment.
    """
    g = dataset.require_g()
    if np.ptp(g) == 0:
        raise DegenerateExposureError(
            "all exposures identical; the joint model is unidentified - "
            "use the no-interference estimator (variant = naive)"
        )
    bc, z_model, zstar, xz = _fit_z_model(dataset, config)
    xg, names_g = _design(dataset, config.x_g, dataset.z)
    g_model = fit_ols(xg, g, names=names_g, weights=dataset.weights)
    gps = GpsFit(boxcox=bc, z_model=z_model, g_model=g_model)
    return gps, TreatmentDesigns(zstar=zstar, xz=xz, xg=xg)


def predict_scores(gps, dataset, designs):
    """Stage 2: both scores evaluated at each unit's observed treatments,
    with the per-unit conditional means they are evaluated at: the Z* mean
    and base_g, the G mean without its beta_gz * z term.  Without a G-model
    there is only the individual score.

    ``designs`` are the :class:`TreatmentDesigns` that stage 1 returned on
    this dataset.

    The individual score is the Gaussian density of the transformed
    treatment (no Jacobian back to the raw scale: the score only enters the
    outcome model as a balancing covariate).
    """
    if gps.z_model.sigma <= 0:
        raise DomainError("individual-treatment residual scale is zero; scores degenerate")
    mean_zstar = designs.xz @ gps.z_model.theta
    phi = normal_density(designs.zstar, mean_zstar, gps.z_model.sigma)
    if gps.g_model is None:
        return PropensityScores(phi=phi, lam=None, mean_zstar=mean_zstar)
    if gps.g_model.sigma <= 0:
        raise DomainError("neighborhood-treatment residual scale is zero; scores degenerate")
    base_g = designs.xg[:, :-1] @ gps.g_model.theta[:-1]
    lam = normal_density(dataset.require_g(), base_g + gps.g_model.coef("z") * dataset.z,
                         gps.g_model.sigma)
    return PropensityScores(phi=phi, lam=lam, mean_zstar=mean_zstar, base_g=base_g)


def fit_outcome(dataset, scores):
    """Stage 3: polynomial outcome model on treatments and scores; without
    a neighborhood score, the polynomial without g and lambda terms."""
    g = None if scores.lam is None else dataset.require_g()
    x, names = build_outcome_matrix(dataset.z, g, scores.phi, scores.lam)
    return fit_ols(x, dataset.y, names=names, weights=dataset.weights)


# Units per block of every unit sum in grid imputation (:func:`_unit_block`):
# at least UNIT_BLOCK, and as many more as keep (n_z + n_g) * block within
# the element budget BLOCK_ELEMENTS, so a 60 x 60 grid keeps 512-unit
# blocks and a smaller grid sums in fewer, longer ones.  A block of b units
# fills two (n_z, b) and two (n_g, b) buffers, so the budget bounds
# imputation's working memory; on a grid of more than 120 points the floor
# does.  The block also bounds the length of every np.vecdot contraction,
# which numpy runs as one BLAS ddot per output value for float64, so the
# output's bits do not depend on the BLAS thread count as long as the block
# is at most DOT_BLOCK.  A surface tile's contraction is cut further, into
# matrix products of at most GEMM_ONE_THREAD multiply-adds
# (:func:`_unit_products`).
UNIT_BLOCK = 512
BLOCK_ELEMENTS = 120 * UNIT_BLOCK

# A surface tile spans at most h = this many sigma_g either side of its
# centre, in base_g and in g.  At the third power of the score its factors
# and the largest of their products in each cell then stay within
# exp(+-3 * (h^2 / 2 + h^2)) = exp(+-600), inside the normal float range
# (exp underflows below -708).
_TILE_HALF_WIDTH = (600.0 / 4.5) ** 0.5


def _runs(values, span, max_len):
    """Consecutive slices of sorted ``values``, each at most ``max_len``
    long and at most ``span`` wide; a single value is always a run."""
    start = 0
    while start < values.size:
        stop = min(np.searchsorted(values, values[start] + span, side="right"), start + max_len)
        yield slice(start, stop)
        start = stop


def _peak_powers(sd):
    """(c, c^2, c^3) for the Gaussian density's normalizer c = sd sqrt(2 pi):
    they turn unit sums of exp(-u^2 / 2)^k into sums of the density^k."""
    peak = sd * math.sqrt(2.0 * math.pi)
    return np.array([peak, peak * peak, peak * peak * peak])


def _unit_block(nz, ng):
    """Units per imputation block on an n_z x n_g grid (n_g = 0 for a
    z-only one): as many as ``BLOCK_ELEMENTS`` allows, at least
    ``UNIT_BLOCK`` and at most ``DOT_BLOCK``."""
    return min(DOT_BLOCK, max(UNIT_BLOCK, BLOCK_ELEMENTS // (nz + ng)))


def _block_buffers(rows, n, block):
    """The two (rows, block) arrays that every block of n units writes its
    grid axis's values into, allocated once per imputation call; their
    width is the block length of every unit sum that uses them."""
    return np.empty((2, rows, min(n, block)))


def _unit_products(a, b, out, scratch):
    """``out = a @ b.T`` for a (rows, n) ``a`` and a (cols, n) ``b``, summed
    over n in order: ``np.matmul`` blocks of at most ``DOT_BLOCK`` columns
    and ``GEMM_ONE_THREAD`` multiply-adds, each one a single-threaded BLAS
    call, so the bits do not depend on the BLAS thread count.  Every block
    after the first is formed in ``scratch``, an array of out's shape, and
    added to ``out``.  On a grid of more than ``GEMM_ONE_THREAD`` cells a
    block is one unit: one product per cell, with no sum to order.
    """
    rows, cols = out.shape
    step = max(1, min(DOT_BLOCK, GEMM_ONE_THREAD // (rows * cols)))
    np.matmul(a[:, :step], b[:, :step].T, out=out)
    for lo in range(step, a.shape[1], step):
        out += np.matmul(a[:, lo:lo + step], b[:, lo:lo + step].T, out=scratch)
    return out


def _density_means(x, means, sd, buffers, weights, factor=None):
    """Unit means of N(x_j; means_i, sd)^k for k = 1, 2, 3, and of
    factor_i * N(x_j; means_i, sd) when ``factor`` is given: the rows of a
    (3 or 4, x.size) array, weighted by the units' frequency ``weights``.
    The densities are formed one block of units at a time in ``buffers``
    (:func:`_block_buffers`), as wide as the block, and each row's sum over
    a block is one ddot with the block's weights, so a fixed sum order.
    """
    n = means.size
    dens, pw = buffers
    block = dens.shape[1]
    sums = np.zeros((3 if factor is None else 4, x.size))
    if factor is not None:
        factor = factor * weights
    for lo in range(0, n, block):
        units = slice(lo, min(lo + block, n))
        m = units.stop - lo
        w = weights[units]
        d = np.subtract(x[:, None], means[units], out=dens[:, :m])
        d *= d
        d *= -0.5 / (sd * sd)
        np.exp(d, out=d)
        p = np.multiply(d, d, out=pw[:, :m])
        sums[0] += np.vecdot(d, w)
        sums[1] += np.vecdot(p, w)
        sums[2] += np.vecdot(np.multiply(p, d, out=p), w)
        if factor is not None:
            sums[3] += np.vecdot(d, factor[units])
    peaks = _peak_powers(sd)
    sums[:3] /= peaks[:, None]
    sums[3:] /= peaks[0]
    return sums / weights.sum()


def _phi_means(z_grid, boxcox_k, mean_zstar, sigma_z, buffers, weights):
    """Unit means of phi_i(z)^k, k = 1, 2, 3, at each z: the individual-score
    part of the joint surface, of its z-marginal and of the naive curve."""
    return _density_means(boxcox_apply(z_grid, boxcox_k), mean_zstar, sigma_z, buffers,
                          weights)


def _lambda_means(z_grid, g_grid, base_g, beta, sigma, z_buffers, g_buffers, weights):
    """Unit means of lambda_i^k = N(g; base_g_i + beta * z, sigma)^k for
    k = 1, 2, 3 at each grid cell, as a (3, n_z, n_g) array, without one
    exp per unit and cell.

    Units sorted by base_g and the g grid are cut into runs no wider than
    2 * ``_TILE_HALF_WIDTH`` * sigma, the unit runs also no longer than
    the buffers' block; a tile pairs one of each, measured from its own
    centres.  Within a tile, b_i is the unit's base_g and y the cell's g
    from those centres, and d_i = base_g_i + beta * z - (g centre).  The
    exponent -(y - d_i)^2 / 2 sigma^2 then splits into a (z, unit) factor
    U = exp(-(d_i^2 - d*^2) / 2 sigma^2), a (unit, g) factor
    V = exp(y b_i / sigma^2) and a (z, g) exponent e.  Each z-row takes as
    d* the d of the point b* of the tile's base_g interval that is closest
    to 0, so U <= 1, V stays within exp(+-h^2) and each cell's largest
    U * V above exp(-1.5 h^2), h = ``_TILE_HALF_WIDTH``.  The tile's sum
    over units is exp(k e + log(U^k V^k.T)): e is added as an exponent,
    so a cell keeps every value the direct exp keeps, and one far from
    every unit of the tile gets exactly 0 there without touching the other
    rows.  The products U^k V^k.T are matrix products summed over the
    tile's units by :func:`_unit_products`, whose order does not depend on
    the BLAS thread count.  U and V are written into the z-axis and g-axis
    :func:`_block_buffers`.  A unit's frequency weight multiplies its V
    factor.
    """
    order = np.argsort(base_g)
    b_sorted, w_sorted = base_g[order], weights[order]
    nz, ng = z_grid.size, g_grid.size
    span = 2.0 * _TILE_HALF_WIDTH * sigma
    var = sigma * sigma
    sums = np.zeros((3, nz, ng))
    u, u_pow = z_buffers
    v, v_pow = g_buffers
    prod, scratch = np.empty((3, nz, ng)), np.empty((nz, ng))
    powers_k = np.array([1.0, 2.0, 3.0])[:, None, None]
    for units in _runs(b_sorted, span, u.shape[1]):
        b_mid = 0.5 * (b_sorted[units.start] + b_sorted[units.stop - 1])
        b = b_sorted[units] - b_mid
        m = b.size
        for cells in _runs(g_grid, span, ng):
            g_mid = 0.5 * (g_grid[cells.start] + g_grid[cells.stop - 1])
            y = g_grid[cells] - g_mid
            nc = y.size
            d_row = b_mid + beta * z_grid - g_mid
            b_star = np.clip(-d_row, b[0], b[-1])
            d_star = d_row + b_star
            # d_i^2 - d*^2 = (b_i - b*)(d_i + d*), with no cancellation
            uu, ut = u[:, :m], u_pow[:, :m]
            np.subtract(b, b_star[:, None], out=uu)
            uu *= np.add(b, (d_star + d_row)[:, None], out=ut)
            uu *= -0.5 / var
            np.exp(uu, out=uu)
            vv, vt = v[:nc, :m], v_pow[:nc, :m]
            np.multiply((y / var)[:, None], b, out=vv)
            np.exp(vv, out=vv)
            gap = y - d_star[:, None]
            e = -0.5 * (gap * gap + 2.0 * y * b_star[:, None]) / var
            uk, out = uu, prod[:, :, :nc]
            vk = np.multiply(vv, w_sorted[units], out=vt)
            for k in range(3):
                if k:
                    uk = np.multiply(uk, uu, out=ut)
                    vk = np.multiply(vk, vv, out=vt)
                _unit_products(uk, vk, out[k], scratch[:, :nc])
            sums[:, :, cells] += np.exp(powers_k * e + np.log(out))
    return sums / _peak_powers(sigma)[:, None, None] / weights.sum()


def impute_drf(gps, scores, outcome, dataset, grid):
    """Stages 4-5: counterfactual scores, per-unit imputation, unit averages.

    For every grid pair (z, g) each unit's scores are re-evaluated at that
    treatment level.  The outcome model is linear in theta and no term
    mixes the two scores, so every output is theta . the unit means of the
    outcome terms (:func:`netjps.linear_model.outcome_terms`), and only
    unit means of score powers are computed, summed one block of units at a
    time:

    - a surface cell averages over units at a shared (z, g), so it needs
      the means of phi_i(z)^k and of lambda_i(g | z)^k; the latter come
      from :func:`_lambda_means` as matrix products, not one exp per unit
      and cell;
    - mu_z(z) averages Y_i(z, G_i) and mu_g(g) averages Y_i(Z_i, g), each
      unit at its own observed value of the other treatment: they need the
      means of the counterfactual scores' powers per grid point, of
      G_i * lambda_i(G_i | z), and of the observed-treatment terms.  The
      g-marginal takes each unit's individual score at its observed
      treatment from ``scores`` (stage 2).

    The per-unit conditional means come from ``scores``, as
    :func:`predict_scores` leaves them.
    """
    if scores.mean_zstar is None or scores.base_g is None or scores.base_g.size != dataset.n:
        raise InputError("imputation needs the scores that predict_scores gives on this dataset")
    g_obs, weights = dataset.require_g(), dataset.weights
    z_grid, g_grid = grid.resolve(dataset, g_obs)
    mean_zstar, base_g, beta_gz = scores.mean_zstar, scores.base_g, gps.g_model.coef("z")
    sigma_z, sigma_g = gps.z_model.sigma, gps.g_model.sigma
    n, nz, ng = dataset.n, z_grid.size, g_grid.size
    theta = outcome.theta

    block = _unit_block(nz, ng)
    z_buffers, g_buffers = _block_buffers(nz, n, block), _block_buffers(ng, n, block)
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _phi_means(z_grid, gps.boxcox.k, mean_zstar, sigma_z, z_buffers, weights)
        # lambda_i(G_i | z) = N(beta * z; G_i - base_g_i, sigma_g)
        lam_z = _density_means(beta_gz * z_grid, g_obs - base_g, sigma_g, z_buffers, weights,
                               factor=g_obs)
        lam_g = _density_means(g_grid, base_g + beta_gz * dataset.z, sigma_g, g_buffers,
                               weights)
        lam = _lambda_means(z_grid, g_grid, base_g, beta_gz, sigma_g, z_buffers, g_buffers,
                            weights)
        surface = outcome_value(theta, outcome_terms(
            powers(z_grid[:, None]), powers(g_grid), tuple(phi[:, :, None]), tuple(lam)))
        g_means = tuple(weighted_mean(t, weights) for t in powers(g_obs))
        marginal_z = outcome_value(theta, outcome_terms(
            powers(z_grid), g_means, tuple(phi), tuple(lam_z[:3]), g_lam=lam_z[3]))
        z_means = tuple(weighted_mean(t, weights) for t in powers(dataset.z))
        phi_obs = tuple(weighted_mean(t, weights) for t in powers(scores.phi))
        marginal_g = outcome_value(theta, outcome_terms(
            z_means, powers(g_grid), phi_obs, tuple(lam_g),
            z_phi=weighted_mean(dataset.z * scores.phi, weights)))

    meta = {
        "n": n,
        "variant": "with_interference",
        "grid": {"n_z": nz, "n_g": ng, "lower_pct": grid.lower_pct, "upper_pct": grid.upper_pct},
    }
    return DrfGrid(
        z_grid=z_grid, g_grid=g_grid, surface=surface,
        marginal_z=marginal_z, marginal_g=marginal_g, meta=meta,
    )


@dataclass(frozen=True)
class ContrastSpec:
    """Requested pairwise contrasts on the marginal curves."""

    z_pairs: tuple = ()
    g_pairs: tuple = ()


@dataclass
class EffectReport:
    """Contrasts delta(a, a') = mu(a) - mu(a') and central-difference derivatives."""

    z_grid: np.ndarray
    dz: np.ndarray
    g_grid: np.ndarray | None
    dg: np.ndarray | None
    direct: tuple
    spillover: tuple


def _interp(grid, curve, v, label):
    if v < grid[0] or v > grid[-1]:
        raise InputError(f"{label} contrast point {v:g} outside grid hull [{grid[0]:g}, {grid[-1]:g}]")
    return float(np.interp(v, grid, curve))


def _finite_diff(grid, curve):
    d = np.empty_like(curve)
    if curve.size == 1:
        d[:] = np.nan
        return d
    d[0] = (curve[1] - curve[0]) / (grid[1] - grid[0])
    d[-1] = (curve[-1] - curve[-2]) / (grid[-1] - grid[-2])
    if curve.size > 2:
        d[1:-1] = (curve[2:] - curve[:-2]) / (grid[2:] - grid[:-2])
    return d


def effects(drf, spec=ContrastSpec()):
    """Direct and spillover effects from a fitted dose-response grid."""
    direct = tuple(
        (a, b, _interp(drf.z_grid, drf.marginal_z, a, "z") - _interp(drf.z_grid, drf.marginal_z, b, "z"))
        for a, b in spec.z_pairs
    )
    dz = _finite_diff(drf.z_grid, drf.marginal_z)
    if drf.marginal_g is not None:
        spill = tuple(
            (a, b, _interp(drf.g_grid, drf.marginal_g, a, "g") - _interp(drf.g_grid, drf.marginal_g, b, "g"))
            for a, b in spec.g_pairs
        )
        dg = _finite_diff(drf.g_grid, drf.marginal_g)
    else:
        if spec.g_pairs:
            raise InputError("spillover contrasts requested but no neighborhood marginal available")
        spill, dg = (), None
    return EffectReport(z_grid=drf.z_grid, dz=dz, g_grid=drf.g_grid, dg=dg,
                        direct=direct, spillover=spill)


@dataclass
class JpsResult:
    """Every stage's output of one run of either estimator."""

    gps: GpsFit
    scores: PropensityScores
    outcome: LinearFit
    drf: DrfGrid


def run_jps(dataset, config):
    """Stages 1-5 in sequence."""
    gps, designs = fit_treatment_models(dataset, config)
    scores = predict_scores(gps, dataset, designs)
    outcome = fit_outcome(dataset, scores)
    drf = impute_drf(gps, scores, outcome, dataset, config.grid)
    return JpsResult(gps=gps, scores=scores, outcome=outcome, drf=drf)


def run_naive(dataset, config):
    """No-interference pipeline: stages 1-3 without a G-model, so with no
    exposure and no neighborhood score anywhere, then the z-curve imputed
    from the individual score alone.

    The individual-treatment model is fitted exactly as in
    :func:`fit_treatment_models`.
    """
    bc, z_model, zstar, xz = _fit_z_model(dataset, config)
    gps = GpsFit(boxcox=bc, z_model=z_model, g_model=None)
    scores = predict_scores(gps, dataset, TreatmentDesigns(zstar=zstar, xz=xz))
    outcome = fit_outcome(dataset, scores)
    z_grid, _ = config.grid.resolve(dataset)
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _phi_means(z_grid, gps.boxcox.k, scores.mean_zstar, gps.z_model.sigma,
                         _block_buffers(z_grid.size, dataset.n, _unit_block(z_grid.size, 0)),
                         dataset.weights)
        marginal_z = outcome_value(outcome.theta, outcome_terms(
            powers(z_grid), None, tuple(phi), None))
    drf = DrfGrid(
        z_grid=z_grid, g_grid=None, surface=None,
        marginal_z=marginal_z, marginal_g=None,
        meta={"n": dataset.n, "variant": "without_interference", "grid": {"n_z": z_grid.size}},
    )
    return JpsResult(gps=gps, scores=scores, outcome=outcome, drf=drf)
