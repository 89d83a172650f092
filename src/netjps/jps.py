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
powers, accumulated over blocks of ``UNIT_BLOCK`` units, so its working
memory is O((n_z + n_g) * UNIT_BLOCK) whatever the panel's size.  The
surface's neighborhood-score sums factor into products over the units,
which take O((n_z + n_g) * n) exps where a direct evaluation takes one per
unit and cell.  Every contraction over units is a set of BLAS dot products
(``np.vecdot``) of at most ``UNIT_BLOCK`` terms each, so each output sums
in one fixed order whatever the BLAS thread count.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateExposureError, DomainError, InputError
from .linear_model import (
    LinearFit,
    build_outcome_matrix,
    fit_ols,
    normal_density,
    outcome_terms,
    outcome_value,
    powers,
)
from .transforms import BoxCoxFit, boxcox_apply, boxcox_zero_skew

logger = logging.getLogger(__name__)


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

    def resolve(self, z_obs, g_obs=None):
        z_grid = self._axis(self.z_values, self.n_z, z_obs, "z")
        g_grid = None
        if g_obs is not None:
            g_grid = self._axis(self.g_values, self.n_g, g_obs, "g")
        return z_grid, g_grid

    def _axis(self, explicit, n, obs, label):
        if explicit is not None:
            grid = np.asarray(explicit, dtype=float)
        else:
            lo, hi = np.percentile(obs, [self.lower_pct, self.upper_pct])
            grid = np.linspace(lo, hi, n)
        if grid.size == 0:
            raise InputError(f"empty {label} grid")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise InputError(f"{label} grid must be strictly increasing")
        if grid[0] < np.min(obs) or grid[-1] > np.max(obs):
            logger.warning(
                "%s grid [%g, %g] extends outside the observed support [%g, %g]",
                label, grid[0], grid[-1], np.min(obs), np.max(obs),
            )
        return grid


@dataclass(frozen=True)
class JpsConfig:
    """Covariate bindings and grid policy for one estimation run."""

    x_z: tuple
    x_g: tuple
    grid: GridPolicy = field(default_factory=GridPolicy)

    def __post_init__(self):
        object.__setattr__(self, "x_z", tuple(self.x_z))
        object.__setattr__(self, "x_g", tuple(self.x_g))


@dataclass(frozen=True)
class GpsFit:
    """Fitted treatment models: the transform, Z*-model and G-model."""

    boxcox: BoxCoxFit
    z_model: LinearFit
    g_model: LinearFit
    x_z: tuple
    x_g: tuple

    def __post_init__(self):
        if self.g_model.names != ("const", *self.x_g, "z"):
            raise InputError(
                "neighborhood-treatment design must be (const, *x_g, z); "
                f"got {self.g_model.names}"
            )
        if self.z_model.names != ("const", *self.x_z):
            raise InputError(
                f"individual-treatment design must be (const, *x_z); got {self.z_model.names}"
            )


@dataclass(frozen=True)
class PropensityScores:
    """Gaussian density values of both scores at the observed treatments.

    :func:`predict_scores` also keeps the per-unit conditional means it
    evaluated them at, the Z* mean and the part of the G mean without the
    individual treatment (``base_g``), for :func:`impute_drf` to reuse.
    """

    phi: np.ndarray
    lam: np.ndarray
    mean_zstar: np.ndarray | None = None
    base_g: np.ndarray | None = None

    def __post_init__(self):
        for arr, label in ((self.phi, "individual"), (self.lam, "neighborhood")):
            arr = np.asarray(arr, dtype=float)
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
                raise DomainError(f"{label} propensity scores must be positive and finite")


@dataclass(frozen=True)
class OutcomeFit:
    fit: LinearFit
    variant: str


@dataclass
class DrfGrid:
    """Imputed dose-response surface and marginals.

    ``surface[iz, ig]`` averages the imputed potential outcomes at
    (z_grid[iz], g_grid[ig]); a z-only grid (the no-interference estimator)
    has ``g_grid``/``surface``/``marginal_g`` set to None.  Non-finite
    surface cells are NaN, listed in ``meta["flagged_cells"]``; non-finite
    marginal entries are set to NaN here, with a warning.
    """

    z_grid: np.ndarray
    g_grid: np.ndarray | None
    surface: np.ndarray | None
    marginal_z: np.ndarray
    marginal_g: np.ndarray | None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.z_grid.size > 1 and not np.all(np.diff(self.z_grid) > 0):
            raise InputError("z grid must be strictly increasing")
        if self.g_grid is not None:
            if self.g_grid.size > 1 and not np.all(np.diff(self.g_grid) > 0):
                raise InputError("g grid must be strictly increasing")
            if self.surface is not None and self.surface.shape != (
                self.z_grid.size,
                self.g_grid.size,
            ):
                raise InputError("surface dimensions must match the grids")
        for name in ("marginal_z", "marginal_g"):
            curve = getattr(self, name)
            if curve is not None and not np.all(np.isfinite(curve)):
                logger.warning("%d non-finite %s entries flagged", np.sum(~np.isfinite(curve)), name)
                setattr(self, name, np.where(np.isfinite(curve), curve, np.nan))


def finite_argmax(values):
    """Index of the largest finite entry of ``values``, or None if none is.

    ``np.argmax`` ranks NaN above every number, so on a curve with flagged
    entries it would name a flagged grid point the optimum.
    """
    finite = np.isfinite(values)
    return int(np.argmax(np.where(finite, values, -np.inf))) if finite.any() else None


def _design(dataset, names):
    mat = dataset.covariate_matrix(list(names))
    return np.column_stack([np.ones(dataset.n), mat]), ("const", *names)


def _fit_z_model(dataset, x_z):
    """The individual-treatment model of both estimators: the zero-skewness
    Box-Cox root and the OLS fit of Z* on (const, *x_z)."""
    bc, zstar = boxcox_zero_skew(dataset.z)
    xz, names_z = _design(dataset, x_z)
    return bc, fit_ols(xz, zstar, names=names_z)


def _zstar_mean(z_model, dataset):
    """Per-unit conditional mean of Z*, after the model's scale is checked."""
    if z_model.sigma <= 0:
        raise DomainError("individual-treatment residual scale is zero; scores degenerate")
    xz, _ = _design(dataset, z_model.names[1:])
    return xz @ z_model.theta


def fit_treatment_models(dataset, config):
    """Stage 1: Gaussian models for both treatments.

    The individual treatment is transformed to zero skewness first; the
    neighborhood-treatment design always includes the individual treatment.
    """
    g = dataset.require_g()
    if np.ptp(g) == 0:
        raise DegenerateExposureError(
            "all exposures identical; the joint model is unidentified - "
            "use the no-interference estimator (variant = naive)"
        )
    bc, z_model = _fit_z_model(dataset, config.x_z)
    xg, names_g = _design(dataset, config.x_g)
    g_model = fit_ols(np.column_stack([xg, dataset.z]), g, names=(*names_g, "z"))
    return GpsFit(boxcox=bc, z_model=z_model, g_model=g_model,
                  x_z=tuple(config.x_z), x_g=tuple(config.x_g))


def _score_parts(gps, dataset):
    """Per-unit conditional means of both treatment models: the Z* mean and
    base_g, the G mean without its beta_gz * z term."""
    mean_zstar = _zstar_mean(gps.z_model, dataset)
    if gps.g_model.sigma <= 0:
        raise DomainError("neighborhood-treatment residual scale is zero; scores degenerate")
    xg_base, _ = _design(dataset, gps.x_g)
    return mean_zstar, xg_base @ gps.g_model.theta[:-1]


def predict_scores(gps, dataset):
    """Stage 2: both scores evaluated at each unit's observed treatments.

    The individual score is the Gaussian density of the transformed
    treatment (no Jacobian back to the raw scale: the score only enters the
    outcome model as a balancing covariate).
    """
    mean_zstar, base_g = _score_parts(gps, dataset)
    zstar = boxcox_apply(dataset.z, gps.boxcox.k)
    phi = normal_density(zstar, mean_zstar, gps.z_model.sigma)
    lam = normal_density(dataset.require_g(), base_g + gps.g_model.coef("z") * dataset.z,
                         gps.g_model.sigma)
    return PropensityScores(phi=phi, lam=lam, mean_zstar=mean_zstar, base_g=base_g)


def fit_outcome(dataset, scores, variant="with_interference"):
    """Stage 3: polynomial outcome model on treatments and scores."""
    x, names = build_outcome_matrix(dataset.z, dataset.g, scores.phi, scores.lam, variant)
    fit = fit_ols(x, dataset.y, names=names)
    return OutcomeFit(fit=fit, variant=variant)


# Units per block of every unit sum in grid imputation.  It also bounds the
# length of every np.vecdot contraction, which numpy runs as one BLAS ddot
# per output value for float64.  OpenBLAS computes a ddot of at most 10000
# terms on one thread, so its summation order, and the output's bits, do
# not depend on the BLAS thread count as long as UNIT_BLOCK <= 10000.
UNIT_BLOCK = 512

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


def _block_buffers(rows, n):
    """The two (rows, UNIT_BLOCK) arrays that every block of n units writes
    its grid axis's values into, allocated once per imputation call."""
    return np.empty((2, rows, min(n, UNIT_BLOCK)))


def _density_means(x, means, sd, buffers, weight=None):
    """Unit means of N(x_j; means_i, sd)^k for k = 1, 2, 3, and of
    weight_i * N(x_j; means_i, sd) when ``weight`` is given: the rows of a
    (3 or 4, x.size) array.  The densities are formed one block of
    ``UNIT_BLOCK`` units at a time in ``buffers`` (:func:`_block_buffers`).
    """
    n = means.size
    dens, pw = buffers
    sums = np.zeros((3 if weight is None else 4, x.size))
    for lo in range(0, n, UNIT_BLOCK):
        units = slice(lo, min(lo + UNIT_BLOCK, n))
        m = units.stop - lo
        d = np.subtract(x[:, None], means[units], out=dens[:, :m])
        d *= d
        d *= -0.5 / (sd * sd)
        np.exp(d, out=d)
        p = np.multiply(d, d, out=pw[:, :m])
        sums[0] += d.sum(axis=1)
        sums[1] += p.sum(axis=1)
        sums[2] += np.multiply(p, d, out=p).sum(axis=1)
        if weight is not None:
            # one ddot per row, at most UNIT_BLOCK long: a fixed sum order
            sums[3] += np.vecdot(d, weight[units])
    peaks = _peak_powers(sd)
    sums[:3] /= peaks[:, None]
    sums[3:] /= peaks[0]
    return sums / n


def _phi_means(z_grid, boxcox_k, mean_zstar, sigma_z, buffers):
    """Unit means of phi_i(z)^k, k = 1, 2, 3, at each z: the individual-score
    part of the joint surface, of its z-marginal and of the naive curve."""
    return _density_means(boxcox_apply(z_grid, boxcox_k), mean_zstar, sigma_z, buffers)


def _lambda_means(z_grid, g_grid, base_g, beta, sigma, z_buffers, g_buffers):
    """Unit means of lambda_i^k = N(g; base_g_i + beta * z, sigma)^k for
    k = 1, 2, 3 at each grid cell, as a (3, n_z, n_g) array, without one
    exp per unit and cell.

    Units sorted by base_g and the g grid are cut into runs no wider than
    2 * ``_TILE_HALF_WIDTH`` * sigma, the unit runs also no longer than
    ``UNIT_BLOCK``; a tile pairs one of each, measured from its own
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
    rows.  The products are formed by ``np.vecdot``, one BLAS dot of at
    most ``UNIT_BLOCK`` terms per cell, whose summation order does not
    depend on the BLAS thread count.  U and V are written into the z-axis
    and g-axis :func:`_block_buffers`.
    """
    b_sorted = np.sort(base_g)
    nz, ng = z_grid.size, g_grid.size
    span = 2.0 * _TILE_HALF_WIDTH * sigma
    var = sigma * sigma
    sums = np.zeros((3, nz, ng))
    u, u_pow = z_buffers
    v, v_pow = g_buffers
    prod = np.empty((3, nz, ng))
    powers_k = np.array([1.0, 2.0, 3.0])[:, None, None]
    for units in _runs(b_sorted, span, UNIT_BLOCK):
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
            uk, vk, out = uu, vv, prod[:, :, :nc]
            for k in range(3):
                if k:
                    uk = np.multiply(uk, uu, out=ut)
                    vk = np.multiply(vk, vv, out=vt)
                np.vecdot(uk[:, None, :], vk[None, :, :], out=out[k])
            sums[:, :, cells] += np.exp(powers_k * e + np.log(out))
    return sums / _peak_powers(sigma)[:, None, None] / b_sorted.size


def impute_drf(gps, scores, outcome, dataset, grid=None):
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
    :func:`predict_scores` leaves them.  A surface cell whose value is not
    finite is NaN and listed in ``meta["flagged_cells"]``.
    """
    if scores.mean_zstar is None or scores.base_g is None or scores.base_g.size != dataset.n:
        raise InputError("imputation needs the scores that predict_scores gives on this dataset")
    grid = grid or GridPolicy()
    g_obs = dataset.require_g()
    z_grid, g_grid = grid.resolve(dataset.z, g_obs)
    mean_zstar, base_g, beta_gz = scores.mean_zstar, scores.base_g, gps.g_model.coef("z")
    sigma_z, sigma_g = gps.z_model.sigma, gps.g_model.sigma
    n, nz, ng = dataset.n, z_grid.size, g_grid.size
    theta, variant = outcome.fit.theta, outcome.variant

    z_buffers, g_buffers = _block_buffers(nz, n), _block_buffers(ng, n)
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _phi_means(z_grid, gps.boxcox.k, mean_zstar, sigma_z, z_buffers)
        # lambda_i(G_i | z) = N(beta * z; G_i - base_g_i, sigma_g)
        lam_z = _density_means(beta_gz * z_grid, g_obs - base_g, sigma_g, z_buffers, weight=g_obs)
        lam_g = _density_means(g_grid, base_g + beta_gz * dataset.z, sigma_g, g_buffers)
        lam = _lambda_means(z_grid, g_grid, base_g, beta_gz, sigma_g, z_buffers, g_buffers)
        surface = outcome_value(theta, outcome_terms(
            powers(z_grid[:, None]), powers(g_grid), tuple(phi[:, :, None]), tuple(lam), variant))
        g_means = tuple(t.mean() for t in powers(g_obs))
        marginal_z = outcome_value(theta, outcome_terms(
            powers(z_grid), g_means, tuple(phi), tuple(lam_z[:3]), variant, g_lam=lam_z[3]))
        z_means = tuple(t.mean() for t in powers(dataset.z))
        phi_obs = tuple(t.mean() for t in powers(scores.phi))
        marginal_g = outcome_value(theta, outcome_terms(
            z_means, powers(g_grid), phi_obs, tuple(lam_g), variant,
            z_phi=(dataset.z * scores.phi).mean()))

    flagged = [tuple(cell) for cell in np.argwhere(~np.isfinite(surface)).tolist()]
    if flagged:
        logger.warning("%d non-finite surface cells flagged", len(flagged))
        surface[~np.isfinite(surface)] = np.nan
    meta = {
        "n": n,
        "variant": variant,
        "grid": {"n_z": nz, "n_g": ng, "lower_pct": grid.lower_pct, "upper_pct": grid.upper_pct},
        "flagged_cells": flagged,
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
    gps: GpsFit
    scores: PropensityScores
    outcome: OutcomeFit
    drf: DrfGrid


def run_jps(dataset, config):
    """Stages 1-5 in sequence."""
    gps = fit_treatment_models(dataset, config)
    scores = predict_scores(gps, dataset)
    outcome = fit_outcome(dataset, scores, "with_interference")
    drf = impute_drf(gps, scores, outcome, dataset, config.grid)
    return JpsResult(gps=gps, scores=scores, outcome=outcome, drf=drf)


@dataclass
class NaiveResult:
    boxcox: BoxCoxFit
    z_model: LinearFit
    outcome: OutcomeFit
    drf: DrfGrid


def run_naive(dataset, config):
    """No-interference pipeline: no exposure, no neighborhood score anywhere.

    The individual-treatment model is fitted exactly as in
    :func:`fit_treatment_models`.
    """
    bc, z_model = _fit_z_model(dataset, config.x_z)
    mean_zstar = _zstar_mean(z_model, dataset)
    phi_obs = normal_density(boxcox_apply(dataset.z, bc.k), mean_zstar, z_model.sigma)
    x, names = build_outcome_matrix(dataset.z, None, phi_obs, None, "without_interference")
    outcome = OutcomeFit(fit=fit_ols(x, dataset.y, names=names), variant="without_interference")

    z_grid, _ = config.grid.resolve(dataset.z)
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _phi_means(z_grid, bc.k, mean_zstar, z_model.sigma,
                         _block_buffers(z_grid.size, dataset.n))
        marginal_z = outcome_value(outcome.fit.theta, outcome_terms(
            powers(z_grid), None, tuple(phi), None, outcome.variant))
    drf = DrfGrid(
        z_grid=z_grid, g_grid=None, surface=None,
        marginal_z=marginal_z, marginal_g=None,
        meta={"n": dataset.n, "variant": "without_interference",
              "grid": {"n_z": z_grid.size}, "flagged_cells": []},
    )
    return NaiveResult(boxcox=bc, z_model=z_model, outcome=outcome, drf=drf)
