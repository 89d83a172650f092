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
scores, so a surface cell's unit average is theta . the outcome terms at
(z, g) with each score power replaced by its unit mean
(:func:`netjps.linear_model.outcome_terms` is the polynomial's one
definition).  Grid imputation takes one z-row at a time: every g value's
counterfactual neighborhood scores form one (n_g, n) block, reduced to the
unit means of their powers, so working memory is O(n_g * n) whatever the
grid's size.  The marginal curves pair each unit with its own observed
value of the other treatment, so they impute per unit and then average.
"""

import logging
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
    power_means,
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
    """Gaussian density values of both scores at the observed treatments."""

    phi: np.ndarray
    lam: np.ndarray

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
    """Per-unit conditional means used by both score prediction and imputation."""
    mean_zstar = _zstar_mean(gps.z_model, dataset)
    if gps.g_model.sigma <= 0:
        raise DomainError("neighborhood-treatment residual scale is zero; scores degenerate")
    xg_base, _ = _design(dataset, gps.x_g)
    beta_gz = gps.g_model.coef("z")
    base_g = xg_base @ gps.g_model.theta[:-1]
    return mean_zstar, base_g, beta_gz


def predict_scores(gps, dataset):
    """Stage 2: both scores evaluated at each unit's observed treatments.

    The individual score is the Gaussian density of the transformed
    treatment (no Jacobian back to the raw scale: the score only enters the
    outcome model as a balancing covariate).
    """
    mean_zstar, base_g, beta_gz = _score_parts(gps, dataset)
    zstar = boxcox_apply(dataset.z, gps.boxcox.k)
    phi = normal_density(zstar, mean_zstar, gps.z_model.sigma)
    lam = normal_density(dataset.require_g(), base_g + beta_gz * dataset.z, gps.g_model.sigma)
    return PropensityScores(phi=phi, lam=lam)


def fit_outcome(dataset, scores, variant="with_interference"):
    """Stage 3: polynomial outcome model on treatments and scores."""
    x, names = build_outcome_matrix(dataset.z, dataset.g, scores.phi, scores.lam, variant)
    fit = fit_ols(x, dataset.y, names=names)
    return OutcomeFit(fit=fit, variant=variant)


def _unit_mean(outcome, z, g, phi_powers, lam_powers=None):
    """Unit average of the imputed outcomes at per-unit score powers."""
    terms = outcome_terms(z, g, phi_powers, lam_powers, outcome.variant)
    return outcome_value(outcome.fit.theta, terms).mean()


def impute_drf(gps, scores, outcome, dataset, grid=None):
    """Stages 4-5: counterfactual scores, per-unit imputation, unit averages.

    For every grid pair (z, g) each unit's scores are re-evaluated at that
    treatment level, and the surface cell is theta . the unit means of the
    outcome terms: z and g are shared by every unit of a cell, so only the
    score powers need averaging.  Marginal curves plug in the observed
    values of the other treatment (mu_z(z) averages Y_i(z, G_i), mu_g(g)
    averages Y_i(Z_i, g)), so they impute per unit and then average; the
    g-marginal takes each unit's individual score at its observed treatment
    from ``scores`` (stage 2) rather than evaluating it again.  A surface
    cell whose value is not finite is NaN and listed in
    ``meta["flagged_cells"]``.
    """
    grid = grid or GridPolicy()
    g_obs = dataset.require_g()
    z_grid, g_grid = grid.resolve(dataset.z, g_obs)
    mean_zstar, base_g, beta_gz = _score_parts(gps, dataset)
    sigma_z, sigma_g = gps.z_model.sigma, gps.g_model.sigma
    k = gps.boxcox.k
    n, nz, ng = dataset.n, z_grid.size, g_grid.size
    g_col = g_grid[:, None]

    surface = np.empty((nz, ng))
    marginal_z = np.empty(nz)
    # A z-row's (n_g, n) neighborhood scores and their powers, written in
    # place by every row.  Fresh blocks per row would go back to the OS at
    # each row's end and be faulted in again, which cost as much as the
    # arithmetic and made its time erratic.
    lam, lam_pow = np.empty((ng, n)), np.empty((ng, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for iz, zv in enumerate(z_grid):
            phi_z = normal_density(boxcox_apply(zv, k), mean_zstar, sigma_z)
            gmean_z = base_g + beta_gz * zv
            lam_means = power_means(normal_density(g_col, gmean_z, sigma_g, out=lam), out=lam_pow)
            surface[iz] = outcome_value(outcome.fit.theta, outcome_terms(
                zv, g_grid, power_means(phi_z), lam_means, outcome.variant))
            # marginal over the observed exposure distribution
            marginal_z[iz] = _unit_mean(outcome, zv, g_obs, powers(phi_z),
                                        powers(normal_density(g_obs, gmean_z, sigma_g)))
        gmean_obs = base_g + beta_gz * dataset.z
        phi_obs = powers(scores.phi)
        marginal_g = np.array([
            _unit_mean(outcome, dataset.z, gv, phi_obs, powers(normal_density(gv, gmean_obs, sigma_g)))
            for gv in g_grid
        ])

    flagged = [tuple(cell) for cell in np.argwhere(~np.isfinite(surface)).tolist()]
    if flagged:
        logger.warning("%d non-finite surface cells flagged", len(flagged))
        surface[~np.isfinite(surface)] = np.nan
    meta = {
        "n": n,
        "variant": outcome.variant,
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
        marginal_z = np.array([
            _unit_mean(outcome, zv, None,
                       powers(normal_density(boxcox_apply(zv, bc.k), mean_zstar, z_model.sigma)))
            for zv in z_grid
        ])
    drf = DrfGrid(
        z_grid=z_grid, g_grid=None, surface=None,
        marginal_z=marginal_z, marginal_g=None,
        meta={"n": dataset.n, "variant": "without_interference",
              "grid": {"n_z": z_grid.size}, "flagged_cells": []},
    )
    return NaiveResult(boxcox=bc, z_model=z_model, outcome=outcome, drf=drf)
