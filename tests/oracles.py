"""Independent reference implementations used only by the tests.

Everything here recomputes pipeline quantities by a different route: plain
Python loops for exposures and neighbor summaries, explicit normal equations
for least squares, series/continued-fraction evaluation for the incomplete
gamma, a per-cell design-matrix loop for grid imputation, a 50-digit
mpmath re-derivation of the whole estimation pipeline, and a bootstrap that
runs each replicate on its resample with the repeats themselves.  A period
block's sparse matrix is read through scipy's CSR.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import scipy.sparse

from netjps.errors import NetjpsError
from netjps.jps import GridPolicy, run_jps, run_naive
from netjps.linear_model import build_outcome_matrix, normal_density
from netjps.transforms import boxcox_apply


def scipy_csr(w):
    """scipy's CSR array over the arrays of a block matrix ``w``, for
    ``toarray``, ``[i, j]`` and ``diagonal``."""
    return scipy.sparse.csr_array((w.data, w.indices, w.indptr), shape=(w.n, w.n))


def loop_exposure(edges, nodes, z, mode="plain"):
    """Per-unit exposure by direct summation over the edge list."""
    units_by_period = {}
    for unit, period in nodes:
        units_by_period.setdefault(period, [])
        if unit not in units_by_period[period]:
            units_by_period[period].append(unit)
    merged = {}
    for source, target, period, weight in edges:
        merged[(source, target, period)] = merged.get((source, target, period), 0.0) + weight
    out = {}
    for period, units in units_by_period.items():
        n = len(units)
        if mode == "trade_normalized":
            weights = [w for (s, t, p), w in merged.items() if p == period and w != 0]
            s_norm = sum(weights) / len(weights)
        for target in units:
            acc = 0.0
            for source in units:
                w = merged.get((source, target, period), 0.0)
                acc += w * z[(source, period)]
            if mode == "plain":
                out[(target, period)] = acc / n
            else:
                out[(target, period)] = acc / (n * s_norm)
    return out


def loop_neighborhood(edges, nodes, x, summarizer, direction="in"):
    """Per-unit neighbor summary by direct summation over the edge list.

    ``x`` is keyed by (unit, period).  Returns {(unit, period): (value,
    isolated)}; only a weighted mean over zero total weight is isolated.
    """
    merged = {}
    for source, target, period, weight in edges:
        unit, nbr = (target, source) if direction == "in" else (source, target)
        merged[(unit, nbr, period)] = merged.get((unit, nbr, period), 0.0) + weight
    out = {}
    for unit, period in nodes:
        count, total, acc = 0, 0.0, 0.0
        for (u, nbr, p), w in merged.items():
            if u == unit and p == period and w != 0:
                count += 1
                total += w
                acc += w * x[(nbr, period)]
        if summarizer == "count":
            out[(unit, period)] = (float(count), False)
        elif summarizer == "sum":
            out[(unit, period)] = (acc, False)
        elif total > 0:
            out[(unit, period)] = (acc / total, False)
        else:
            out[(unit, period)] = (0.0, True)
    return out


def normal_equations_ols(x, y):
    """theta = (X'X)^{-1} X'y, kept deliberately naive."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.linalg.solve(x.T @ x, x.T @ y)


def loop_impute(theta, variant, dataset, k, z_model, x_z, z_grid,
                g_model=None, x_g=(), g_grid=None):
    """Grid imputation one cell at a time: a fresh outcome design per cell, then @ theta.

    ``z_model``/``g_model`` are the fitted treatment models on the designs
    (const, *x_z) and (const, *x_g, z).  Returns (surface, marginal_z,
    marginal_g); the without_interference variant takes no g-side inputs and
    returns None for the g-side outputs.
    """
    n = dataset.n
    xz = np.column_stack([np.ones(n)] + [dataset.covariates[nm] for nm in x_z])
    mean_zstar = xz @ z_model.theta
    phi_obs = normal_density(boxcox_apply(dataset.z, k), mean_zstar, z_model.sigma)
    with_g = variant == "with_interference"
    if with_g:
        xg = np.column_stack([np.ones(n)] + [dataset.covariates[nm] for nm in x_g])
        base_g, beta_gz, sigma_g = xg @ g_model.theta[:-1], g_model.theta[-1], g_model.sigma

    def cell(z, g, phi, lam):
        x, _ = build_outcome_matrix(z, g, phi, lam)
        return x @ theta

    nz = len(z_grid)
    unit_mz = np.empty((nz, n))
    surface = unit_mg = None
    if with_g:
        ng = len(g_grid)
        surface = np.empty((nz, ng))
        unit_mg = np.empty((ng, n))
    for iz, zv in enumerate(z_grid):
        phi_z = normal_density(boxcox_apply(zv, k), mean_zstar, z_model.sigma)
        if not with_g:
            unit_mz[iz] = cell(zv, None, phi_z, None)
            continue
        gmean_z = base_g + beta_gz * zv
        for ig, gv in enumerate(g_grid):
            surface[iz, ig] = cell(zv, gv, phi_z, normal_density(gv, gmean_z, sigma_g)).mean()
        unit_mz[iz] = cell(zv, dataset.g, phi_z, normal_density(dataset.g, gmean_z, sigma_g))
    if with_g:
        gmean_obs = base_g + beta_gz * dataset.z
        for ig, gv in enumerate(g_grid):
            unit_mg[ig] = cell(dataset.z, gv, phi_obs, normal_density(gv, gmean_obs, sigma_g))
    marginal_g = None if unit_mg is None else unit_mg.mean(axis=1)
    return surface, unit_mz.mean(axis=1), marginal_g


def subset_bootstrap(dataset, config, point, b, seed, level=0.95):
    """Percentile bounds of ``bootstrap_drf``'s replicates, each run on its
    n-row resample with the repeated rows repeated: {curve: (lo, hi)} for
    the point estimate's curves among surface, marginal_z and marginal_g.
    Failed replicates are dropped."""
    with_g = point.g_grid is not None
    grid = GridPolicy(z_values=tuple(point.z_grid),
                      g_values=tuple(point.g_grid) if with_g else None)
    config = replace(config, grid=grid)
    names = ("surface", "marginal_z", "marginal_g") if with_g else ("marginal_z",)
    reps = {name: [] for name in names}
    for r in range(b):
        idx = np.random.default_rng((seed, r)).integers(0, dataset.n, size=dataset.n)
        try:
            drf = (run_jps if with_g else run_naive)(dataset.subset(idx), config).drf
        except NetjpsError:
            continue
        for name in names:
            reps[name].append(getattr(drf, name))
    alpha = (1.0 - level) / 2.0
    return {name: tuple(np.quantile(np.array(curves), q, axis=0) for q in (alpha, 1.0 - alpha))
            for name, curves in reps.items()}


def moment_skewness(x):
    """Skewness by the direct moment formula with plain Python sums."""
    x = list(map(float, x))
    n = len(x)
    mean = sum(x) / n
    m2 = sum((v - mean) ** 2 for v in x) / n
    m3 = sum((v - mean) ** 3 for v in x) / n
    return m3 / m2**1.5


def gammainc_upper_series_cf(a, x, iters=400):
    """Regularized upper incomplete gamma Q(a, x) via the classic
    series / continued-fraction split (Numerical-Recipes style)."""
    if x < 0 or a <= 0:
        raise ValueError("need x >= 0, a > 0")
    if x == 0:
        return 1.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        # lower series: P(a,x) = x^a e^-x / Gamma(a) * sum x^k / (a)_k+1
        term = 1.0 / a
        total = term
        for k in range(1, iters):
            term *= x / (a + k)
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        p = total * math.exp(-x + a * math.log(x) - lg)
        return 1.0 - p
    # continued fraction for Q(a,x) by modified Lentz
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, iters):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - lg)


def _mp_boxcox(z, k):
    if k == 0:
        return [mp.log(v) for v in z]
    k = mp.mpf(k)
    return [(mp.power(v, k) - 1) / k for v in z]


def _mp_ols(rows, y):
    n, p = len(rows), len(rows[0])
    xtx = mp.matrix(p, p)
    xty = mp.matrix(p, 1)
    for i in range(n):
        for a in range(p):
            xty[a] += rows[i][a] * y[i]
            for b in range(p):
                xtx[a, b] += rows[i][a] * rows[i][b]
    theta = mp.lu_solve(xtx, xty)
    rss = mp.mpf(0)
    for i in range(n):
        pred = mp.fsum(rows[i][a] * theta[a] for a in range(p))
        rss += (y[i] - pred) ** 2
    sigma = mp.sqrt(rss / n)
    return [theta[a] for a in range(p)], sigma


def _mp_density(x, mean, sd):
    u = (x - mean) / sd
    return mp.e ** (-u * u / 2) / (sd * mp.sqrt(2 * mp.pi))


def _mp_outcome_row(z, g, phi, lam):
    return [z, z**2, z**3, phi, phi**2, phi**3, z * phi,
            g, g**2, g**3, lam, lam**2, lam**3, g * lam, z * g, mp.mpf(1)]


def dense_pipeline(dataset, x_z, x_g, k, z_grid, g_grid, dps=50):
    """Re-derive the whole estimation pipeline in ``dps``-digit arithmetic.

    Takes the fitted power-transform exponent ``k`` as given (the root search
    is validated separately; its stopping rule is on skewness, not k) and
    recomputes everything else: exposure is assumed already attached.
    Returns (surface, marginal_z, marginal_g) as float arrays.
    """
    with mp.workdps(dps):
        n = dataset.n
        z = [mp.mpf(float(v)) for v in dataset.z]
        g = [mp.mpf(float(v)) for v in dataset.g]
        y = [mp.mpf(float(v)) for v in dataset.y]
        xz = [[mp.mpf(float(dataset.covariates[nm][i])) for nm in x_z] for i in range(n)]
        xg = [[mp.mpf(float(dataset.covariates[nm][i])) for nm in x_g] for i in range(n)]

        zstar = _mp_boxcox(z, k)
        rows_z = [[mp.mpf(1)] + xz[i] for i in range(n)]
        theta_z, sigma_z = _mp_ols(rows_z, zstar)
        rows_g = [[mp.mpf(1)] + xg[i] + [z[i]] for i in range(n)]
        theta_g, sigma_g = _mp_ols(rows_g, g)

        mean_zstar = [mp.fsum(rows_z[i][a] * theta_z[a] for a in range(len(theta_z)))
                      for i in range(n)]
        mean_g_obs = [mp.fsum(rows_g[i][a] * theta_g[a] for a in range(len(theta_g)))
                      for i in range(n)]
        phi_obs = [_mp_density(zstar[i], mean_zstar[i], sigma_z) for i in range(n)]
        lam_obs = [_mp_density(g[i], mean_g_obs[i], sigma_g) for i in range(n)]

        rows_y = [_mp_outcome_row(z[i], g[i], phi_obs[i], lam_obs[i]) for i in range(n)]
        theta_y, _ = _mp_ols(rows_y, y)

        beta_gz = theta_g[-1]
        base_g = [mean_g_obs[i] - beta_gz * z[i] for i in range(n)]

        def predict(zv, gv, phi_i, lam_i):
            row = _mp_outcome_row(zv, gv, phi_i, lam_i)
            return mp.fsum(row[a] * theta_y[a] for a in range(16))

        surface = np.empty((len(z_grid), len(g_grid)))
        marginal_z = np.empty(len(z_grid))
        marginal_g = np.empty(len(g_grid))
        for iz, zv_f in enumerate(z_grid):
            zv = mp.mpf(float(zv_f))
            zs = _mp_boxcox([zv], k)[0]
            phi_z = [_mp_density(zs, mean_zstar[i], sigma_z) for i in range(n)]
            gmean_z = [base_g[i] + beta_gz * zv for i in range(n)]
            for ig, gv_f in enumerate(g_grid):
                gv = mp.mpf(float(gv_f))
                vals = [predict(zv, gv, phi_z[i], _mp_density(gv, gmean_z[i], sigma_g))
                        for i in range(n)]
                surface[iz, ig] = float(mp.fsum(vals) / n)
            vals = [predict(zv, g[i], phi_z[i], _mp_density(g[i], gmean_z[i], sigma_g))
                    for i in range(n)]
            marginal_z[iz] = float(mp.fsum(vals) / n)
        for ig, gv_f in enumerate(g_grid):
            gv = mp.mpf(float(gv_f))
            vals = [predict(z[i], gv, phi_obs[i],
                            _mp_density(gv, base_g[i] + beta_gz * z[i], sigma_g))
                    for i in range(n)]
            marginal_g[ig] = float(mp.fsum(vals) / n)
    return surface, marginal_z, marginal_g
