"""Synthetic panels with analytic ground truth.

The generator mirrors the estimator's model family: treatments are
log-linear in Gaussian covariates (so the zero-skewness stage lands near the
log branch), edge weights are log-normal and may load on the target unit's
first covariate, and outcomes are polynomial in (z, g) plus a linear
covariate term.  Sharing covariates between the treatment rule, the weight
rule and the outcome rule injects confounding: the no-interference estimator
is then biased while unconfoundedness of the joint treatment holds by
construction.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import PanelDataset, attach_exposure
from .errors import InputError
from .jps import finite_argmax
from .network import EdgeTable, build_adjacency

_ORACLE_SEED_OFFSET = 86_243_021


@dataclass(frozen=True)
class OutcomeRule:
    """True outcome surface: polynomial in (z, g) plus a linear x term."""

    intercept: float = 0.0
    z: float = 0.0
    z2: float = 0.0
    z3: float = 0.0
    g: float = 0.0
    g2: float = 0.0
    zg: float = 0.0
    x: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))

    def base(self, z, g):
        """Covariate-free part; equals the aDRF when covariates are centered."""
        z = np.asarray(z, dtype=float)
        g = np.asarray(g, dtype=float)
        return (
            self.intercept
            + self.z * z + self.z2 * z**2 + self.z3 * z**3
            + self.g * g + self.g2 * g**2
            + self.zg * z * g
        )

    def value(self, z, g, x):
        out = self.base(z, g)
        if self.x:
            out = out + x @ np.asarray(self.x)
        return out


@dataclass(frozen=True)
class Scenario:
    """Complete recipe for one synthetic panel."""

    n_units: int
    n_periods: int = 1
    edge_prob: float = 0.1
    weight_log_mean: float = 0.0
    weight_log_sd: float = 0.5
    weight_covariate_coef: float = 0.0  # linear weight loading on target x[0]
    n_covariates: int = 1
    covariate_mean: float = 0.0
    covariate_sd: float = 1.0
    treatment_intercept: float = 0.0  # log-scale: Z = exp(a + b'x + eps)
    treatment_coefs: tuple = (0.0,)
    treatment_sd: float = 0.2
    exposure_mode: str = "plain"
    outcome: OutcomeRule = field(default_factory=OutcomeRule)
    outcome_sd: float = 0.1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "treatment_coefs", tuple(float(v) for v in self.treatment_coefs))
        if self.n_units < 1 or self.n_periods < 1:
            raise InputError("need at least one unit and one period")
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        if not 0 < self.edge_prob <= 1:
            raise InputError("edge probability must be in (0, 1]")
        if self.treatment_sd < 0 or self.outcome_sd < 0 or self.weight_log_sd < 0:
            raise InputError("scale parameters must be >= 0")
        if len(self.treatment_coefs) != self.n_covariates:
            raise InputError("need one treatment coefficient per covariate")
        if self.outcome.x and len(self.outcome.x) != self.n_covariates:
            raise InputError("need one outcome x-coefficient per covariate")

    def covariate_names(self):
        return tuple(f"x{j}" for j in range(self.n_covariates))


def generate(scenario):
    """Draw one panel: returns (PanelDataset with exposures, AdjacencyView)."""
    n = scenario.n_units

    def draw_edges(rng, x):
        mask = rng.random((n, n)) < scenario.edge_prob
        np.fill_diagonal(mask, False)
        logw = rng.normal(scenario.weight_log_mean, scenario.weight_log_sd, size=(n, n))
        w = np.where(mask, np.exp(logw), 0.0)
        loading = _weight_loading(scenario, x)
        if loading is not None:
            w = w * loading[:, None]
        rows, cols = np.nonzero(w)  # edge j -> i has weight w[i, j]
        return rows, cols, w[rows, cols]

    return _draw_panel(scenario, draw_edges)


def generate_sparse(scenario, in_degree):
    """Draw one panel in which each unit receives an edge from ``in_degree``
    distinct other units per period, drawn uniformly: O(n_units * in_degree)
    memory, where :func:`generate` draws dense (n, n) arrays.

    Covariates, treatments, weights and outcomes follow ``scenario`` as in
    :func:`generate`; ``edge_prob`` is not used.  With ``weight_log_mean`` =
    log(n_units / in_degree) the plain exposure stays O(1) whatever n_units.
    Returns (PanelDataset with exposures, AdjacencyView).
    """
    n = scenario.n_units
    if not 0 < in_degree < n:
        raise InputError("in-degree must be at least 1 and below the number of units")
    targets = np.repeat(np.arange(n), in_degree)

    def draw_edges(rng, x):
        # distinct offsets 1..n-1 per target: distinct sources, never the target
        offsets = rng.integers(1, n, size=(n, in_degree))
        while (repeated := (np.diff(np.sort(offsets, axis=1), axis=1) == 0).any(axis=1)).any():
            offsets[repeated] = rng.integers(1, n, size=(int(repeated.sum()), in_degree))
        sources = (targets + offsets.ravel()) % n
        w = np.exp(rng.normal(scenario.weight_log_mean, scenario.weight_log_sd, size=targets.size))
        loading = _weight_loading(scenario, x)
        if loading is not None:
            w = w * loading[targets]
        keep = w > 0
        return targets[keep], sources[keep], w[keep]

    return _draw_panel(scenario, draw_edges)


def _weight_loading(scenario, x):
    """Each receiving unit's weight factor, or None without a loading.

    A linear multiplicative loading on the receiving unit's first covariate
    keeps E[G | x] linear; it is clipped to keep weights >= 0.
    """
    if scenario.weight_covariate_coef == 0.0:
        return None
    factor = 1.0 + scenario.weight_covariate_coef * (x[:, 0] - scenario.covariate_mean)
    return np.clip(factor, 0.0, None)


def _draw_panel(scenario, draw_edges):
    """The panel of :func:`generate` with each period's edges drawn by
    ``draw_edges(rng, x)``, which returns the (targets, sources, weights) arrays
    of the edges sources -> targets; it draws after the treatments and
    before the outcome noise."""
    rng = np.random.default_rng(scenario.seed)
    n, kx = scenario.n_units, scenario.n_covariates
    names = scenario.covariate_names()

    units_all, periods_all = [], []
    x_all, z_all, eps_y_all = [], [], []
    sources, targets, edge_periods, weights, nodes = [], [], [], [], []
    for t in range(scenario.n_periods):
        x = rng.normal(scenario.covariate_mean, scenario.covariate_sd, size=(n, kx))
        z = np.exp(
            scenario.treatment_intercept
            + x @ np.asarray(scenario.treatment_coefs)
            + rng.normal(0.0, scenario.treatment_sd, size=n)
        )
        rows, cols, w = draw_edges(rng, x)
        eps_y = rng.normal(0.0, scenario.outcome_sd, size=n)

        nodes.extend((u, t) for u in range(n))
        sources.append(cols)
        targets.append(rows)
        edge_periods.append(np.full(rows.size, t, dtype=np.intp))
        weights.append(w)
        units_all.append(np.arange(n, dtype=object))
        periods_all.append(np.full(n, t, dtype=object))
        x_all.append(x)
        z_all.append(z)
        eps_y_all.append(eps_y)

    x = np.vstack(x_all)
    z = np.concatenate(z_all)
    eps_y = np.concatenate(eps_y_all)
    dataset = PanelDataset(
        units=np.concatenate(units_all),
        periods=np.concatenate(periods_all),
        y=np.zeros(z.shape[0]),
        z=z,
        covariates={nm: x[:, j] for j, nm in enumerate(names)},
    )
    # unit u and period t are their own codes
    edges = EdgeTable(
        units=tuple(range(n)), periods=tuple(range(scenario.n_periods)),
        source=np.concatenate(sources), target=np.concatenate(targets),
        period=np.concatenate(edge_periods), weight=np.concatenate(weights),
    )
    adj = build_adjacency(edges, nodes)
    dataset = attach_exposure(dataset, adj, scenario.exposure_mode)
    y = scenario.outcome.value(z, dataset.g, x) + eps_y
    dataset = replace(dataset, y=y)
    return dataset, adj


@dataclass
class OracleDrf:
    """Ground-truth dose-response surface and marginals with MC error bars."""

    z_grid: np.ndarray
    g_grid: np.ndarray
    surface: np.ndarray
    marginal_z: np.ndarray
    marginal_g: np.ndarray
    mc_se_z: np.ndarray
    mc_se_g: np.ndarray
    g_mean: float
    z_mean: float
    m_samples: int

    def argmax_z(self):
        """Index of the best finite marginal_z entry; None if none is finite."""
        return finite_argmax(self.marginal_z)


def oracle_drf(scenario, z_grid, g_grid, m=100_000, seed=None):
    """True aDRF on a grid.

    The surface is exact (the outcome rule is linear in centered covariates,
    so E_x[rule] = rule at the covariate mean); the marginals integrate the
    surface over the stationary distribution of the other treatment, sampled
    by simulating fresh panels from the same scenario until at least ``m``
    draws are collected.  Standard errors of the MC average are reported.
    """
    z_grid = np.asarray(z_grid, dtype=float)
    g_grid = np.asarray(g_grid, dtype=float)
    x_shift = scenario.covariate_mean * sum(scenario.outcome.x)

    surface = np.empty((z_grid.size, g_grid.size))
    for iz, zv in enumerate(z_grid):
        surface[iz, :] = scenario.outcome.base(zv, g_grid) + x_shift

    base_seed = scenario.seed + _ORACLE_SEED_OFFSET if seed is None else seed
    per_draw = scenario.n_units * scenario.n_periods
    draws = max(1, math.ceil(m / per_draw))
    g_pool, z_pool = [], []
    for r in range(draws):
        ds, _ = generate(replace(scenario, seed=base_seed + r))
        g_pool.append(ds.g)
        z_pool.append(ds.z)
    g_pool = np.concatenate(g_pool)
    z_pool = np.concatenate(z_pool)
    m_eff = g_pool.size

    marginal_z = np.empty(z_grid.size)
    mc_se_z = np.empty(z_grid.size)
    for iz, zv in enumerate(z_grid):
        vals = scenario.outcome.base(zv, g_pool) + x_shift
        marginal_z[iz] = vals.mean()
        mc_se_z[iz] = vals.std() / math.sqrt(m_eff)
    marginal_g = np.empty(g_grid.size)
    mc_se_g = np.empty(g_grid.size)
    for ig, gv in enumerate(g_grid):
        vals = scenario.outcome.base(z_pool, gv) + x_shift
        marginal_g[ig] = vals.mean()
        mc_se_g[ig] = vals.std() / math.sqrt(m_eff)

    return OracleDrf(
        z_grid=z_grid, g_grid=g_grid, surface=surface,
        marginal_z=marginal_z, marginal_g=marginal_g,
        mc_se_z=mc_se_z, mc_se_g=mc_se_g,
        g_mean=float(g_pool.mean()), z_mean=float(z_pool.mean()),
        m_samples=int(m_eff),
    )


def scenario_confounded(seed=0):
    """Benchmark panel where covariates drive the treatment, the network
    weights and the outcome; the no-interference estimator is biased here.

    The negative weight loading ties high-treatment units to low exposure,
    so ignoring interference understates the marginal curve's optimum.
    """
    return Scenario(
        n_units=500,
        n_periods=4,
        edge_prob=0.08,
        weight_log_mean=2.62,
        weight_log_sd=0.8,
        weight_covariate_coef=-0.25,
        n_covariates=5,
        treatment_intercept=0.55,
        treatment_coefs=(0.3, 0.05, 0.05, 0.05, 0.05),
        treatment_sd=0.2,
        outcome=OutcomeRule(
            intercept=1.0, z=1.0, z2=-0.3, g=0.5, zg=0.1,
            x=(0.01, 0.01, 0.01, 0.01, 0.01),
        ),
        outcome_sd=0.05,
        seed=seed,
    )


def scenario_quadratic(seed=0):
    """Spillover-free quadratic truth 1 + z - 0.3 z^2 (argmax at z = 5/3)."""
    return Scenario(
        n_units=750,
        n_periods=4,
        edge_prob=0.1,
        weight_log_mean=1.0,
        weight_log_sd=0.4,
        n_covariates=3,
        treatment_intercept=0.4,
        treatment_coefs=(0.2, 0.1, 0.05),
        treatment_sd=0.15,
        outcome=OutcomeRule(intercept=1.0, z=1.0, z2=-0.3),
        outcome_sd=0.02,
        seed=seed,
    )


def scenario_null(seed=0):
    """Randomized treatments: covariates drive neither Z nor the network."""
    return Scenario(
        n_units=400,
        n_periods=1,
        edge_prob=0.1,
        weight_log_mean=0.5,
        weight_log_sd=0.5,
        n_covariates=3,
        treatment_intercept=0.3,
        treatment_coefs=(0.0, 0.0, 0.0),
        treatment_sd=0.25,
        outcome=OutcomeRule(intercept=1.0, z=0.5, g=0.3, x=(0.1, 0.1, 0.1)),
        outcome_sd=0.2,
        seed=seed,
    )


def scenario_strong_confounding(seed=0):
    """Covariates strongly drive both treatments (balance power check)."""
    return Scenario(
        n_units=400,
        n_periods=1,
        edge_prob=0.1,
        weight_log_mean=0.5,
        weight_log_sd=0.5,
        weight_covariate_coef=0.8,
        n_covariates=3,
        treatment_intercept=0.3,
        treatment_coefs=(0.5, 0.3, -0.3),
        treatment_sd=0.15,
        outcome=OutcomeRule(intercept=1.0, z=0.5, g=0.3, x=(0.1, 0.1, 0.1)),
        outcome_sd=0.2,
        seed=seed,
    )
