import numpy as np
import pytest

from netjps.errors import InputError
from netjps.synth import (
    OutcomeRule,
    Scenario,
    generate,
    generate_sparse,
    oracle_drf,
    scenario_confounded,
)

from oracles import scipy_csr
from scenarios import scenario_null, scenario_quadratic


def small_scenario(**kw):
    base = dict(
        n_units=40, n_periods=2, edge_prob=0.2,
        n_covariates=2, treatment_coefs=(0.2, -0.1), treatment_sd=0.2,
        outcome=OutcomeRule(intercept=1.0, z=1.0, g=0.5, x=(0.1, 0.1)),
        outcome_sd=0.1, seed=4,
    )
    base.update(kw)
    return Scenario(**base)


class TestGenerate:
    def test_determinism(self):
        a, _ = generate(small_scenario())
        b, _ = generate(small_scenario())
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.g, b.g)
        for name in a.covariates:
            assert np.array_equal(a.covariates[name], b.covariates[name])

    def test_different_seed_differs(self):
        a, _ = generate(small_scenario(seed=1))
        b, _ = generate(small_scenario(seed=2))
        assert not np.array_equal(a.y, b.y)

    def test_degenerate_scales_give_identical_units(self):
        sc = small_scenario(
            treatment_sd=0.0, outcome_sd=0.0,
            treatment_coefs=(0.0, 0.0),
            outcome=OutcomeRule(intercept=1.0, z=1.0, g=0.5),
            weight_log_sd=0.0, edge_prob=1.0, n_periods=1,
        )
        ds, _ = generate(sc)
        assert np.ptp(ds.z) == 0
        assert np.ptp(ds.g) == pytest.approx(0.0, abs=1e-12)
        assert np.ptp(ds.y) == pytest.approx(0.0, abs=1e-12)

    def test_complete_graph_degrees(self):
        sc = small_scenario(n_units=5, n_periods=1, edge_prob=1.0)
        _, adj = generate(sc)
        w = scipy_csr(adj.block(0).w).toarray()
        assert np.array_equal(np.count_nonzero(w, axis=0), np.full(5, 4))  # out-degrees
        assert np.array_equal(np.count_nonzero(w, axis=1), np.full(5, 4))  # in-degrees

    def test_treatments_positive(self):
        ds, _ = generate(small_scenario(seed=99))
        assert np.all(ds.z > 0)

    def test_period_independence(self):
        # unit-aligned treatments across periods are essentially uncorrelated
        ds, _ = generate(small_scenario(n_units=400, n_periods=2, seed=8))
        z0 = ds.z[np.asarray(ds.periods, dtype=int) == 0]
        z1 = ds.z[np.asarray(ds.periods, dtype=int) == 1]
        r = np.corrcoef(z0, z1)[0, 1]
        assert abs(r) < 0.15

    def test_invalid_scenarios(self):
        with pytest.raises(InputError):
            small_scenario(edge_prob=0.0)
        with pytest.raises(InputError):
            small_scenario(treatment_sd=-1.0)
        with pytest.raises(InputError):
            small_scenario(treatment_coefs=(0.1,))
        with pytest.raises(InputError):
            small_scenario(outcome=OutcomeRule(x=(0.1,)))
        for bad in (dict(n_units=0), dict(n_units=-2), dict(n_periods=0), dict(seed=-1)):
            with pytest.raises(InputError):
                small_scenario(**bad)


class TestGenerateSparse:
    def test_each_unit_receives_distinct_in_edges(self):
        # n = 4, in-degree 3: every other unit, and the redraw of repeated offsets runs
        for n, degree in ((4, 3), (50, 5)):
            ds, adj = generate_sparse(small_scenario(n_units=n), degree)
            for period in adj.periods:
                w = adj.block(period).w
                assert np.array_equal(np.diff(w.indptr), np.full(n, degree))
                assert np.all(scipy_csr(w).diagonal() == 0) and np.all(w.data > 0)

    def test_exposure_matches_the_edges(self):
        sc = small_scenario(weight_covariate_coef=-0.25)
        ds, adj = generate_sparse(sc, 4)
        again, adj_again = generate_sparse(sc, 4)
        for period in adj.periods:
            rows = np.flatnonzero(np.asarray(ds.periods, dtype=int) == period)
            w = adj.block(period).w
            assert np.allclose(ds.g[rows], scipy_csr(w).toarray() @ ds.z[rows] / len(rows))
            assert np.array_equal(w.data, adj_again.block(period).w.data)
        assert np.array_equal(ds.y, again.y)

    def test_in_degree_must_fit(self):
        for degree in (0, 40):
            with pytest.raises(InputError, match="in-degree"):
                generate_sparse(small_scenario(n_units=40), degree)


class TestOracle:
    def test_covariate_free_rule_is_exact(self):
        sc = small_scenario(outcome=OutcomeRule(intercept=1.0, z=1.0, g=0.5))
        z_grid = np.linspace(0.5, 2.0, 5)
        g_grid = np.linspace(0.1, 1.0, 4)
        oracle = oracle_drf(sc, z_grid, g_grid, m=2000)
        want = 1.0 + z_grid[:, None] + 0.5 * g_grid[None, :]
        assert np.array_equal(oracle.surface, want)

    def test_zero_x_coefs_match_covariate_free(self):
        rule_x0 = OutcomeRule(intercept=1.0, z=1.0, g=0.5, x=(0.0, 0.0))
        rule = OutcomeRule(intercept=1.0, z=1.0, g=0.5)
        z_grid = np.linspace(0.5, 2.0, 5)
        g_grid = np.linspace(0.1, 1.0, 4)
        a = oracle_drf(small_scenario(outcome=rule_x0), z_grid, g_grid, m=2000)
        b = oracle_drf(small_scenario(outcome=rule), z_grid, g_grid, m=2000)
        assert np.array_equal(a.surface, b.surface)

    def test_quadratic_argmax_within_one_step(self):
        # analytic argmax of 1 + z - 0.3 z^2 is z = 5/3
        sc = scenario_quadratic(seed=0)
        z_grid = np.linspace(1.0, 2.4, 15)
        g_grid = np.linspace(0.5, 2.0, 5)
        oracle = oracle_drf(sc, z_grid, g_grid, m=5000)
        step = z_grid[1] - z_grid[0]
        assert abs(z_grid[oracle.argmax_z()] - 5.0 / 3.0) <= step
        # marginal equals the z-profile here (no g terms, up to mean rounding)
        want = 1 + z_grid - 0.3 * z_grid**2
        assert np.max(np.abs(oracle.marginal_z - want)) < 1e-12

    def test_mc_se_reported_and_small(self):
        sc = scenario_confounded(seed=0)
        z_grid = np.linspace(1.2, 2.6, 5)
        g_grid = np.linspace(1.0, 5.0, 5)
        oracle = oracle_drf(sc, z_grid, g_grid, m=100_000)
        assert oracle.m_samples >= 100_000
        # acceptance tolerance is 0.05 * sd(Y) ~ 0.03; oracle noise must be
        # well under a fifth of it
        assert np.max(oracle.mc_se_z) < 0.2 * 0.02
        assert np.max(oracle.mc_se_g) < 0.2 * 0.02

    def test_marginal_depends_on_exposure_distribution(self):
        sc = small_scenario(outcome=OutcomeRule(intercept=0.0, z=0.0, g=1.0))
        z_grid = np.array([1.0])
        g_grid = np.array([1.0])
        oracle = oracle_drf(sc, z_grid, g_grid, m=4000)
        assert oracle.marginal_z[0] == pytest.approx(oracle.g_mean, rel=1e-12)


class TestBenchmarks:
    def test_confounded_scenario_has_negative_weight_coupling(self):
        sc = scenario_confounded()
        ds, _ = generate(sc)
        x0 = ds.covariates["x0"]
        assert np.corrcoef(x0, ds.g)[0, 1] < -0.3
        assert np.corrcoef(x0, np.log(ds.z))[0, 1] > 0.3

    def test_null_scenario_kills_confounding(self):
        ds, _ = generate(scenario_null())
        x0 = ds.covariates["x0"]
        assert abs(np.corrcoef(x0, np.log(ds.z))[0, 1]) < 0.15
