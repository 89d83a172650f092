import logging

import numpy as np
import pytest
from dataclasses import replace

from netjps.dataset import PanelDataset
from netjps.errors import DegenerateExposureError, DomainError, InputError
from netjps.jps import (
    ContrastSpec,
    GridPolicy,
    JpsConfig,
    effects,
    fit_outcome,
    fit_treatment_models,
    impute_drf,
    predict_scores,
    run_jps,
    run_naive,
)
from netjps.linear_model import build_outcome_matrix
from netjps import jps, synth

from oracles import dense_pipeline, loop_impute


def make_dataset(n=400, seed=0, k_cov=3, g_rule=None, y_rule=None,
                 beta_z=None, sigma_z=0.3):
    """Panel rows with directly attached exposures (no graph needed here)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k_cov))
    beta_z = np.zeros(k_cov) if beta_z is None else np.asarray(beta_z)
    z = np.exp(0.2 + x @ beta_z + rng.normal(0, sigma_z, n))
    g = g_rule(z, x, rng) if g_rule else np.abs(0.5 * z + rng.normal(0, 0.4, n)) + 0.05
    y = y_rule(z, g, x, rng) if y_rule else rng.normal(size=n)
    return PanelDataset(
        units=np.arange(n, dtype=object),
        periods=np.zeros(n, dtype=object),
        y=y,
        z=z,
        covariates={f"x{j}": x[:, j] for j in range(k_cov)},
        g=g,
    )


def config_for(ds, grid=None):
    names = ds.covariate_names()
    return JpsConfig(x_z=names, x_g=names, grid=grid or GridPolicy())


class TestTreatmentModels:
    def test_design_shapes_match_covariate_count(self):
        # 14 covariates: 15-column individual fit, 16-column neighborhood fit
        ds = make_dataset(n=300, k_cov=14, seed=5)
        gps = fit_treatment_models(ds, config_for(ds))
        assert len(gps.z_model.theta) == 15
        assert len(gps.g_model.theta) == 16
        assert gps.g_model.names[-1] == "z"

    def test_null_slopes_within_3se(self):
        # Z independent of X: every covariate slope within 3 standard errors of 0
        ds = make_dataset(n=2000, k_cov=3, seed=11, beta_z=(0, 0, 0))
        gps = fit_treatment_models(ds, config_for(ds))
        x = np.column_stack([np.ones(ds.n)] + [ds.covariates[f"x{j}"] for j in range(3)])
        dof = ds.n - x.shape[1]
        sigma2 = gps.z_model.rss / dof
        se = np.sqrt(np.diag(sigma2 * np.linalg.inv(x.T @ x)))
        for j in range(1, 4):
            assert abs(gps.z_model.theta[j]) < 3 * se[j]

    def test_beta_gz_recovered(self):
        rng = np.random.default_rng(17)
        n = 10_000
        z = np.exp(rng.normal(0.2, 0.4, n))
        g = 0.5 * z + rng.normal(0, 0.3, n)
        ds = PanelDataset(
            units=np.arange(n, dtype=object), periods=np.zeros(n, dtype=object),
            y=rng.normal(size=n), z=z, covariates={}, g=g,
        )
        gps = fit_treatment_models(ds, JpsConfig(x_z=(), x_g=()))
        assert gps.g_model.coef("z") == pytest.approx(0.5, abs=0.05)

    def test_degenerate_exposure_rejected(self):
        ds = make_dataset(seed=2, g_rule=lambda z, x, rng: np.full(z.shape[0], 1.7))
        with pytest.raises(DegenerateExposureError, match="naive"):
            fit_treatment_models(ds, config_for(ds))

    def test_missing_exposure_rejected(self):
        ds = make_dataset(seed=2)
        ds = replace(ds, g=None)
        with pytest.raises(InputError, match="attach_exposure"):
            fit_treatment_models(ds, config_for(ds))


class TestScores:
    def test_unit_at_conditional_mean_hits_peak_density(self):
        ds = make_dataset(seed=7)
        gps = fit_treatment_models(ds, config_for(ds))
        scores = predict_scores(gps, ds)
        peak = 1.0 / (gps.z_model.sigma * np.sqrt(2 * np.pi))
        assert np.all(scores.phi <= peak + 1e-12)
        assert np.all(scores.phi > 0) and np.all(scores.lam > 0)

    def test_unit_placed_at_conditional_mean_scores_exactly_peak(self):
        ds = make_dataset(seed=7)
        gps = fit_treatment_models(ds, config_for(ds))
        # move one unit's treatment to its fitted conditional mean
        xz = np.column_stack([np.ones(ds.n)] + [ds.covariates[f"x{j}"] for j in range(3)])
        mean_zstar = xz @ gps.z_model.theta
        z2 = ds.z.copy()
        k = gps.boxcox.k
        z2[0] = np.exp(np.log1p(k * mean_zstar[0]) / k)  # the inverse transform
        scores = predict_scores(gps, replace(ds, z=z2))
        peak = 1.0 / (gps.z_model.sigma * np.sqrt(2 * np.pi))
        assert scores.phi[0] == pytest.approx(peak, rel=1e-9)

    def test_doubling_sigma_halves_peak(self):
        ds = make_dataset(seed=7)
        gps = fit_treatment_models(ds, config_for(ds))
        doubled = replace(
            gps,
            g_model=replace(gps.g_model, sigma=2 * gps.g_model.sigma),
        )
        base_g = predict_scores(gps, ds).lam
        # a unit sitting exactly at its conditional mean has lam = peak
        peak1 = 1.0 / (gps.g_model.sigma * np.sqrt(2 * np.pi))
        peak2 = 1.0 / (doubled.g_model.sigma * np.sqrt(2 * np.pi))
        assert peak2 == pytest.approx(peak1 / 2)
        assert np.all(predict_scores(doubled, ds).lam <= peak2 + 1e-12)
        assert np.all(base_g <= peak1 + 1e-12)

    def test_zero_sigma_errors(self):
        ds = make_dataset(seed=7)
        gps = fit_treatment_models(ds, config_for(ds))
        broken = replace(gps, z_model=replace(gps.z_model, sigma=0.0))
        with pytest.raises(DomainError, match="degenerate"):
            predict_scores(broken, ds)


class TestOutcomeFit:
    def test_exact_recovery_from_design_truth(self):
        ds = make_dataset(seed=3)
        gps = fit_treatment_models(ds, config_for(ds))
        scores = predict_scores(gps, ds)
        mat, _ = build_outcome_matrix(ds.z, ds.g, scores.phi, scores.lam, "with_interference")
        theta = np.linspace(-1, 2, 16)
        ds2 = replace(ds, y=mat @ theta)
        fit = fit_outcome(ds2, scores, "with_interference")
        assert np.max(np.abs(fit.fit.theta - theta)) < 1e-8

    def test_without_variant_has_8_terms(self):
        ds = make_dataset(seed=3)
        gps = fit_treatment_models(ds, config_for(ds))
        scores = predict_scores(gps, ds)
        fit = fit_outcome(ds, scores, "without_interference")
        assert len(fit.fit.theta) == 8
        assert "g" not in fit.fit.names and "lambda" not in fit.fit.names

    def test_permutation_invariance(self):
        ds = make_dataset(seed=13)
        gps = fit_treatment_models(ds, config_for(ds))
        scores = predict_scores(gps, ds)
        fit1 = fit_outcome(ds, scores, "with_interference")
        perm = np.random.default_rng(0).permutation(ds.n)
        ds_p = ds.subset(perm)
        scores_p = replace(scores, phi=scores.phi[perm], lam=scores.lam[perm])
        fit2 = fit_outcome(ds_p, scores_p, "with_interference")
        assert np.allclose(fit1.fit.theta, fit2.fit.theta, atol=1e-9)


class TestImputeAndMarginals:
    def test_constant_outcome_model_gives_constant_surface(self):
        ds = make_dataset(seed=19)
        res = run_jps(ds, config_for(ds))
        const_theta = np.zeros(16)
        const_theta[-1] = 4.25
        outcome = replace(res.outcome, fit=replace(res.outcome.fit, theta=const_theta))
        drf = impute_drf(res.gps, res.scores, outcome, ds, GridPolicy(n_z=5, n_g=5))
        assert np.allclose(drf.surface, 4.25, atol=1e-12)
        assert np.allclose(drf.marginal_z, 4.25, atol=1e-12)
        assert np.allclose(drf.marginal_g, 4.25, atol=1e-12)

    def test_additive_truth_recovered_without_confounding(self):
        def y_rule(z, g, x, rng):
            return 1.0 + z + 0.5 * g + rng.normal(0, 0.05, z.shape[0])

        ds = make_dataset(n=2000, seed=23, y_rule=y_rule)
        res = run_jps(ds, config_for(ds))
        truth = 1.0 + res.drf.z_grid[:, None] + 0.5 * res.drf.g_grid[None, :]
        assert np.max(np.abs(res.drf.surface - truth)) < 0.05
        # marginal over observed G: 1 + z + 0.5 * mean(G)
        want_z = 1.0 + res.drf.z_grid + 0.5 * ds.g.mean()
        assert np.max(np.abs(res.drf.marginal_z - want_z)) < 0.05

    def test_unit_reorder_leaves_surface_nearly_unchanged(self):
        ds = make_dataset(n=500, seed=29)
        grid = GridPolicy(n_z=4, n_g=4)
        res1 = run_jps(ds, config_for(ds, grid))
        perm = np.random.default_rng(1).permutation(ds.n)
        res2 = run_jps(ds.subset(perm), config_for(ds, grid))
        assert np.allclose(res1.drf.surface, res2.drf.surface, atol=1e-9)

    @staticmethod
    def loop_oracle(res, cfg, ds):
        return loop_impute(res.outcome.fit.theta, "with_interference", ds, res.gps.boxcox.k,
                           res.gps.z_model, cfg.x_z, res.drf.z_grid,
                           res.gps.g_model, cfg.x_g, res.drf.g_grid)

    @staticmethod
    def assert_close(got, want):
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_matches_per_cell_loop_oracle(self):
        ds = make_dataset(n=500, seed=83)
        cfg = config_for(ds, GridPolicy(n_z=7, n_g=6))
        res = run_jps(ds, cfg)
        want = self.loop_oracle(res, cfg, ds)
        got = (res.drf.surface, res.drf.marginal_z, res.drf.marginal_g)
        for a, b in zip(got, want):
            self.assert_close(a, b)

    def test_small_sigma_g_panel_matches_loop_oracle(self):
        # base_g spans hundreds of sigma_g: the surface sums run over many
        # unit tiles and g tiles, each with its own centres
        ds = make_dataset(n=500, seed=85, g_rule=lambda z, x, rng: (
            0.5 * z + 3.0 * x[:, 0] + rng.normal(0, 0.02, z.size)))
        cfg = config_for(ds, GridPolicy(n_z=5, n_g=9))
        res = run_jps(ds, cfg)
        xg = np.column_stack([np.ones(ds.n)] + [ds.covariates[c] for c in cfg.x_g])
        base_g = xg @ res.gps.g_model.theta[:-1]
        assert np.ptp(base_g) / res.gps.g_model.sigma > 80
        want = self.loop_oracle(res, cfg, ds)
        got = (res.drf.surface, res.drf.marginal_z, res.drf.marginal_g)
        for a, b in zip(got, want):
            self.assert_close(a, b)

    def test_g_values_far_outside_support_match_loop_oracle(self):
        ds = make_dataset(n=500, seed=87)
        g_values = (-30.0, -2.0, 0.5, 1.0, 6.0, 40.0)
        assert g_values[0] < ds.g.min() - 20 and g_values[-1] > ds.g.max() + 20
        cfg = config_for(ds, GridPolicy(n_z=5, g_values=g_values))
        res = run_jps(ds, cfg)
        want = self.loop_oracle(res, cfg, ds)
        # column by column: the far columns' cubes would swamp a shared scale
        for j in range(len(g_values)):
            self.assert_close(res.drf.surface[:, j], want[0][:, j])
        self.assert_close(res.drf.marginal_z, want[1])
        self.assert_close(res.drf.marginal_g, want[2])

    def test_extreme_z_row_leaves_other_rows_matching_loop_oracle(self):
        # the imputation at z = 1e103 overflows; the rows beside it must not
        # borrow its scale
        ds = make_dataset(n=500, seed=89)
        cfg = config_for(ds, GridPolicy(z_values=(1.0, 1.2, 1e103), n_g=6))
        with np.errstate(over="ignore", invalid="ignore"):
            res = run_jps(ds, cfg)
            want = self.loop_oracle(res, cfg, ds)
        assert np.all(np.isfinite(res.drf.surface[:2])) and np.all(np.isnan(res.drf.surface[2]))
        self.assert_close(res.drf.surface[:2], want[0][:2])
        self.assert_close(res.drf.marginal_z[:2], want[1][:2])
        self.assert_close(res.drf.marginal_g, want[2])

    def test_naive_matches_per_cell_loop_oracle(self):
        ds = make_dataset(n=500, seed=83)
        cfg = config_for(ds, GridPolicy(n_z=7))
        res = run_naive(ds, cfg)
        _, mz, mg = loop_impute(res.outcome.fit.theta, "without_interference", ds,
                                res.boxcox.k, res.z_model, cfg.x_z, res.drf.z_grid)
        assert mg is None
        assert np.max(np.abs(res.drf.marginal_z - mz)) < 1e-12 * max(1.0, np.max(np.abs(mz)))

    def test_affine_outcome_equivariance(self):
        ds = make_dataset(n=400, seed=37)
        cfg = config_for(ds, GridPolicy(n_z=5, n_g=5))
        res1 = run_jps(ds, cfg)
        a, b = 2.5, -3.0
        res2 = run_jps(replace(ds, y=a + b * ds.y), cfg)
        scale = np.max(np.abs(res1.drf.surface))
        assert np.allclose(res2.drf.surface, a + b * res1.drf.surface,
                           rtol=1e-10, atol=1e-10 * max(1.0, scale))

    def test_argmax_invariant_to_grid_relabeling(self):
        ds = make_dataset(n=400, seed=41)
        res = run_jps(ds, config_for(ds, GridPolicy(n_z=6, n_g=6)))
        cell = np.unravel_index(np.nanargmax(res.drf.surface), res.drf.surface.shape)
        relabeled = replace(
            res.drf,
            z_grid=np.exp(res.drf.z_grid),  # strictly increasing relabeling
            g_grid=res.drf.g_grid * 3.0 + 1.0,
        )
        cell2 = np.unravel_index(np.nanargmax(relabeled.surface), relabeled.surface.shape)
        assert cell == cell2

    def test_explicit_grid_and_empty_grid(self):
        ds = make_dataset(n=200, seed=43)
        cfg = config_for(ds, GridPolicy(z_values=(1.0, 1.2), g_values=(0.4, 0.8, 1.2)))
        res = run_jps(ds, cfg)
        assert res.drf.surface.shape == (2, 3)
        with pytest.raises(InputError, match="empty"):
            run_jps(ds, config_for(ds, GridPolicy(z_values=(), g_values=(1.0,))))
        with pytest.raises(InputError, match="increasing"):
            run_jps(ds, config_for(ds, GridPolicy(z_values=(2.0, 1.0), g_values=(1.0, 2.0))))

    @pytest.mark.parametrize("lower, upper", [(90.0, 10.0), (50.0, 50.0)])
    def test_inverted_percentiles_rejected(self, lower, upper):
        with pytest.raises(InputError, match="lower_pct must be below upper_pct"):
            GridPolicy(lower_pct=lower, upper_pct=upper)

    def test_overflowing_grid_row_flagged_not_written(self, caplog):
        # z^3 overflows at z = 1e103: that surface row is NaN and its cells are flagged
        ds = make_dataset(n=200, seed=43)
        cfg = config_for(ds, GridPolicy(z_values=(1.0, 1e103), g_values=(0.4, 0.8)))
        with caplog.at_level(logging.WARNING, logger="netjps.jps"), \
                np.errstate(over="ignore", invalid="ignore"):
            res = run_jps(ds, cfg)
        assert np.all(np.isfinite(res.drf.surface[0]))
        assert np.all(np.isnan(res.drf.surface[1]))
        assert res.drf.meta["flagged_cells"] == [(1, 0), (1, 1)]
        assert "2 non-finite surface cells flagged" in caplog.text
        # the z-marginal at that grid value overflows too, and is flagged alike
        assert np.isfinite(res.drf.marginal_z[0]) and np.isnan(res.drf.marginal_z[1])
        assert np.all(np.isfinite(res.drf.marginal_g))
        assert "1 non-finite marginal_z entries flagged" in caplog.text
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="netjps.jps"), \
                np.errstate(over="ignore", invalid="ignore"):
            naive = run_naive(ds, cfg).drf
        assert np.isfinite(naive.marginal_z[0]) and np.isnan(naive.marginal_z[1])
        assert "1 non-finite marginal_z entries flagged" in caplog.text

    def test_score_means_computed_once_per_run(self, monkeypatch):
        # stage 2 hands its conditional means to imputation through the scores
        calls = []
        score_parts = jps._score_parts

        def counted(*args):
            calls.append(args)
            return score_parts(*args)

        monkeypatch.setattr(jps, "_score_parts", counted)
        ds = make_dataset(n=200, seed=43)
        res = run_jps(ds, config_for(ds, GridPolicy(n_z=3, n_g=3)))
        assert len(calls) == 1
        with pytest.raises(InputError, match="predict_scores"):
            impute_drf(res.gps, replace(res.scores, base_g=None), res.outcome, ds)

    def test_unit_block_bounds_single_threaded_blas_dot(self):
        # OpenBLAS runs a ddot of at most 10000 terms on one thread; np.vecdot
        # contractions of at most UNIT_BLOCK terms therefore sum in one order
        # whatever the BLAS thread count
        assert jps.UNIT_BLOCK <= 10_000

    def test_non_finite_imputation_input_rejected(self):
        ds = make_dataset(n=200, seed=43)
        res = run_jps(ds, config_for(ds))
        g = ds.g.copy()
        g[7] = np.nan
        with pytest.raises(InputError, match="non-finite g"):
            impute_drf(res.gps, res.scores, res.outcome, replace(ds, g=g),
                       GridPolicy(z_values=(1.0, 1.2), g_values=(0.4, 0.8)))


class TestEffects:
    def test_zero_contrast_is_exact_zero(self):
        ds = make_dataset(n=300, seed=47)
        res = run_jps(ds, config_for(ds))
        z0 = float(res.drf.z_grid[3])
        rep = effects(res.drf, ContrastSpec(z_pairs=((z0, z0),)))
        assert rep.direct[0][2] == 0.0

    def test_antisymmetry_exact(self):
        ds = make_dataset(n=300, seed=47)
        res = run_jps(ds, config_for(ds))
        a = float(res.drf.z_grid[2]) + 0.011
        b = float(res.drf.z_grid[-2])
        rep = effects(res.drf, ContrastSpec(z_pairs=((a, b), (b, a)),
                                            g_pairs=((res.drf.g_grid[1], res.drf.g_grid[4]),)))
        assert rep.direct[0][2] == -rep.direct[1][2]
        assert rep.spillover[0][2] != 0.0  # computed, not placeholder

    def test_linear_truth_derivative(self):
        def y_rule(z, g, x, rng):
            return 1.0 + z + rng.normal(0, 0.005, z.shape[0])

        ds = make_dataset(n=2000, seed=53, y_rule=y_rule)
        res = run_jps(ds, config_for(ds))
        rep = effects(res.drf)
        assert np.max(np.abs(rep.dz - 1.0)) < 1e-2

    def test_out_of_hull_rejected(self):
        ds = make_dataset(n=300, seed=59)
        res = run_jps(ds, config_for(ds))
        far = float(res.drf.z_grid[-1]) + 10.0
        with pytest.raises(InputError, match="hull"):
            effects(res.drf, ContrastSpec(z_pairs=((far, far),)))


class TestNaive:
    def test_zero_spillover_agreement(self):
        # no g-terms in the truth: naive and joint pipelines agree closely
        def y_rule(z, g, x, rng):
            return 1.0 + 0.8 * z - 0.2 * z**2 + rng.normal(0, 0.05, z.shape[0])

        ds = make_dataset(n=2000, seed=61, y_rule=y_rule)
        cfg = config_for(ds)
        jps_curve = run_jps(ds, cfg).drf.marginal_z
        naive_curve = run_naive(ds, cfg).drf.marginal_z
        assert np.max(np.abs(jps_curve - naive_curve)) < 0.05

    def test_individual_treatment_model_shared_with_joint(self):
        ds = make_dataset(n=300, seed=83)
        cfg = config_for(ds)
        naive, joint = run_naive(ds, cfg), run_jps(ds, cfg).gps
        assert naive.boxcox == joint.boxcox
        assert naive.z_model.names == joint.z_model.names
        assert np.array_equal(naive.z_model.theta, joint.z_model.theta)
        assert naive.z_model.sigma == joint.z_model.sigma

    def test_naive_drf_defaults_and_shape(self):
        ds = make_dataset(n=300, seed=67)
        drf = run_naive(ds, config_for(ds, GridPolicy(n_z=7))).drf
        assert drf.surface is None and drf.g_grid is None and drf.marginal_g is None
        assert drf.marginal_z.shape == (7,)
        assert drf.meta["variant"] == "without_interference"

    def test_all_zero_network_policy(self):
        # exposures identically zero: joint model refuses, naive runs
        ds = make_dataset(n=300, seed=71, g_rule=lambda z, x, rng: np.zeros(z.shape[0]))
        with pytest.raises(DegenerateExposureError):
            fit_treatment_models(ds, config_for(ds))
        drf = run_naive(ds, config_for(ds)).drf
        assert np.all(np.isfinite(drf.marginal_z))

    def test_constant_outcome_gives_flat_curve(self):
        ds = make_dataset(n=300, seed=79)
        ds = replace(ds, y=np.full(ds.n, 2.5))
        drf = run_naive(ds, config_for(ds)).drf
        assert np.allclose(drf.marginal_z, 2.5, atol=1e-9)

    def test_effects_on_naive_grid(self):
        ds = make_dataset(n=300, seed=73)
        drf = run_naive(ds, config_for(ds)).drf
        rep = effects(drf)
        assert rep.dg is None and rep.spillover == ()
        with pytest.raises(InputError, match="spillover"):
            effects(drf, ContrastSpec(g_pairs=((0.1, 0.2),)))


class TestDensePipelineOracle:
    def test_small_instance_matches_50_digit_reimplementation(self):
        sc = synth.Scenario(
            n_units=30, n_periods=1, edge_prob=0.3,
            weight_log_mean=0.8, weight_log_sd=0.5,
            n_covariates=2, treatment_coefs=(0.25, 0.1), treatment_sd=0.3,
            treatment_intercept=0.3,
            outcome=synth.OutcomeRule(intercept=1.0, z=0.8, z2=-0.2, g=0.4, zg=0.05,
                                      x=(0.1, 0.1)),
            outcome_sd=0.1, seed=8,
        )
        ds, _ = synth.generate(sc)
        cfg = JpsConfig(x_z=sc.covariate_names(), x_g=sc.covariate_names(),
                        grid=GridPolicy(n_z=3, n_g=3))
        res = run_jps(ds, cfg)
        surface, mz, mg = dense_pipeline(
            ds, cfg.x_z, cfg.x_g, res.gps.boxcox.k, res.drf.z_grid, res.drf.g_grid
        )
        assert np.max(np.abs(res.drf.surface - surface)) < 1e-10
        assert np.max(np.abs(res.drf.marginal_z - mz)) < 1e-10
        assert np.max(np.abs(res.drf.marginal_g - mg)) < 1e-10
