import numpy as np
import pytest
import scipy.special

from netjps.balance import balance_check, chi2_sf, lr_test
from netjps.errors import InputError
from netjps.jps import JpsConfig, PropensityScores, fit_treatment_models, predict_scores
from netjps.synth import generate, scenario_null, scenario_strong_confounding

from oracles import gammainc_upper_series_cf


class TestLrTest:
    def test_no_improvement_gives_p_one(self):
        stat, p = lr_test(2.5, 2.5, n=100, df_added=3)
        assert stat == 0.0
        assert p == pytest.approx(1.0)

    def test_canonical_chi2_quantiles(self):
        # 95% quantiles of chi-square with 1 and 2 degrees of freedom
        assert chi2_sf(3.841, 1) == pytest.approx(0.0500, abs=5e-4)
        assert chi2_sf(5.991, 2) == pytest.approx(0.0500, abs=5e-4)

    def test_statistic_formula(self):
        n = 50
        stat, _ = lr_test(4.0, 2.0, n=n, df_added=1)
        assert stat == pytest.approx(n * np.log(2.0), rel=1e-12)

    def test_zero_full_rss_flags_infinite(self):
        stat, p = lr_test(1.0, 0.0, n=20, df_added=2)
        assert stat == np.inf and p == 0.0

    def test_nesting_violation_rejected(self):
        with pytest.raises(InputError, match="nesting"):
            lr_test(1.0, 2.0, n=30, df_added=1)

    def test_invalid_df(self):
        with pytest.raises(InputError):
            lr_test(2.0, 1.0, n=30, df_added=0)
        with pytest.raises(InputError):
            lr_test(2.0, 1.0, n=30, df_added=1.5)

    def test_incomplete_gamma_cross_oracle(self):
        # scipy's regularized upper incomplete gamma vs an independent
        # series / continued-fraction evaluation, df = 1..30
        for df in range(1, 31):
            a = df / 2.0
            for x in (0.01, 0.5, 1.0, 2.5, a, a + 1.0, 2 * a + 3.0, 40.0):
                want = gammainc_upper_series_cf(a, x)
                got = float(scipy.special.gammaincc(a, x))
                assert got == pytest.approx(want, abs=1e-10, rel=1e-10)


def _fitted(scenario_fn, seed):
    sc = scenario_fn(seed)
    ds, _ = generate(sc)
    cfg = JpsConfig(x_z=sc.covariate_names(), x_g=sc.covariate_names())
    gps = fit_treatment_models(ds, cfg)
    scores = predict_scores(gps, ds)
    return ds, gps, scores


class TestBalanceCheck:
    def test_report_structure(self):
        ds, gps, scores = _fitted(scenario_null, 1)
        report = balance_check(ds, gps, scores)
        assert not report.step1.skipped and not report.step2.skipped
        assert report.step1.df == 3 and report.step2.df == 3
        assert 0 <= report.step1.p_value <= 1
        assert report.step1.lr_stat >= 0
        assert set(report.shrinkage) == {"x0", "x1", "x2"}
        table = report.format_table()
        assert "individual score" in table and "neighborhood score" in table
        payload = report.to_payload()
        assert payload["step1"]["df"] == 3

    def test_null_calibration_rejection_rate(self):
        # randomized treatments: the two-step decision at 5% stays in band
        rejections = 0
        trials = 60
        for t in range(trials):
            ds, gps, scores = _fitted(scenario_null, 100 + t)
            rejections += balance_check(ds, gps, scores).rejects(0.05)
        rate = rejections / trials
        assert 0.0 <= rate <= 0.15

    def test_withheld_scores_power(self):
        # constants in place of the fitted scores: the cubic collapses and the
        # confounded covariates must roar back
        ds, gps, scores = _fitted(scenario_strong_confounding, 5)
        wrong = PropensityScores(phi=np.full(ds.n, 0.4), lam=np.full(ds.n, 0.4))
        report = balance_check(ds, gps, wrong)
        assert report.step1.p_value < 0.01
        assert report.step2.p_value < 0.01
        # the degenerate polynomial columns were dropped, with df preserved
        assert "phi^2" in report.step1.dropped_columns or "phi" in report.step1.dropped_columns

    def test_step_dropping_keeps_models_nested(self):
        # constant scores collapse the polynomial basis; the restricted and
        # full fits must stay nested so the statistic is still >= 0
        ds, gps, scores = _fitted(scenario_strong_confounding, 6)
        wrong = PropensityScores(phi=np.full(ds.n, 0.4), lam=np.full(ds.n, 0.4))
        report = balance_check(ds, gps, wrong)
        assert report.step1.lr_stat >= 0 and report.step2.lr_stat >= 0
        assert set(report.step1.dropped_columns) == {"phi", "phi^2", "phi^3"}

    def test_zero_covariates_skip_with_marker(self):
        sc = scenario_null(3)
        ds, _ = generate(sc)
        cfg = JpsConfig(x_z=(), x_g=())
        gps = fit_treatment_models(ds, cfg)
        scores = predict_scores(gps, ds)
        report = balance_check(ds, gps, scores)
        assert report.step1.skipped and report.step1.df == 0
        assert report.step2.skipped and report.step2.df == 0
        assert report.step1.p_value is None
        assert "skipped" in report.format_table()

    def test_shrinkage_ratios_fall_with_scores(self):
        ds, gps, scores = _fitted(scenario_strong_confounding, 7)
        report = balance_check(ds, gps, scores)
        row = report.shrinkage["x0"]
        assert row["z"]["ratio"] is not None
        # conditioning on the scores shrinks x0's association with Z
        assert row["z"]["ratio"] < 1.0
