import warnings

import numpy as np
import pytest
from dataclasses import replace

from netjps.bootstrap import bootstrap_drf
from netjps.errors import BootstrapError, InputError, SingularDesignError
from netjps.io import drf_payload, jsonable
from netjps.jps import GridPolicy, JpsConfig, run_jps, run_naive
from netjps import bootstrap as bootstrap_mod
from netjps.synth import OutcomeRule, Scenario, generate, scenario_quadratic


def small_panel(seed=0, n_units=120, **kw):
    base = dict(
        n_units=n_units, n_periods=2, edge_prob=0.2,
        n_covariates=2, treatment_coefs=(0.2, -0.1), treatment_sd=0.2,
        outcome=OutcomeRule(intercept=1.0, z=1.0, g=0.5, x=(0.1, 0.1)),
        outcome_sd=0.1, seed=seed,
    )
    base.update(kw)
    sc = Scenario(**base)
    ds, _ = generate(sc)
    cfg = JpsConfig(x_z=sc.covariate_names(), x_g=sc.covariate_names(),
                    grid=GridPolicy(n_z=6, n_g=5))
    return ds, cfg, run_jps(ds, cfg).drf


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        ds, cfg, point = small_panel()
        b1 = bootstrap_drf(ds, cfg, point, b=25, seed=42)
        b2 = bootstrap_drf(ds, cfg, point, b=25, seed=42)
        assert np.array_equal(b1.surface_lo, b2.surface_lo)
        assert np.array_equal(b1.surface_hi, b2.surface_hi)
        assert np.array_equal(b1.marginal_z_lo, b2.marginal_z_lo)
        assert np.array_equal(b1.marginal_g_hi, b2.marginal_g_hi)

    def test_different_seed_differs(self):
        ds, cfg, point = small_panel()
        b1 = bootstrap_drf(ds, cfg, point, b=25, seed=42)
        b2 = bootstrap_drf(ds, cfg, point, b=25, seed=43)
        assert not np.array_equal(b1.marginal_z_lo, b2.marginal_z_lo)


class TestBands:
    def test_noiseless_outcome_gives_zero_width(self):
        # y exactly in the span of the (z, g) design columns: every replicate
        # reproduces the same surface
        ds, cfg, point = small_panel(
            outcome=OutcomeRule(intercept=1.0, z=1.0, z2=-0.2, g=0.5),
            outcome_sd=0.0, n_units=150,
        )
        bands = bootstrap_drf(ds, cfg, point, b=50, seed=7)
        inner = slice(1, -1)
        assert np.max(bands.surface_hi[inner, inner] - bands.surface_lo[inner, inner]) < 1e-6
        # marginals keep width from the resampled exposure distribution, but
        # the imputed surface itself is pinned by the noiseless outcome
        assert np.max(bands.marginal_z_hi - bands.marginal_z_lo) < 0.05

    def test_wider_level_never_narrower(self):
        ds, cfg, point = small_panel(seed=3)
        b95 = bootstrap_drf(ds, cfg, point, b=40, seed=9, level=0.95)
        b99 = bootstrap_drf(ds, cfg, point, b=40, seed=9, level=0.99)
        assert np.all(b99.surface_lo <= b95.surface_lo + 1e-15)
        assert np.all(b99.surface_hi >= b95.surface_hi - 1e-15)
        assert np.all(b99.marginal_z_lo <= b95.marginal_z_lo + 1e-15)
        assert np.all(b99.marginal_z_hi >= b95.marginal_z_hi - 1e-15)

    def test_band_order_and_point_inside_mostly(self):
        ds, cfg, point = small_panel(seed=5)
        bands = bootstrap_drf(ds, cfg, point, b=30, seed=1)
        assert np.all(bands.surface_lo <= bands.surface_hi)
        assert np.all(bands.marginal_z_lo <= bands.marginal_z_hi)
        assert bands.b_effective + bands.failures == bands.b

    def test_naive_variant_has_no_surface(self):
        ds, cfg, _ = small_panel(seed=6)
        point = run_naive(ds, cfg).drf
        bands = bootstrap_drf(ds, cfg, point, b=20, seed=2)
        assert bands.surface_lo is None and bands.marginal_g_lo is None
        assert bands.marginal_z_lo.shape == point.marginal_z.shape

    def test_flagged_cells_give_nan_bands(self):
        # z = 1e103 lies far outside the support: the point estimate flags
        # that surface row as NaN, and the bands are NaN exactly there
        ds, _, _ = small_panel(seed=2)
        cfg = JpsConfig(x_z=("x0", "x1"), x_g=("x0", "x1"),
                        grid=GridPolicy(z_values=(1.0, 1e103), n_g=5))
        point = run_jps(ds, cfg).drf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bands = bootstrap_drf(ds, cfg, point, b=3, seed=1)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)
                    and "invalid value" in str(w.message)]
        flagged = np.isnan(point.surface)
        assert flagged.any() and not flagged.all()
        for bound in (bands.surface_lo, bands.surface_hi):
            assert np.array_equal(np.isnan(bound), flagged)
            assert np.all(np.isfinite(bound[~flagged]))
        for curve, lo, hi in ((point.marginal_z, bands.marginal_z_lo, bands.marginal_z_hi),
                              (point.marginal_g, bands.marginal_g_lo, bands.marginal_g_hi)):
            for bound in (lo, hi):
                assert np.array_equal(np.isfinite(bound), np.isfinite(curve))


class TestFailureHandling:
    def test_validation(self):
        ds, cfg, point = small_panel()
        with pytest.raises(InputError, match="B >= 2"):
            bootstrap_drf(ds, cfg, point, b=1, seed=0)
        with pytest.raises(InputError, match="level"):
            bootstrap_drf(ds, cfg, point, b=5, seed=0, level=1.5)

    def test_failed_replicates_counted(self, monkeypatch):
        ds, cfg, point = small_panel()
        real = bootstrap_mod.run_jps
        calls = {"n": 0}

        def flaky(dataset, config):
            calls["n"] += 1
            if calls["n"] in (2, 4):  # replicates 1 and 3
                raise SingularDesignError("synthetic failure", columns=("x0",))
            return real(dataset, config)

        monkeypatch.setattr(bootstrap_mod, "run_jps", flaky)
        bands = bootstrap_drf(ds, cfg, point, b=20, seed=11)
        assert bands.failures == 2
        assert bands.b_effective == 18
        assert bands.b_effective + bands.failures == bands.b
        assert {r for r, _, _ in bands.failure_log} == {1, 3}
        # drf.json carries the log as [replicate, error code, message]
        assert jsonable(drf_payload(point, bands=bands))["bands"]["failure_log"] == [
            [1, "singular-design", "synthetic failure"],
            [3, "singular-design", "synthetic failure"],
        ]

    def test_too_many_failures_abort(self, monkeypatch):
        ds, cfg, point = small_panel()

        def broken(dataset, config):
            raise SingularDesignError("synthetic failure", columns=("x0",))

        monkeypatch.setattr(bootstrap_mod, "run_jps", broken)
        with pytest.raises(BootstrapError, match="failed"):
            bootstrap_drf(ds, cfg, point, b=10, seed=3)


@pytest.mark.slow
def test_interval_coverage_small():
    """Abbreviated coverage check (the full one is acceptance criterion 6)."""
    sc = scenario_quadratic(seed=0)
    z_points = np.array([1.2, 1.4, 1.6, 1.8, 2.0])
    from netjps.synth import oracle_drf

    oracle = oracle_drf(sc, z_points, np.array([1.0]), m=50_000)
    hits = np.zeros(5)
    trials = 30
    for t in range(trials):
        ds, _ = generate(replace(sc, seed=1000 + t))
        cfg = JpsConfig(x_z=sc.covariate_names(), x_g=sc.covariate_names(),
                        grid=GridPolicy(z_values=tuple(z_points), g_values=None))
        bands = bootstrap_drf(ds, cfg, run_jps(ds, cfg).drf, b=100, seed=t)
        hits += (bands.marginal_z_lo <= oracle.marginal_z) & (
            oracle.marginal_z <= bands.marginal_z_hi
        )
    assert np.all(hits / trials >= 0.8)
