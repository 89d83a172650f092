"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
Criterion 6's coverage study is the slow suite: enable with NETJPS_SLOW=1.
"""

import json
import os
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from netjps import synth
from netjps.bootstrap import bootstrap_drf
from netjps.cli import main
from netjps.dataset import PanelDataset, attach_exposure
from netjps.jps import ContrastSpec, GridPolicy, JpsConfig, effects, run_jps, run_naive
from netjps.linear_model import fit_ols
from netjps.network import build_adjacency
from netjps.transforms import boxcox_zero_skew, skewness

from oracles import dense_pipeline, loop_exposure, normal_equations_ols


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d}: FAIL - {desc}")
        raise
    print(f"criterion {n:2d}: PASS - {desc}")


# ---------------------------------------------------------------- criterion 1

def exposure(adj, z, mode="plain"):
    """attach_exposure on one row per key of z, returned keyed like z."""
    keys = list(z)
    ds = PanelDataset(units=[u for u, _ in keys], periods=[p for _, p in keys],
                      y=np.zeros(len(keys)), z=[z[k] for k in keys], covariates={})
    return dict(zip(keys, attach_exposure(ds, adj, mode).g))


def test_criterion_1_exposure_exactness():
    with criterion(1, "exposure exactness (hand cases 1e-12, 200-graph oracle, < 1 s)"):
        t0 = time.monotonic()
        nodes = [("A", 0), ("B", 0), ("C", 0)]
        adj = build_adjacency([("B", "A", 0, 2.0), ("C", "A", 0, 0.0)], nodes)
        z = {("A", 0): 5.0, ("B", 0): 1.0, ("C", 0): 1.0}
        assert abs(exposure(adj, z)[("A", 0)] - 2.0 / 3.0) < 1e-12

        adj2 = build_adjacency(
            [("B", "A", 0, 2.0), ("C", "A", 0, 0.0), ("C", "B", 0, 4.0)], nodes
        )
        assert abs(exposure(adj2, z, "trade_normalized")[("A", 0)] - 2.0 / 9.0) < 1e-12

        nodes5 = [(u, 0) for u in range(5)]
        edges5 = [(0, 1, 0, 1.5), (2, 1, 0, 0.5), (3, 4, 0, 2.0), (1, 4, 0, 1.0)]
        z5 = {(u, 0): float(u + 1) for u in range(5)}
        got = exposure(build_adjacency(edges5, nodes5), z5)
        assert abs(got[(1, 0)] - (1.5 * 1.0 + 0.5 * 3.0) / 5.0) < 1e-12
        assert abs(got[(4, 0)] - (2.0 * 4.0 + 1.0 * 2.0) / 5.0) < 1e-12

        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 21))
            nodes_r = [(u, 0) for u in range(n)]
            edges_r = [
                (i, j, 0, float(rng.exponential(1.0)))
                for i in range(n) for j in range(n)
                if i != j and rng.random() < 0.3
            ]
            zr = {(u, 0): float(rng.normal()) for u in range(n)}
            got = exposure(build_adjacency(edges_r, nodes_r), zr)
            want = loop_exposure(edges_r, nodes_r, zr)
            for key in got:
                assert abs(got[key] - want[key]) < 1e-12 + 1e-10 * abs(want[key])
        assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_boxcox():
    with criterion(2, "Box-Cox: |skew(Z*)| < 1e-6 on 100 samples; lognormal |k| < 0.1; < 5 s"):
        t0 = time.monotonic()
        rng = np.random.default_rng(1)
        for i in range(100):
            if i % 3 == 0:
                z = rng.gamma(rng.uniform(0.5, 6.0), size=500) + 0.01
            elif i % 3 == 1:
                z = rng.lognormal(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.2), size=500)
            else:
                z = rng.uniform(0.1, 5.0, size=500) ** rng.uniform(0.5, 2.0)
            fit, zstar = boxcox_zero_skew(z)
            assert abs(skewness(zstar)) < 1e-6
        for _ in range(5):
            z = rng.lognormal(0.0, 1.0, size=10_000)
            fit, _ = boxcox_zero_skew(z)
            assert abs(fit.k) < 0.1
        assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_ols_oracle():
    with criterion(3, "OLS vs normal-equations oracle 1e-8; orthogonality 1e-8; < 5 s"):
        t0 = time.monotonic()
        rng = np.random.default_rng(2)
        for _ in range(100):
            n, p = int(rng.integers(30, 80)), int(rng.integers(2, 7))
            x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
            y = rng.normal(size=n)
            fit = fit_ols(x, y)
            want = normal_equations_ols(x, y)
            assert np.max(np.abs(fit.theta - want)) < 1e-8
            r = y - x @ fit.theta
            scale = np.linalg.norm(x, axis=0) * np.linalg.norm(y)
            assert np.all(np.abs(x.T @ r) < 1e-8 * scale)
        assert time.monotonic() - t0 < 5.0


# ------------------------------------------------------------ criteria 4 + 5

N_REPLICATES = 20
INTERIOR = slice(1, -1)


@pytest.fixture(scope="module")
def confounded_study():
    """20 Monte Carlo replicates of the confounded benchmark on a fixed grid."""
    t0 = time.monotonic()
    sc = synth.scenario_confounded(seed=0)

    # stationary 20x20 grid between the 5th and 95th percentiles
    pool_z, pool_g = [], []
    for r in range(10):
        ds, _ = synth.generate(replace(sc, seed=9_000 + r))
        pool_z.append(ds.z)
        pool_g.append(ds.g)
    pool_z, pool_g = np.concatenate(pool_z), np.concatenate(pool_g)
    z_grid = np.linspace(*np.percentile(pool_z, [5, 95]), 20)
    g_grid = np.linspace(*np.percentile(pool_g, [5, 95]), 20)

    oracle = synth.oracle_drf(sc, z_grid, g_grid, m=100_000)
    assert np.max(oracle.mc_se_z) < 0.2 * 0.05 * 0.5  # oracle noise << tolerance

    cfg = JpsConfig(
        x_z=sc.covariate_names(), x_g=sc.covariate_names(),
        grid=GridPolicy(z_values=tuple(z_grid), g_values=tuple(g_grid)),
    )
    rows = []
    for rep in range(1, N_REPLICATES + 1):
        ds, _ = synth.generate(replace(sc, seed=rep))
        jres = run_jps(ds, cfg)
        nres = run_naive(ds, cfg)
        surf_err = np.abs(jres.drf.surface - oracle.surface)[INTERIOR, INTERIOR]
        jmz = np.abs(jres.drf.marginal_z - oracle.marginal_z)
        nmz = np.abs(nres.drf.marginal_z - oracle.marginal_z)
        rows.append({
            "sd_y": float(np.std(ds.y)),
            "max_surf_err": float(surf_err.max()),
            "jps_mz_err": float(jmz.mean()),
            "naive_mz_err": float(nmz.mean()),
            "jps_argmax_dev": abs(int(np.argmax(jres.drf.marginal_z)) - oracle.argmax_z()),
            "naive_argmax_dev": abs(int(np.argmax(nres.drf.marginal_z)) - oracle.argmax_z()),
        })
    return {"rows": rows, "elapsed": time.monotonic() - t0}


def test_criterion_4_unbiased_recovery(confounded_study):
    with criterion(4, "JPS interior-surface max error < 0.05 sd(Y), 20-replicate mean; < 2 min"):
        rows = confounded_study["rows"]
        rel = [r["max_surf_err"] / (0.05 * r["sd_y"]) for r in rows]
        assert np.mean(rel) < 1.0
        assert confounded_study["elapsed"] < 120.0


def test_criterion_5_naive_bias(confounded_study):
    with criterion(5, "naive error >= 2x JPS; naive argmax >= 2 steps off, JPS within 1"):
        rows = confounded_study["rows"]
        naive_err = np.mean([r["naive_mz_err"] for r in rows])
        jps_err = np.mean([r["jps_mz_err"] for r in rows])
        assert naive_err >= 2.0 * jps_err
        assert np.mean([r["naive_argmax_dev"] for r in rows]) >= 2.0
        assert np.mean([r["jps_argmax_dev"] for r in rows]) <= 1.0


# ---------------------------------------------------------------- criterion 6

def _coverage_scenario(seed=0):
    # sparse graph and several small periods keep exposures close to
    # cross-sectionally independent, which the row bootstrap assumes
    return synth.Scenario(
        n_units=125, n_periods=4, edge_prob=0.06,
        weight_log_mean=1.3, weight_log_sd=0.5,
        n_covariates=3, treatment_intercept=0.4,
        treatment_coefs=(0.2, 0.1, -0.1), treatment_sd=0.2,
        outcome=synth.OutcomeRule(intercept=1.0, z=1.0, z2=-0.3, g=0.5, zg=0.1),
        outcome_sd=0.35, seed=seed,
    )


def test_criterion_6_bootstrap_determinism():
    with criterion(6, "bootstrap bands bit-identical under a fixed seed"):
        sc = _coverage_scenario(3)
        ds, _ = synth.generate(sc)
        cfg = JpsConfig(x_z=sc.covariate_names(), x_g=sc.covariate_names(),
                        grid=GridPolicy(n_z=6, n_g=5))
        point = run_jps(ds, cfg).drf
        b1 = bootstrap_drf(ds, cfg, point, b=30, seed=123)
        b2 = bootstrap_drf(ds, cfg, point, b=30, seed=123)
        assert np.array_equal(b1.surface_lo, b2.surface_lo)
        assert np.array_equal(b1.surface_hi, b2.surface_hi)
        assert np.array_equal(b1.marginal_z_lo, b2.marginal_z_lo)
        assert np.array_equal(b1.marginal_z_hi, b2.marginal_z_hi)


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("NETJPS_SLOW") != "1",
                    reason="coverage study (~70 s on 2 cores); set NETJPS_SLOW=1")
def test_criterion_6_bootstrap_coverage():
    with criterion(6, "95% bands cover true marginal at 5 interior points in [88%, 99%]; < 30 min"):
        t0 = time.monotonic()
        sc = _coverage_scenario(0)
        # interior points of the scenario's stationary support
        # (z spans ~[0.89, 2.50], g ~[0.15, 0.68] between the 5th/95th pcts)
        z_points = np.array([1.15, 1.3, 1.45, 1.6, 1.75])
        g_grid = np.linspace(0.2, 0.7, 6)
        oracle = synth.oracle_drf(sc, z_points, g_grid, m=100_000)
        cfg = JpsConfig(
            x_z=sc.covariate_names(), x_g=sc.covariate_names(),
            grid=GridPolicy(z_values=tuple(z_points), g_values=tuple(g_grid)),
        )
        hits = np.zeros(5)
        datasets = 100
        for t in range(datasets):
            ds, _ = synth.generate(replace(sc, seed=20_000 + t))
            bands = bootstrap_drf(ds, cfg, run_jps(ds, cfg).drf, b=200, seed=t)
            hits += (bands.marginal_z_lo <= oracle.marginal_z) & (
                oracle.marginal_z <= bands.marginal_z_hi
            )
        coverage = hits / datasets
        print(f"  coverage per point: {np.round(coverage, 3)}")
        assert np.all(coverage >= 0.88) and np.all(coverage <= 0.99)
        assert time.monotonic() - t0 < 1800.0


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_balance_calibration():
    with criterion(7, "balance: null rejection in [1%, 12%] (200 reps); power > 90%; < 2 min"):
        t0 = time.monotonic()
        from netjps.balance import balance_check
        from netjps.jps import PropensityScores, fit_treatment_models, predict_scores

        def run_check(sc, wrong_scores=False):
            ds, _ = synth.generate(sc)
            cfg = JpsConfig(x_z=sc.covariate_names(), x_g=sc.covariate_names())
            gps = fit_treatment_models(ds, cfg)
            scores = predict_scores(gps, ds)
            if wrong_scores:
                scores = PropensityScores(phi=np.full(ds.n, 0.4), lam=np.full(ds.n, 0.4))
            return balance_check(ds, gps, scores).rejects(0.05)

        nulls = sum(
            run_check(replace(synth.scenario_null(seed=s), n_units=800))
            for s in range(200)
        )
        rate = nulls / 200.0
        print(f"  null rejection rate: {rate:.3f}")
        assert 0.01 <= rate <= 0.12

        power_hits = sum(
            run_check(synth.scenario_strong_confounding(seed=s), wrong_scores=True)
            for s in range(100)
        )
        power = power_hits / 100.0
        print(f"  withheld-score rejection rate: {power:.3f}")
        assert power > 0.90
        assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_effects():
    with criterion(8, "delta(z,z) = 0 exactly; quadratic derivative within 1e-2 at interior"):
        sc = synth.scenario_quadratic(seed=1)
        ds, _ = synth.generate(sc)
        cfg = JpsConfig(x_z=sc.covariate_names(), x_g=sc.covariate_names())
        res = run_jps(ds, cfg)
        z0 = float(res.drf.z_grid[4])
        rep = effects(res.drf, ContrastSpec(z_pairs=((z0, z0),)))
        assert rep.direct[0][2] == 0.0
        true_d = 1.0 - 0.6 * res.drf.z_grid
        assert np.max(np.abs(rep.dz[1:-1] - true_d[1:-1])) < 1e-2


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_pipeline_dense_oracle():
    with criterion(9, "full pipeline equals 50-digit dense re-implementation to 1e-10"):
        sc = synth.Scenario(
            n_units=30, n_periods=1, edge_prob=0.3,
            weight_log_mean=0.8, weight_log_sd=0.5,
            n_covariates=2, treatment_coefs=(0.25, 0.1), treatment_sd=0.3,
            treatment_intercept=0.3,
            outcome=synth.OutcomeRule(intercept=1.0, z=0.8, z2=-0.2, g=0.4,
                                      zg=0.05, x=(0.1, 0.1)),
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


# --------------------------------------------------------------- criterion 10

SIM_CFG = """
out = {out}
variant = jps
grid.n_z = 8
grid.n_g = 6
oracle.m = 2000
scenario.n_units = 80
scenario.n_periods = 2
scenario.edge_prob = 0.2
scenario.weight_log_mean = 0.8
scenario.n_covariates = 2
scenario.treatment_coefs = 0.2, -0.1
scenario.treatment_sd = 0.2
scenario.outcome_sd = 0.1
scenario.seed = 21
scenario.outcome.intercept = 1.0
scenario.outcome.z = 1.0
scenario.outcome.g = 0.5
scenario.outcome.x = 0.1, 0.1
"""

RUN_CFG = """
panel = {panel}
edges = {edges}
out = {out}
variant = jps
columns.unit = unit
columns.period = period
columns.outcome = y
columns.treatment = z
columns.x_z = x0, x1
columns.x_g = x0, x1
grid.n_z = 8
grid.n_g = 6
"""


def test_criterion_10_cli_round_trip(tmp_path):
    with criterion(10, "simulate -> CSV -> drf reproduces the surface bit-exactly; 16-term table"):
        simdir = tmp_path / "sim"
        cfgfile = tmp_path / "sim.cfg"
        cfgfile.write_text(SIM_CFG.format(out=simdir))
        assert main(["simulate", "--config", str(cfgfile)]) == 0

        from netjps.config import parse_config

        scenario = parse_config(SIM_CFG.format(out=simdir)).scenario
        ds, _ = synth.generate(scenario)
        ref = run_jps(ds, JpsConfig(x_z=("x0", "x1"), x_g=("x0", "x1"),
                                    grid=GridPolicy(n_z=8, n_g=6)))

        rundir = tmp_path / "run"
        runfile = tmp_path / "run.cfg"
        runfile.write_text(RUN_CFG.format(
            panel=simdir / "panel.csv", edges=simdir / "edges.csv", out=rundir))
        assert main(["drf", "--config", str(runfile)]) == 0

        payload = json.loads((rundir / "drf.json").read_text())
        assert np.array_equal(np.array(payload["surface"]), ref.drf.surface)
        assert np.array_equal(np.array(payload["marginal_z"]), ref.drf.marginal_z)
        assert np.array_equal(np.array(payload["marginal_g"]), ref.drf.marginal_g)

        summary = json.loads((rundir / "fit_summary.json").read_text())
        assert len(summary["outcome_model"]["terms"]) == 16
