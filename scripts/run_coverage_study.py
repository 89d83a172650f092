#!/usr/bin/env python3
"""Bootstrap interval coverage study.

Draws many datasets from one scenario, bootstraps the marginal dose-response
curve on each, and reports how often the 95% bands cover the analytic truth
at a handful of interior treatment levels.
"""

import argparse
from dataclasses import replace

import numpy as np

from netjps import synth
from netjps.bootstrap import bootstrap_drf
from netjps.jps import GridPolicy, JpsConfig, run_jps


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--datasets", type=int, default=100)
    ap.add_argument("--replicates", type=int, default=200, help="bootstrap B")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    # sparse graph, several small periods: exposures stay close to
    # cross-sectionally independent, as the row bootstrap assumes
    sc = synth.Scenario(
        n_units=125, n_periods=4, edge_prob=0.06,
        weight_log_mean=1.3, weight_log_sd=0.5,
        n_covariates=3, treatment_intercept=0.4,
        treatment_coefs=(0.2, 0.1, -0.1), treatment_sd=0.2,
        outcome=synth.OutcomeRule(intercept=1.0, z=1.0, z2=-0.3, g=0.5, zg=0.1),
        outcome_sd=0.35, seed=args.seed,
    )
    z_points = np.array([1.15, 1.3, 1.45, 1.6, 1.75])
    g_grid = np.linspace(0.2, 0.7, 6)
    oracle = synth.oracle_drf(sc, z_points, g_grid, m=100_000)
    cfg = JpsConfig(
        x_z=sc.covariate_names(), x_g=sc.covariate_names(),
        grid=GridPolicy(z_values=tuple(z_points), g_values=tuple(g_grid)),
    )

    hits = np.zeros(z_points.size)
    widths = np.zeros(z_points.size)
    for t in range(args.datasets):
        ds, _ = synth.generate(replace(sc, seed=20_000 + args.seed + t))
        bands = bootstrap_drf(ds, cfg, run_jps(ds, cfg).drf, b=args.replicates,
                              seed=args.seed + t)
        hits += (bands.marginal_z_lo <= oracle.marginal_z) & (
            oracle.marginal_z <= bands.marginal_z_hi
        )
        widths += bands.marginal_z_hi - bands.marginal_z_lo
        if (t + 1) % 10 == 0:
            print(f"  {t + 1}/{args.datasets} datasets done")

    print(f"{'z':>6} {'truth':>8} {'coverage':>9} {'mean width':>11}")
    for i, z in enumerate(z_points):
        print(f"{z:>6.2f} {oracle.marginal_z[i]:>8.4f} "
              f"{hits[i] / args.datasets:>9.3f} {widths[i] / args.datasets:>11.4f}")


if __name__ == "__main__":
    main()
