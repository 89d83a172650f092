#!/usr/bin/env python3
"""Monte Carlo comparison of the joint estimator against the naive one.

Replays the confounded benchmark several times and tabulates marginal-curve
errors and optimum locations against the analytic ground truth, mirroring
the headline claim that ignoring interference shifts the estimated optimum.
"""

import argparse
from dataclasses import replace

import numpy as np

from netjps import synth
from netjps.jps import GridPolicy, JpsConfig, finite_argmax, run_jps, run_naive


def optimum(z_grid, curve):
    """The grid value at the best finite entry of ``curve``, or n/a."""
    best = finite_argmax(curve)
    return "n/a" if best is None else f"{z_grid[best]:.3f}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--replicates", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--oracle-draws", type=int, default=100_000)
    args = ap.parse_args()

    sc = synth.scenario_confounded(seed=args.seed)
    pool_z, pool_g = [], []
    for r in range(10):
        ds, _ = synth.generate(replace(sc, seed=9_000 + args.seed + r))
        pool_z.append(ds.z)
        pool_g.append(ds.g)
    z_grid = np.linspace(*np.percentile(np.concatenate(pool_z), [5, 95]), 20)
    g_grid = np.linspace(*np.percentile(np.concatenate(pool_g), [5, 95]), 20)
    oracle = synth.oracle_drf(sc, z_grid, g_grid, m=args.oracle_draws)
    print(f"oracle optimum z* = {optimum(z_grid, oracle.marginal_z)} "
          f"(mc se <= {oracle.mc_se_z.max():.2e})")

    cfg = JpsConfig(
        x_z=sc.covariate_names(), x_g=sc.covariate_names(),
        grid=GridPolicy(z_values=tuple(z_grid), g_values=tuple(g_grid)),
    )
    print(f"{'rep':>4} {'jps err':>9} {'naive err':>10} {'jps z*':>8} {'naive z*':>9}")
    jerrs, nerrs = [], []
    for rep in range(1, args.replicates + 1):
        ds, _ = synth.generate(replace(sc, seed=args.seed + rep))
        jdrf = run_jps(ds, cfg).drf
        ndrf = run_naive(ds, cfg).drf
        jerr = np.abs(jdrf.marginal_z - oracle.marginal_z).mean()
        nerr = np.abs(ndrf.marginal_z - oracle.marginal_z).mean()
        jerrs.append(jerr)
        nerrs.append(nerr)
        print(f"{rep:>4} {jerr:>9.4f} {nerr:>10.4f} "
              f"{optimum(z_grid, jdrf.marginal_z):>8} {optimum(z_grid, ndrf.marginal_z):>9}")
    print(f"mean absolute marginal error: jps {np.mean(jerrs):.4f}, "
          f"naive {np.mean(nerrs):.4f} "
          f"(ratio {np.mean(nerrs) / np.mean(jerrs):.1f}x)")


if __name__ == "__main__":
    main()
