"""Benchmark workloads and their seeded input generators.

Every workload runs ``netjps drf`` with plain exposure on a synthetic panel
whose true dose-response surface is ``synth.OutcomeRule.base`` (covariates
are centred, so the covariate term averages out).  Generation is never
timed; the files are cached per (workload, seed) by ``run.py``.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from netjps import io as netjps_io
from netjps import synth

# Shared by the sparse workloads.  Same treatment/outcome family as
# synth.scenario_confounded: covariates drive the treatment, the edge weights
# (through the receiving unit's x0) and the outcome.
TREATMENT_INTERCEPT = 0.55
TREATMENT_SD = 0.2
WEIGHT_LOG_SD = 0.8
WEIGHT_COVARIATE_COEF = -0.25
OUTCOME = synth.OutcomeRule(intercept=1.0, z=1.0, z2=-0.3, g=0.5, zg=0.1)
OUTCOME_X_COEF = 0.01
OUTCOME_SD = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    n_units: int
    n_periods: int
    n_covariates: int
    in_degree: int | None  # None: synth.scenario_confounded's dense sampler
    grid: int
    variant: str
    b: int

    def covariates(self):
        return tuple(f"x{j}" for j in range(self.n_covariates))

    def config_text(self, panel, edges, out, seed):
        x = self.covariates()
        lines = [
            f"panel = {panel}",
            f"edges = {edges}",
            f"out = {out}",
            f"variant = {self.variant}",
            "exposure.mode = plain",
            f"columns.x_z = {', '.join(x)}",
            f"columns.x_g = {', '.join(x)}, nbr_x0",
            f"grid.n_z = {self.grid}",
            f"grid.n_g = {self.grid}",
            f"bootstrap.b = {self.b}",
            f"bootstrap.seed = {seed}",
            "neighborhood.nbr_x0 = weighted_mean:in:x0",
        ]
        return "\n".join(lines) + "\n"


# Why each workload exists: BENCHMARK.json and README.md.  boot_small's sizes
# restate synth.scenario_confounded, which its generator uses as is.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="boot_small",
            n_units=500, n_periods=4, n_covariates=5, in_degree=None,
            grid=20, variant="jps", b=100,
        ),
        Workload(
            name="ingest_large",
            n_units=8000, n_periods=2, n_covariates=3, in_degree=20,
            grid=20, variant="jps", b=2,
        ),
        Workload(
            name="fine_grid_both",
            n_units=1000, n_periods=4, n_covariates=5, in_degree=10,
            grid=60, variant="both", b=2,
        ),
    )
}


def _write_sparse_inputs(w, seed, panel_path, edges_path):
    """Fixed in-degree sampler: O(N * degree) memory, unlike synth.generate.

    Weights are log-normal with log-mean log(N / degree), so the plain
    exposure (1/N) sum_j w_ij z_j stays O(1) whatever N is.
    """
    rng = np.random.default_rng(seed)
    n, deg, kx = w.n_units, w.in_degree, w.n_covariates
    coefs = np.array([0.3] + [0.05] * (kx - 1))
    log_mean = math.log(n / deg)
    names = w.covariates()
    with open(panel_path, "w", encoding="utf-8", newline="") as pf, \
            open(edges_path, "w", encoding="utf-8", newline="") as ef:
        panel = csv.writer(pf)
        edges = csv.writer(ef)
        panel.writerow(["unit", "period", "y", "z", *names])
        edges.writerow(list(netjps_io.EDGE_COLUMNS))
        ys = []
        for t in range(w.n_periods):
            x = rng.normal(0.0, 1.0, size=(n, kx))
            z = np.exp(TREATMENT_INTERCEPT + x @ coefs + rng.normal(0.0, TREATMENT_SD, size=n))
            # deg distinct sources per target, never the target itself
            src = np.empty((n, deg), dtype=np.int64)
            for i in range(n):
                s = rng.choice(n - 1, size=deg, replace=False)
                src[i] = s + (s >= i)
            factor = np.clip(1.0 + WEIGHT_COVARIATE_COEF * x[:, 0], 0.0, None)
            wts = np.exp(rng.normal(log_mean, WEIGHT_LOG_SD, size=(n, deg))) * factor[:, None]
            g = (wts * z[src]).sum(axis=1) / n
            y = OUTCOME.base(z, g) + OUTCOME_X_COEF * x.sum(axis=1) \
                + rng.normal(0.0, OUTCOME_SD, size=n)
            ys.append(y)
            for i in range(n):
                panel.writerow([i, t, repr(float(y[i])), repr(float(z[i])),
                                *(repr(float(v)) for v in x[i])])
            for i in range(n):
                for k in range(deg):
                    if wts[i, k] > 0:
                        edges.writerow([int(src[i, k]), i, t, repr(float(wts[i, k]))])
    return float(np.std(np.concatenate(ys))), OUTCOME


def write_inputs(w, seed, panel_path, edges_path):
    """Write the workload's panel and edge CSVs; return (sd(Y), outcome rule)."""
    if w.in_degree is not None:
        return _write_sparse_inputs(w, seed, panel_path, edges_path)
    scenario = synth.scenario_confounded(seed)
    dataset, adj = synth.generate(scenario)
    netjps_io.write_panel_csv(dataset, panel_path)
    netjps_io.write_edges_csv(adj, edges_path)
    return float(np.std(dataset.y)), scenario.outcome

