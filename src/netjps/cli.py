"""Batch command-line front-end.

Subcommands: ``exposure``, ``fit``, ``drf``, ``balance``, ``simulate``.
Every run is driven by one config file (``--config``); ``--out`` and
``--seed`` override the config.  On failure a machine-readable JSON error is
written to stderr and the exit code is the error class's ``exit_code``.  Set
NETJPS_LOG=debug|info|warning for log verbosity.
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import balance as balance_mod
from . import bootstrap as bootstrap_mod
from . import io as io_mod
from . import jps
from . import synth
from .config import load_config
from .dataset import PanelDataset, add_neighborhood_covariate, attach_exposure, check_unique_keys
from .errors import ConfigError, NetjpsError, UnboundColumnError
from .network import build_adjacency

logger = logging.getLogger(__name__)

MISSING_FILE_EXIT = 3


def _load_dataset(cfg):
    """Ingest panel + edges, attach exposures and neighborhood covariates."""
    if cfg.panel is None or cfg.edges is None:
        raise ConfigError("config must bind 'panel' and 'edges' file paths")
    c = cfg.columns
    units, periods, columns = io_mod.read_panel_csv(cfg.panel, c.unit, c.period)
    for name in (c.outcome, c.treatment):
        if name not in columns:
            raise UnboundColumnError(f"bound column {name!r} not found in {cfg.panel}")
    y = columns.pop(c.outcome)
    z = columns.pop(c.treatment)
    dataset = PanelDataset(units=units, periods=periods, y=y, z=z, covariates=columns)
    check_unique_keys(dataset)

    adj = build_adjacency(io_mod.read_edges_csv(cfg.edges), dataset.keys())
    dataset = attach_exposure(dataset, adj, cfg.exposure_mode)
    for spec in cfg.neighborhood:
        dataset = add_neighborhood_covariate(dataset, adj, spec)
    for name in (*c.x_z, *c.x_g):
        if name not in dataset.covariates:
            raise UnboundColumnError(f"bound covariate {name!r} not found in the panel")
    return dataset, adj


def _jps_config(cfg):
    c = cfg.columns
    if not c.x_z or (cfg.variant in ("jps", "both") and not c.x_g):
        raise ConfigError("columns.x_z and columns.x_g must be non-empty for fitting")
    return jps.JpsConfig(x_z=c.x_z, x_g=c.x_g, grid=cfg.grid)


def _outdir(cfg):
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_exposure(cfg):
    dataset, _ = _load_dataset(cfg)
    out = _outdir(cfg)
    io_mod.write_exposure_csv(dataset, out / "exposure.csv",
                              unit_col=cfg.columns.unit, period_col=cfg.columns.period)
    print(f"wrote {out / 'exposure.csv'} ({dataset.n} rows)")
    return 0


def _run_variants(cfg, config, dataset):
    """The joint and/or naive pipeline results the configured variant asks for."""
    result = nres = None
    if cfg.variant in ("jps", "both"):
        result = jps.run_jps(dataset, config)
    if cfg.variant in ("naive", "both"):
        nres = jps.run_naive(dataset, config)
    return result, nres


def _fit_summary(cfg, n, result, nres):
    summary = {"variant": cfg.variant, "n": n}
    if result is not None:
        summary["boxcox"] = {"k": result.gps.boxcox.k, "skewness": result.gps.boxcox.skewness}
        summary["treatment_models"] = {
            "individual": io_mod.linear_fit_payload(result.gps.z_model),
            "neighborhood": io_mod.linear_fit_payload(result.gps.g_model),
        }
        summary["outcome_model"] = io_mod.linear_fit_payload(result.outcome.fit)
    if nres is not None:
        summary["naive"] = {
            "boxcox": {"k": nres.boxcox.k, "skewness": nres.boxcox.skewness},
            "individual_model": io_mod.linear_fit_payload(nres.z_model),
            "outcome_model": io_mod.linear_fit_payload(nres.outcome.fit),
        }
    return summary


def cmd_fit(cfg):
    dataset, _ = _load_dataset(cfg)
    out = _outdir(cfg)
    result, nres = _run_variants(cfg, _jps_config(cfg), dataset)
    io_mod.write_json(_fit_summary(cfg, dataset.n, result, nres), out / "fit_summary.json")
    for label, res in (("outcome_model", result), ("naive outcome_model", nres)):
        if res is not None:
            fit = res.outcome.fit
            print(f"{label} ({len(fit.names)} terms)")
            for t, b in zip(fit.names, fit.theta):
                print(f"  {t:<12} {b: .6g}")
    print(f"wrote {out / 'fit_summary.json'}")
    return 0


def cmd_drf(cfg):
    """Write each estimator's curves, bands and effects.

    The first estimator that ran (the joint one when it ran) writes
    ``drf.json``, ``effects.json`` and ``drf_*.csv``; the naive estimator
    run beside it writes ``naive_drf.json`` and ``naive_marginal_z.csv``.
    """
    dataset, _ = _load_dataset(cfg)
    out = _outdir(cfg)
    config = _jps_config(cfg)
    result, nres = _run_variants(cfg, config, dataset)
    io_mod.write_json(_fit_summary(cfg, dataset.n, result, nres), out / "fit_summary.json")

    drfs = [res.drf for res in (result, nres) if res is not None]
    for i, drf in enumerate(drfs):
        stem = "drf" if i == 0 else "naive"
        with_g = drf.g_grid is not None
        report = jps.effects(drf, cfg.contrasts if with_g
                             else jps.ContrastSpec(z_pairs=cfg.contrasts.z_pairs))
        bands = None
        if cfg.bootstrap.b >= 2:
            bands = bootstrap_mod.bootstrap_drf(dataset, config, drf, cfg.bootstrap.b,
                                                cfg.bootstrap.seed, level=cfg.bootstrap.level)
        if with_g:
            io_mod.write_drf_surface_csv(drf, out / f"{stem}_surface.csv", bands=bands)
        for axis in ("z", "g") if with_g else ("z",):
            io_mod.write_marginal_csv(drf, axis, out / f"{stem}_marginal_{axis}.csv", bands=bands)
        if i == 0:
            io_mod.write_json(report, out / "effects.json")
        io_mod.write_json(io_mod.drf_payload(drf, effects=report, bands=bands),
                          out / ("drf.json" if i == 0 else f"{stem}_drf.json"))
    print(f"wrote dose-response outputs to {out}")
    return 0


def cmd_balance(cfg):
    dataset, _ = _load_dataset(cfg)
    out = _outdir(cfg)
    config = _jps_config(cfg)
    gps = jps.fit_treatment_models(dataset, config)
    scores = jps.predict_scores(gps, dataset)
    report = balance_mod.balance_check(dataset, gps, scores)
    io_mod.write_json(report.to_payload(), out / "balance.json")
    print(report.format_table())
    print(f"wrote {out / 'balance.json'}")
    return 0


def cmd_simulate(cfg):
    if cfg.scenario is None:
        raise ConfigError("simulate requires scenario.* keys in the config")
    out = _outdir(cfg)
    scenario = cfg.scenario
    dataset, adj = synth.generate(scenario)
    io_mod.write_panel_csv(dataset, out / "panel.csv",
                           unit_col=cfg.columns.unit, period_col=cfg.columns.period,
                           outcome_col=cfg.columns.outcome, treatment_col=cfg.columns.treatment)
    io_mod.write_edges_csv(adj, out / "edges.csv")

    x_names = scenario.covariate_names()
    config = jps.JpsConfig(
        x_z=cfg.columns.x_z or x_names,
        x_g=cfg.columns.x_g or x_names,
        grid=cfg.grid,
    )
    drf = jps.run_jps(dataset, config).drf
    naive = jps.run_naive(dataset, config).drf
    oracle = synth.oracle_drf(scenario, drf.z_grid, drf.g_grid, m=cfg.oracle_m)

    io_mod.write_json(oracle, out / "oracle.json")
    io_mod.write_json(io_mod.drf_payload(drf, effects=jps.effects(drf, cfg.contrasts)),
                      out / "drf.json")

    truth = oracle.argmax_z()
    comparison = {"sd_y": np.std(dataset.y)}
    for name, est in (("jps", drf), ("naive", naive)):
        errors = {"mean_abs_error_marginal_z": np.abs(est.marginal_z - oracle.marginal_z).mean()}
        if est.surface is not None:
            # fmax skips NaN cells, and an all-flagged surface gives NaN (null)
            errors["max_abs_error_surface"] = np.fmax.reduce(np.abs(est.surface - oracle.surface),
                                                             axis=None)
        best = jps.finite_argmax(est.marginal_z)
        comparison[name] = {
            **errors,
            "argmax_z": None if best is None else est.z_grid[best],
            "argmax_steps_from_oracle": None if None in (best, truth) else abs(best - truth),
        }
    comparison["oracle_argmax_z"] = None if truth is None else oracle.z_grid[truth]
    io_mod.write_json(comparison, out / "comparison.json")
    print((out / "comparison.json").read_text(encoding="utf-8"), end="")
    return 0


_COMMANDS = {
    "exposure": cmd_exposure,
    "fit": cmd_fit,
    "drf": cmd_drf,
    "balance": cmd_balance,
    "simulate": cmd_simulate,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="netjps",
        description="direct and spillover dose-response estimation on weighted directed networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None,
                       help="override bootstrap/scenario seed (u64)")
    return parser


def main(argv=None):
    level = os.environ.get("NETJPS_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg = replace(cfg, out=args.out)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be a non-negative integer")
            cfg = replace(cfg, bootstrap=replace(cfg.bootstrap, seed=args.seed))
            if cfg.scenario is not None:
                cfg = replace(cfg, scenario=replace(cfg.scenario, seed=args.seed))
        return _COMMANDS[args.command](cfg)
    except FileNotFoundError as exc:
        _emit_error("missing-file", str(exc))
        return MISSING_FILE_EXIT
    except NetjpsError as exc:
        _emit_error(exc.code, str(exc))
        return exc.exit_code


def _emit_error(code, message):
    json.dump({"error": code, "message": message}, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
