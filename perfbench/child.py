"""One closed-loop repeat, run in a fresh interpreter by ``run.py``.

Times, in order: the cold import of ``netjps``; one ``netjps drf``
invocation through ``netjps.cli.main`` (with its peak RSS), unless
``--drf 0``; then, for ``--fill`` seconds, the library ingest through the
public functions in the CLI's order and ``run_jps`` on the ingested dataset.
A ``--drf 0`` repeat saves its last ``run_jps`` result as the reference; a
drf repeat checks that the CLI's ``drf.json`` is bit-identical to it.
Writes one JSON result file.

    python3 child.py --config CFG --out DIR --result FILE --reference FILE \
        --trace 0|1 --drf 0|1 --fill S [--cmd N --spans FILE]
"""

import argparse
import json
import resource
import statistics
import sys
from dataclasses import astuple
from pathlib import Path
from time import perf_counter


def ingest(cfg):
    """The CLI's ingest, step for step, through the public functions."""
    from netjps import io as netjps_io
    from netjps.dataset import (PanelDataset, add_neighborhood_covariate, attach_exposure,
                                check_unique_keys)
    from netjps.network import build_adjacency

    c = cfg.columns
    units, periods, columns = netjps_io.read_panel_csv(cfg.panel, c.unit, c.period)
    y = columns.pop(c.outcome)
    z = columns.pop(c.treatment)
    dataset = PanelDataset(units=units, periods=periods, y=y, z=z, covariates=columns)
    check_unique_keys(dataset)
    adj = build_adjacency(netjps_io.read_edges_csv(cfg.edges), dataset.keys())
    dataset = attach_exposure(dataset, adj, cfg.exposure_mode)
    for spec in cfg.neighborhood:
        dataset = add_neighborhood_covariate(dataset, adj, spec)
    return dataset


def sample(cfg, config, fill_s):
    """Time ingests and run_jps calls for about fill_s seconds.

    The next call is an ingest while ingests have taken no more than half
    the time of the run_jps calls, else a run_jps on the last ingested
    dataset, so run_jps gets about two thirds of the fill and ingest a third,
    whatever their costs.  A call starts only if
    it is expected (its kind's median so far) to end within fill_s; with
    fill_s > 0 at least one of each runs.
    Returns (ingest times, run_jps times, last DrfGrid or None, seconds spent).
    """
    from netjps.jps import run_jps

    ingest_s, point_s = [], []
    dataset = point = None
    begin = perf_counter()
    while fill_s > 0:
        ingesting = dataset is None or 2 * sum(ingest_s) <= sum(point_s)
        done = ingest_s if ingesting else point_s
        expected = statistics.median(done) if done else 0.0
        if point_s and perf_counter() - begin + expected > fill_s:
            break
        t0 = perf_counter()
        if ingesting:
            dataset = None  # let the previous dataset go before the next ingest
            dataset = ingest(cfg)
        else:
            point = None
            point = run_jps(dataset, config).drf
        done.append(perf_counter() - t0)
    return ingest_s, point_s, point, perf_counter() - begin


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--reference", required=True,
                    help="--drf 0 writes the last run_jps result here, --drf 1 checks against it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--drf", type=int, choices=(0, 1), required=True,
                    help="0: only the ingest / run_jps samples, and the reference")
    ap.add_argument("--fill", type=float, required=True,
                    help="seconds of ingest / run_jps samples after the drf invocation")
    ap.add_argument("--cmd", type=int, default=0, help="command id recorded on every span")
    ap.add_argument("--spans", help="traced runs: write the raw spans here")
    args = ap.parse_args()

    t0 = perf_counter()
    import netjps.cli
    import_s = perf_counter() - t0

    import numpy as np
    from netjps.config import load_config
    from netjps.jps import JpsConfig
    from tracer import BOOTSTRAP_SITE, SITES, Tracer, layer_summary

    result = {"import_s": import_s, "traced": bool(args.trace)}
    exit_code = 0
    if args.drf:
        # untraced repeats wrap only bootstrap_drf, to time the replicates
        tracer = Tracer(cmd=args.cmd)
        tracer.install(SITES if args.trace else (BOOTSTRAP_SITE,))
        t0 = perf_counter()
        exit_code = netjps.cli.main(["drf", "--config", args.config, "--out", args.out])
        drf_s = perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer.uninstall()
        result.update({
            "exit_code": exit_code, "drf_s": drf_s, "peak_rss_mb": peak_rss_mb,
            "boot_s": sum(s.end - s.start for s in tracer.spans
                          if s.name == "bootstrap.bootstrap_drf"),
            "boot_completed": tracer.counters.get("bootstrap.completed", 0),
            "boot_failures": tracer.counters.get("bootstrap.failures", 0),
        })
        if args.trace:
            result["layers"] = layer_summary(tracer, drf_s)
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as fh:
                    json.dump([astuple(s) for s in tracer.spans], fh)

    keys = ("z_grid", "g_grid", "surface", "marginal_z", "marginal_g")
    if exit_code == 0:
        cfg = load_config(args.config)
        config = JpsConfig(x_z=cfg.columns.x_z, x_g=cfg.columns.x_g, grid=cfg.grid)
        ingest_s, result["point_s"], point, result["fill_s"] = sample(cfg, config, args.fill)
        result["setup_s"] = [import_s + s for s in ingest_s]
        if not args.drf:
            np.savez(args.reference, **{key: getattr(point, key) for key in keys})
    if args.drf and exit_code == 0:
        with open(Path(args.out) / "drf.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        with np.load(args.reference) as reference:
            result["identical"] = all(
                np.array_equal(np.array(payload[key], dtype=float), reference[key])
                for key in keys)

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
