#!/usr/bin/env python3
"""netjps benchmark: closed-loop ``netjps drf`` runs on seeded synthetic panels.

    python3 perfbench/run.py --workload boot_small --seed 1 --seconds 40 --trace 0

Run from the repository root.  One child process at a time, each a fresh
interpreter (``child.py``), for about ``--seconds``: the first only times
ingest and ``run_jps``, the rest each time one ``netjps drf`` and then, where
they fit, more ingest and ``run_jps`` samples.  BLAS is pinned to one thread.
Every drf repeat's outputs are checked.  Prints a table of every
metric, then the environment, then one JSON line with the end-to-end metrics
(``--trace 0``) or the per-layer metrics from traced repeats (``--trace 1``).
See perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import numpy as np

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
KEEP_INPUT_SETS = 8
CHILD_DEADLINE_S = 165  # the whole run must end within 180 s
MIN_FILL_S = 1.5
FILL_SHARE = 0.5  # of a drf repeat's fixed part
OPENING_FILL_SHARE = 0.1  # of --seconds
MIN_COVERAGE = 0.95
MAX_SURFACE_ERR_SD = 0.25  # a broken estimator misses the truth by O(sd(Y))
# registered as the lower quartile of the run's samples, not the median: see README
LOWER_QUARTILE = ("point_s",)
# per-layer counters: (name, span whose wrap site takes them, unit)
COUNTERS = (
    ("io.rows_read", "io.read_panel_csv", "count"),
    ("io.bytes_written", "io.write_json", "B"),
    ("network.edges", "network.build_adjacency", "count"),
    ("network.adjacency_bytes", "network.build_adjacency", "B"),
    ("linear_model.outcome_rows_built", "linear_model.build_outcome_matrix", "count"),
    ("jps.impute_drf.cells", "jps.impute_drf", "count"),
    ("jps.unit_level_bytes", "jps.impute_drf", "B"),
    ("bootstrap.failures", "bootstrap.bootstrap_drf", "count"),
)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def source_hash():
    """sha256 of the netjps sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "netjps").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure_inputs(workload, seed):
    """Panel + edge CSVs for (workload, seed), generated once and cached."""
    from workloads import write_inputs

    base = CACHE / "inputs"
    final = base / f"{workload.name}-{seed}"
    if not (final / "meta.json").is_file():
        tmp = base / f"tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        sd_y, outcome = write_inputs(workload, seed, tmp / "panel.csv", tmp / "edges.csv")
        (tmp / "meta.json").write_text(json.dumps({"sd_y": sd_y, "outcome": asdict(outcome)}))
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    os.utime(final)
    sets = sorted((p for p in base.iterdir() if not p.name.startswith("tmp-")),
                  key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in sets[KEEP_INPUT_SETS:]:
        shutil.rmtree(stale, ignore_errors=True)
    return final


def finite_numbers(obj):
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(finite_numbers(v) for v in obj)
    return True


def bands_ordered(payload):
    bands = payload.get("bands")
    if bands is None:
        return True
    for lo, hi in (("surface_lo", "surface_hi"), ("marginal_z_lo", "marginal_z_hi"),
                   ("marginal_g_lo", "marginal_g_hi")):
        if bands.get(lo) is not None and not np.all(np.array(bands[lo]) <= np.array(bands[hi])):
            return False
    return True


def surface_err_sd(payload, meta):
    """Largest interior |mu_hat(z, g) - mu(z, g)| over sd(Y)."""
    from netjps.synth import OutcomeRule

    rule = OutcomeRule(**meta["outcome"])
    z = np.array(payload["z_grid"])[1:-1, None]
    g = np.array(payload["g_grid"])[None, 1:-1]
    surface = np.array(payload["surface"])[1:-1, 1:-1]
    return float(np.max(np.abs(surface - rule.base(z, g))) / meta["sd_y"])


def check_repeat(res, out, meta):
    """Problems with one repeat's outputs, and its surface error."""
    if res is None:
        return ["child process failed"], None
    if "exit_code" not in res:  # the opening child makes no outputs
        return [], None
    if res["exit_code"] != 0:
        return [f"netjps drf exited {res['exit_code']}"], None
    problems = []
    payloads = []
    for name in ("drf.json", "naive_drf.json"):
        path = out / name
        if name == "drf.json" or path.exists():
            try:
                payloads.append(json.loads(path.read_text()))
            except (OSError, ValueError) as exc:
                problems.append(f"{name} unreadable: {exc}")
    for p in payloads:
        if not finite_numbers(p):
            problems.append("non-finite value in drf output")
        if not bands_ordered(p):
            problems.append("bootstrap band with lo > hi")
    if not res.get("identical", False):
        problems.append("drf.json surface differs from in-process run_jps")
    err = None
    if payloads and not problems:
        err = surface_err_sd(payloads[0], meta)
        if not err <= MAX_SURFACE_ERR_SD:
            problems.append(f"surface error {err:.3g} sd(Y) > {MAX_SURFACE_ERR_SD}")
    return problems, err


def fill_seconds(left_s, fixed_s, round_s):
    """Seconds of ingest / run_jps samples for the next drf repeat, or None to stop.

    A repeat is a fixed part (start-up, import, the drf invocation, checks)
    plus samples.  The samples last FILL_SHARE times the fixed part, and the
    last repeat that fits takes the rest of --seconds, so every run measures for
    about --seconds and the samples are spread over all of it.  A fill too
    short for one ingest and one run_jps (round_s) is left out.
    """
    if not fixed_s:
        fill = MIN_FILL_S
    else:
        fixed = statistics.median(fixed_s)
        fill = max(MIN_FILL_S, FILL_SHARE * fixed)
        if left_s < fixed:
            return None
        if left_s < 2 * (fixed + fill):
            fill = left_s - fixed
    return fill if fill >= round_s else 0.0


def run_child(rundir, config, trace, drf, fill, cmd_id, spans, time_left):
    out = rundir / "out"
    shutil.rmtree(out, ignore_errors=True)
    result = rundir / "result.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "child.py"), "--config", str(config), "--out", str(out),
           "--result", str(result), "--reference", str(rundir / "reference.npz"),
           "--trace", str(int(trace)), "--drf", str(int(drf)),
           "--fill", f"{fill:.3f}", "--cmd", str(cmd_id), "--spans", str(spans)]
    with open(rundir / "child.log", "w") as log:
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, time_left))
        except subprocess.TimeoutExpired:
            print("perfbench: repeat timed out", file=sys.stderr)
            return None, out
    if proc.returncode != 0 or not result.is_file():
        sys.stderr.write((rundir / "child.log").read_text()[-3000:])
        return None, out
    return json.loads(result.read_text()), out


def summary(values, lower_quartile=False):
    """Median, sample count, and the highest percentile with >= 10 samples beyond it.

    With lower_quartile, also the 25th percentile, which is then the value
    registered for the metric.
    """
    s = {"median": statistics.median(values), "n": len(values)}
    if lower_quartile:
        s["p25"] = s["value"] = float(np.percentile(values, 25))
    for p in (99.9, 99.0, 90.0):
        if (1 - p / 100) * len(values) >= 10:
            s[f"p{p:g}"] = float(np.percentile(values, p))
            break
    return s


def end_to_end(repeats, attempted, failed):
    ok = [r for r in repeats if r is not None and "point_s" in r]
    drf = [r for r in ok if "drf_s" in r]
    boot = [r["boot_completed"] / r["boot_s"] for r in drf if r["boot_s"] > 0]
    samples = {
        "setup_s": ([x for r in ok for x in r["setup_s"]], "s"),
        "drf_s": ([r["drf_s"] for r in drf if not r["traced"]], "s"),
        "point_s": ([x for r in ok for x in r["point_s"]], "s"),
        "boot_reps_per_s": (boot, "1/s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in drf if not r["traced"]], "MB"),
        "surface_err_sd": ([r["surface_err_sd"] for r in drf if "surface_err_sd" in r], "sd"),
    }
    table = {name: dict(summary(v, name in LOWER_QUARTILE), unit=unit)
             for name, (v, unit) in samples.items() if v}
    table["fail_frac"] = {"median": failed / attempted, "n": attempted, "unit": "ratio"}
    table["success_frac"] = {"median": 1 - failed / attempted, "n": attempted, "unit": "ratio"}
    return table


def per_layer(repeats):
    traced = [r for r in repeats if r is not None and r.get("layers")]
    untraced = [r["drf_s"] for r in repeats if r is not None and "drf_s" in r and not r["traced"]]
    if not traced:
        return {}
    layers = [r["layers"] for r in traced]
    table = {}

    def put(name, values, unit):
        if values:
            table[name] = dict(summary(values), unit=unit)

    def by_name(span, key):
        """Per-repeat totals for a span name; none if its wrap sites are gone."""
        if span not in layers[0]["installed"]:
            return []
        return [lay["by_name"].get(span, {}).get(key, 0) for lay in layers]

    for span in ("io.read_edges_csv", "io.read_panel_csv", "network.build_adjacency",
                 "network.neighborhood_covariate", "dataset.attach_exposure",
                 "dataset.check_unique_keys", "dataset.subset",
                 "transforms.boxcox_zero_skew", "linear_model.build_outcome_matrix",
                 "linear_model.fit_ols", "jps.impute_drf", "jps.fit_treatment_models",
                 "jps.predict_scores", "jps.fit_outcome", "bootstrap.bootstrap_drf"):
        put(f"{span}.self_s", by_name(span, "self_s"), "s")
    for span in ("dataset.subset", "transforms.boxcox_zero_skew", "transforms.skewness",
                 "linear_model.build_outcome_matrix", "linear_model.fit_ols", "jps.impute_drf",
                 "jps.run_jps", "jps.run_naive"):
        put(f"{span}.calls", by_name(span, "calls"), "count")
    put("io.write.self_s", [sum(v["self_s"] for k, v in lay["by_name"].items()
                                if k.startswith("io.write_")) for lay in layers], "s")
    for counter, span, unit in COUNTERS:
        if span in layers[0]["installed"]:
            put(counter, [lay["counters"].get(counter, 0) for lay in layers], unit)
    roots = by_name("transforms.boxcox_zero_skew", "calls")
    evals = by_name("transforms.skewness", "calls")
    if roots and evals:
        put("transforms.skew_evals_per_root", [e / r for e, r in zip(evals, roots) if r], "count")
    reps = [x for lay in layers for x in lay["replicate_s"]]
    if reps:
        table["bootstrap.replicate_s.p50"] = {"median": float(statistics.median(reps)),
                                              "n": len(reps), "unit": "s"}
        table["bootstrap.replicate_s.p90"] = {"median": float(np.percentile(reps, 90)),
                                              "n": len(reps), "unit": "s"}
    put("jps.surface_err_sd", [r["surface_err_sd"] for r in traced if "surface_err_sd" in r], "sd")
    put("bootstrap.replicates", [len(lay["replicate_s"]) for lay in layers], "count")
    put("cli.pipeline_runs", [lay["pipeline_runs"] for lay in layers], "count")
    table["trace.coverage"] = {"median": min(lay["coverage"] for lay in layers),
                               "n": len(layers), "unit": "ratio"}
    if untraced:
        table["trace.overhead_s"] = {
            "median": statistics.median(r["drf_s"] for r in traced) - statistics.median(untraced),
            "n": len(traced) + len(untraced), "unit": "s"}
    return table


def print_table(title, table):
    print(title)
    for name, s in table.items():
        extra = "".join(f" {k}={v:.6g}" for k, v in s.items() if k.startswith("p"))
        print(f"  {name:<42} {s['median']:>14.6g} {s['unit']:<6} n={s['n']}{extra}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = perf_counter()

    if not (SRC / "netjps" / "__init__.py").is_file():
        fail(f"no netjps sources under {SRC}; run from a repository checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]

    inputs = ensure_inputs(workload, args.seed)
    meta = json.loads((inputs / "meta.json").read_text())
    rundir = CACHE / f"run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        config = rundir / "drf.cfg"
        config.write_text(workload.config_text(inputs / "panel.csv", inputs / "edges.csv",
                                               rundir / "out", args.seed))
        repeats, problems = [], []
        attempted = failed = 0
        fixed_s = []  # each drf repeat's wall time apart from its ingest / run_jps samples
        ingest_s, point_s = [], []
        begin = perf_counter()
        # Closed loop: a child starts after the previous one ends.  The first
        # child only samples ingest / run_jps, so that those samples open the
        # run as well as follow each drf invocation.  Traced runs alternate
        # traced / untraced drf repeats and make at least one of each.
        min_repeats = 3 if args.trace else 2
        while True:
            if repeats:
                round_s = statistics.median(ingest_s) + statistics.median(point_s)
                fill = fill_seconds(args.seconds - (perf_counter() - begin), fixed_s, round_s)
                if fill is None and len(repeats) >= min_repeats:
                    break
            else:
                fill = OPENING_FILL_SHARE * args.seconds
            drf = bool(repeats)
            traced = drf and bool(args.trace) and len(repeats) % 2 == 1
            t0 = perf_counter()
            res, out = run_child(rundir, config, traced, drf, fill or 0.0, len(repeats),
                                 inputs / "spans.json",
                                 CHILD_DEADLINE_S - (perf_counter() - started))
            repeats.append(res)
            bad, err = check_repeat(res, out, meta)
            attempted += 1
            failed += bool(bad)
            problems += bad
            if res is None:
                break
            ingest_s += [x - res["import_s"] for x in res.get("setup_s", ())]
            point_s += res.get("point_s", [])
            if not drf:
                continue
            fixed_s.append(perf_counter() - t0 - res.get("fill_s", 0.0))
            if err is not None:
                res["surface_err_sd"] = err
            attempted += res["boot_completed"] + res["boot_failures"]
            failed += res["boot_failures"]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    e2e = end_to_end(repeats, attempted, failed)
    layers = per_layer(repeats) if args.trace else {}
    if args.trace and layers.get("trace.coverage", {"median": 0})["median"] < MIN_COVERAGE:
        problems.append(f"trace.coverage below {MIN_COVERAGE}: the wrap sites miss a hot path")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)

    import scipy
    env = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "source_sha256": source_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas_pin": BLAS_PIN, "repeats": len(repeats), "wall_s": perf_counter() - started,
    }
    print_table(f"end-to-end ({workload.name}, seed {args.seed})", e2e)
    if args.trace:
        print_table("per-layer (traced repeats)", layers)
    print(json.dumps({"env": env}))

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        registry = json.load(fh)
    wanted = registry["per_layer" if args.trace else "end_to_end"]
    table = layers if args.trace else e2e
    metrics = {m["name"]: {"value": table[m["name"]].get("value", table[m["name"]]["median"]),
                           "unit": m["unit"]}
               for m in wanted if m["name"] in table}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
