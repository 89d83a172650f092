"""CSV and JSON file formats.

Two float conventions coexist deliberately: dataset files (panel, edge list)
are written with shortest round-trip ``repr`` so that ingest -> recompute is
bit-exact, while result tables (surfaces, marginals) use 10 significant
digits.  JSON result documents keep full precision and are strict JSON: a
non-finite value is written as ``null``.
"""

import csv
import dataclasses
import json
import math

import numpy as np

from .errors import InputError

EDGE_COLUMNS = ("source", "target", "period", "weight")


def _fmt10(x):
    return format(float(x), ".10g")


def _fmt_exact(x):
    return repr(float(x))


def read_table(path):
    """Read a header + rows CSV table, enforcing consistent row width."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, header required") from None
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(
                    f"{path}: row {reader.line_num}: expected {len(header)} fields, got {len(row)}"
                )
            rows.append((reader.line_num, row))
    return header, rows


def _parse_float(path, line_num, column, text):
    try:
        v = float(text)
    except ValueError:
        raise InputError(f"{path}: row {line_num}: invalid number {text!r} in column {column!r}") from None
    if not math.isfinite(v):
        raise InputError(f"{path}: row {line_num}: non-finite value in column {column!r}")
    return v


def read_edges_csv(path):
    """Edge-list CSV with required header source,target,period,weight."""
    header, rows = read_table(path)
    try:
        idx = [header.index(c) for c in EDGE_COLUMNS]
    except ValueError as exc:
        raise InputError(f"{path}: missing edge column {exc.args[0].split()[0]!r}; "
                         f"header must contain {list(EDGE_COLUMNS)}") from None
    edges = []
    for line_num, row in rows:
        weight = _parse_float(path, line_num, "weight", row[idx[3]])
        edges.append((row[idx[0]], row[idx[1]], row[idx[2]], weight))
    return edges


def read_panel_csv(path, unit_col, period_col):
    """Panel CSV keyed by (unit, period); every other column is numeric.

    Returns (units, periods, columns) with ``columns`` an ordered name ->
    float array mapping covering all non-key columns.
    """
    header, rows = read_table(path)
    for c in (unit_col, period_col):
        if c not in header:
            raise InputError(f"{path}: key column {c!r} not in header {header}")
    iu, ip = header.index(unit_col), header.index(period_col)
    value_cols = [(j, name) for j, name in enumerate(header) if j not in (iu, ip)]
    units, periods = [], []
    columns = {name: [] for _, name in value_cols}
    for line_num, row in rows:
        units.append(row[iu])
        periods.append(row[ip])
        for j, name in value_cols:
            columns[name].append(_parse_float(path, line_num, name, row[j]))
    return (
        np.asarray(units, dtype=object),
        np.asarray(periods, dtype=object),
        {name: np.asarray(vals, dtype=float) for name, vals in columns.items()},
    )


def write_panel_csv(dataset, path, unit_col="unit", period_col="period",
                    outcome_col="y", treatment_col="z"):
    """Full-precision panel writer (round-trip exact)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        cov_names = list(dataset.covariates.keys())
        writer.writerow([unit_col, period_col, outcome_col, treatment_col] + cov_names)
        for i in range(dataset.n):
            row = [str(dataset.units[i]), str(dataset.periods[i]),
                   _fmt_exact(dataset.y[i]), _fmt_exact(dataset.z[i])]
            row += [_fmt_exact(dataset.covariates[c][i]) for c in cov_names]
            writer.writerow(row)


def write_edges_csv(adj, path):
    """Full-precision edge-list writer in canonical order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(EDGE_COLUMNS))
        for source, target, period, weight in adj.edge_records():
            writer.writerow([str(source), str(target), str(period), _fmt_exact(weight)])


def write_exposure_csv(dataset, path, unit_col="unit", period_col="period"):
    g = dataset.require_g()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([unit_col, period_col, "g"])
        for i in range(dataset.n):
            writer.writerow([str(dataset.units[i]), str(dataset.periods[i]), _fmt10(g[i])])


def write_drf_surface_csv(drf, path, bands=None):
    """z-major surface table: z,g,mu[,mu_lo,mu_hi] at 10 significant digits."""
    if drf.surface is None:
        raise InputError("no surface to write (z-only dose-response grid)")
    with_bands = bands is not None and bands.surface_lo is not None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z", "g", "mu", "mu_lo", "mu_hi"] if with_bands else ["z", "g", "mu"])
        for iz, zv in enumerate(drf.z_grid):
            for ig, gv in enumerate(drf.g_grid):
                row = [_fmt10(zv), _fmt10(gv), _fmt10(drf.surface[iz, ig])]
                if with_bands:
                    row += [_fmt10(bands.surface_lo[iz, ig]), _fmt10(bands.surface_hi[iz, ig])]
                writer.writerow(row)


def write_marginal_csv(drf, axis, path, bands=None):
    """Marginal curve of ``drf`` along ``axis`` ("z" or "g"):
    axis,mu[,mu_lo,mu_hi] at 10 significant digits, bounds from ``bands``."""
    grid, mu = getattr(drf, f"{axis}_grid"), getattr(drf, f"marginal_{axis}")
    lo = hi = None
    if bands is not None:
        lo, hi = getattr(bands, f"marginal_{axis}_lo"), getattr(bands, f"marginal_{axis}_hi")
    with_bands = lo is not None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([axis, "mu", "mu_lo", "mu_hi"] if with_bands else [axis, "mu"])
        for i, v in enumerate(grid):
            row = [_fmt10(v), _fmt10(mu[i])]
            if with_bands:
                row += [_fmt10(lo[i]), _fmt10(hi[i])]
            writer.writerow(row)


def jsonable(obj):
    """Plain JSON data for a result: a dataclass becomes its fields in
    declaration order, dicts recurse, tuples, lists and arrays become lists
    (each array in one numpy pass), numpy scalars become Python numbers and
    a non-finite float becomes None (``null``)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and not np.all(np.isfinite(obj)):
            obj = np.where(np.isfinite(obj), obj.astype(object), None)
        return obj.tolist()
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    return obj.item() if isinstance(obj, np.generic) else obj


def drf_payload(drf, effects=None, bands=None):
    """The fields of ``drf``, then effects and bands if given, left for
    :func:`write_json` to encode in one pass."""
    payload = {f.name: getattr(drf, f.name) for f in dataclasses.fields(drf)}
    for key, part in (("effects", effects), ("bands", bands)):
        if part is not None:
            payload[key] = part
    return payload


def linear_fit_payload(fit):
    return {
        "terms": fit.names,
        "coefficients": fit.theta,
        "sigma": fit.sigma,
        "n": fit.n,
        "rss": fit.rss,
    }


def write_json(obj, path):
    """The one JSON encoder of result documents: strict JSON, no NaN tokens."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(obj), fh, indent=2, allow_nan=False)
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
