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
from .network import EdgeTable

EDGE_COLUMNS = ("source", "target", "period", "weight")


def _fmt10(x):
    return format(float(x), ".10g")


def _fmt_exact(x):
    return repr(float(x))


def _header(reader, path):
    try:
        return next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty file, header required") from None


def _width_error(path, reader, header, row):
    return InputError(f"{path}: row {reader.line_num}: expected {len(header)} fields, got {len(row)}")


def read_table(path):
    """Read a header + rows CSV table, enforcing consistent row width.

    Keeps every row; ingest reads with :func:`_read_columns` and comes here
    only to name the line of a bad cell.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = _header(reader, path)
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise _width_error(path, reader, header, row)
            rows.append((reader.line_num, row))
    return header, rows


def _read_columns(path):
    """Stream a header + rows CSV into one list of cells per column.

    Same checks as :func:`read_table` (blank lines skipped, row width
    enforced), but no row object outlives its line: a long-lived row list
    per line is a GC-tracked container, and hundreds of thousands of them
    make the cyclic collector rescan them again and again.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = _header(reader, path)
        columns = [[] for _ in header]
        appends = [column.append for column in columns]
        width = len(header)
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise _width_error(path, reader, header, row)
            for append, cell in zip(appends, row):
                append(cell)
    return header, columns


def _parse_float(path, line_num, column, text):
    try:
        v = float(text)
    except ValueError:
        raise InputError(f"{path}: row {line_num}: invalid number {text!r} in column {column!r}") from None
    if not math.isfinite(v):
        raise InputError(f"{path}: row {line_num}: non-finite value in column {column!r}")
    return v


def _float_columns(path, columns, numeric):
    """``{name: float64 array}`` for the ``(position, name)`` pairs in
    ``numeric``, each column parsed in one numpy call.

    numpy parses a str as ``float()`` does, so a column fails here exactly
    when one of its cells fails :func:`_parse_float`.  The file is then read
    again row by row, to raise that function's message for the first bad
    cell in row-major order.
    """
    out = {}
    for j, name in numeric:
        try:
            values = np.array(columns[j], dtype=float)
        except ValueError:
            values = None
        if values is None or not np.isfinite(values).all():
            _, rows = read_table(path)
            for line_num, row in rows:
                for k, column in numeric:
                    _parse_float(path, line_num, column, row[k])
        out[name] = values
    return out


def read_edges_csv(path):
    """Edge-list CSV with required header source,target,period,weight.

    Returns an :class:`~netjps.network.EdgeTable` with the labels as read
    (strings).  The label cells are coded here, so no per-edge Python object
    outlives the call.
    """
    header, columns = _read_columns(path)
    try:
        idx = [header.index(c) for c in EDGE_COLUMNS]
    except ValueError as exc:
        raise InputError(f"{path}: missing edge column {exc.args[0].split()[0]!r}; "
                         f"header must contain {list(EDGE_COLUMNS)}") from None
    weight = _float_columns(path, columns, [(idx[3], "weight")])["weight"]
    return EdgeTable.from_columns(*(columns[j] for j in idx[:3]), weight)


def read_panel_csv(path, unit_col, period_col):
    """Panel CSV keyed by (unit, period); every other column is numeric.

    Returns (units, periods, columns) with ``columns`` an ordered name ->
    float array mapping covering all non-key columns.
    """
    header, columns = _read_columns(path)
    for c in (unit_col, period_col):
        if c not in header:
            raise InputError(f"{path}: key column {c!r} not in header {header}")
    iu, ip = header.index(unit_col), header.index(period_col)
    numeric = [(j, name) for j, name in enumerate(header) if j not in (iu, ip)]
    names = [name for _, name in numeric]
    for name in names:
        if names.count(name) > 1:
            raise InputError(f"{path}: column {name!r} appears more than once in the header")
    return (
        np.asarray(columns[iu], dtype=object),
        np.asarray(columns[ip], dtype=object),
        _float_columns(path, columns, numeric),
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
