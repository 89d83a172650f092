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


def _header(reader, path):
    try:
        return next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty file, header required") from None


def _read_columns(path):
    """Stream a header + rows CSV into one list of cells per column.

    Blank lines are skipped and every other row must be as wide as the
    header.  No row object outlives its line: a long-lived row list per line
    is a GC-tracked container, and hundreds of thousands of them make the
    cyclic collector rescan them again and again.
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
                raise InputError(f"{path}: row {reader.line_num}: "
                                 f"expected {width} fields, got {len(row)}")
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
    when one of its cells fails :func:`_parse_float`.  The file, whose header
    and row widths :func:`_read_columns` has checked, is then scanned again
    to raise that function's message for the first bad cell in row-major
    order.
    """
    out = {}
    for j, name in numeric:
        try:
            values = np.array(columns[j], dtype=float)
        except ValueError:
            values = None
        if values is None or not np.isfinite(values).all():
            with open(path, "r", encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                next(reader)
                for row in filter(None, reader):
                    for k, column in numeric:
                        _parse_float(path, reader.line_num, column, row[k])
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
    except ValueError:
        missing = next(c for c in EDGE_COLUMNS if c not in header)
        raise InputError(f"{path}: missing edge column {missing!r}; "
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


def _exact(values):
    """Shortest round-trip text of each float: ingest gives back the same bits."""
    return map(repr, np.asarray(values, dtype=float).ravel().tolist())


def _digits10(values):
    """Each float at 10 significant digits, the precision of result tables."""
    return (format(v, ".10g") for v in np.asarray(values, dtype=float).ravel().tolist())


def _write_table(path, header, columns):
    """The one CSV writer: ``header``, then one row per position of the
    equally long ``columns`` (iterables of cells, consumed as written)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns, strict=True))


def write_panel_csv(dataset, path, unit_col="unit", period_col="period",
                    outcome_col="y", treatment_col="z"):
    """Full-precision panel writer (round-trip exact)."""
    covs = dataset.covariates
    _write_table(path, [unit_col, period_col, outcome_col, treatment_col, *covs],
                 [map(str, dataset.units), map(str, dataset.periods), _exact(dataset.y),
                  _exact(dataset.z), *map(_exact, covs.values())])


def write_edges_csv(adj, path):
    """Full-precision edge-list writer in canonical order."""
    sources, targets, periods, weights = adj.edge_columns()
    _write_table(path, EDGE_COLUMNS,
                 [map(str, sources), map(str, targets), map(str, periods), _exact(weights)])


def write_exposure_csv(dataset, path, unit_col="unit", period_col="period"):
    g = dataset.require_g()
    _write_table(path, [unit_col, period_col, "g"],
                 [map(str, dataset.units), map(str, dataset.periods), _digits10(g)])


def write_drf_surface_csv(drf, path, bands=None):
    """z-major surface table: z,g,mu[,mu_lo,mu_hi] at 10 significant digits."""
    if drf.surface is None:
        raise InputError("no surface to write (z-only dose-response grid)")
    n_z, n_g = drf.surface.shape
    header = ["z", "g", "mu"]
    cells = [np.repeat(drf.z_grid, n_g), np.tile(drf.g_grid, n_z), drf.surface]
    if bands is not None and bands.surface_lo is not None:
        header += ["mu_lo", "mu_hi"]
        cells += [bands.surface_lo, bands.surface_hi]
    _write_table(path, header, map(_digits10, cells))


def write_marginal_csv(drf, axis, path, bands=None):
    """Marginal curve of ``drf`` along ``axis`` ("z" or "g"):
    axis,mu[,mu_lo,mu_hi] at 10 significant digits, bounds from ``bands``."""
    header = [axis, "mu"]
    cells = [getattr(drf, f"{axis}_grid"), getattr(drf, f"marginal_{axis}")]
    lo = None if bands is None else getattr(bands, f"marginal_{axis}_lo")
    if lo is not None:
        header += ["mu_lo", "mu_hi"]
        cells += [lo, getattr(bands, f"marginal_{axis}_hi")]
    _write_table(path, header, map(_digits10, cells))


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
