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
import os
import stat
from functools import partial
from itertools import accumulate, islice

import numpy as np

from .errors import InputError
from .network import EdgeTable, LabelCodes, code_labels

EDGE_COLUMNS = ("source", "target", "period", "weight")


# Rows read, checked and parsed at a time, and edges written at a time.  No
# per-cell str outlives its block.  A block's row lists are GC-tracked
# containers: at 512 rows they die young, while at 8192 rows they lived into
# the oldest generation and the full collections that rescanned them cost a
# quarter of the read time.
_BLOCK_ROWS = 512

# Bytes read at a time when counting a file's line breaks.
_CHUNK_BYTES = 1 << 16


def _header(reader, path):
    try:
        return next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty file, header required") from None


def _parse_float(path, line_num, column, text):
    try:
        v = float(text)
    except ValueError:
        raise InputError(f"{path}: row {line_num}: invalid number {text!r} in column {column!r}") from None
    if not math.isfinite(v):
        raise InputError(f"{path}: row {line_num}: non-finite value in column {column!r}")
    return v


def _rescan(path, check):
    """Read the file again, calling ``check(line_num, row)`` on every
    non-blank row below the header: the error path names its first bad row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in filter(None, reader):
            check(reader.line_num, row)


def _row_bound(path):
    """An upper bound on the rows of the CSV file at ``path``: its line
    breaks plus one.  A row ends in an LF, a CRLF or a lone CR, and UTF-8
    uses bytes 10 and 13 for nothing else.  Only a regular file is read,
    since the reader reads it more than once; its type is checked before
    the open, which fails on a directory."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise InputError(f"{path}: not a regular file")
    with open(path, "rb") as fh:
        breaks, cr_end = 0, False
        for chunk in iter(partial(fh.read, _CHUNK_BYTES), b""):
            codes = np.frombuffer(chunk, np.uint8)
            lf = codes == 10
            # a CRLF is one break, also where a chunk edge splits it
            breaks += np.count_nonzero(lf) - (cr_end and chunk[0] == 10)
            if 13 in chunk:
                cr = codes == 13
                breaks += np.count_nonzero(cr) - np.count_nonzero(cr[:-1] & lf[1:])
            cr_end = chunk[-1] == 13
    return int(breaks) + 1


def _columns(dtypes, rows):
    """Equally long columns of ``rows`` rows, stored as consecutive segments
    of one buffer, the float64 ones first so that every segment stays
    aligned.  One buffer is one allocation to make and to free: on glibc,
    freeing an edge table's single block lifts the mmap threshold above the
    estimator's per-run arrays, which then reuse heap pages instead of
    faulting in fresh ones on every fit."""
    dtypes = [np.dtype(dtype) for dtype in dtypes]
    order = sorted(range(len(dtypes)), key=lambda j: -dtypes[j].itemsize)
    starts = list(accumulate((dtypes[j].itemsize * rows for j in order), initial=0))
    buffer = np.empty(starts[-1], dtype=np.uint8)
    columns = [None] * len(dtypes)
    for k, j in enumerate(order):
        columns[j] = buffer[starts[k]:starts[k + 1]].view(dtypes[j])
    return columns


def _read_columns(path, layout):
    """Read a header + rows CSV ``_BLOCK_ROWS`` rows at a time into columns.

    ``layout(header)`` returns the positions of the label columns and the
    ``(position, name)`` pairs of the numeric columns, or raises
    :class:`InputError`.  Returns, per label column, its label -> code dict
    (in order of first appearance) and int32 code array, and ``{name:
    float64 array}``.  Each block's label cells are coded and all its numeric
    cells parsed in one numpy call (which parses a str as ``float()`` does),
    then copied into columns allocated once for the file's counted line
    breaks (:func:`_row_bound`), so no per-block part is kept and none is
    concatenated.  A file with more rows than its bound changed while it
    was read, and is rejected.

    Errors come in the order of a whole-file read.  Blank lines are skipped
    and every other row must be as wide as the header; then the header must
    satisfy ``layout``; then every numeric cell must be a finite number.
    After a block fails to parse, no more blocks are parsed but the rest of
    the file is still width-checked, and only then is the file scanned again
    for its first bad cell in row-major order.
    """
    bound = _row_bound(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = _header(reader, path)
        width = len(header)
        try:
            label_cols, numeric = layout(header)
            error = None
        except InputError as exc:
            error = exc
        failed = error is not None
        if not failed:
            labels = [LabelCodes() for _ in label_cols]
            columns = _columns([np.int32] * len(labels) + [float] * len(numeric), bound)
        filled = 0
        rows = filter(None, reader)
        for block in iter(lambda: list(islice(rows, _BLOCK_ROWS)), []):
            if set(map(len, block)) - {width}:
                _rescan(path, partial(_check_width, path, width))
            if failed:
                continue
            cells = list(zip(*block))
            try:
                values = np.array([cells[j] for j, _ in numeric], dtype=float)
                failed = not np.isfinite(values).all()
            except ValueError:
                failed = True
            if failed:
                continue
            end = filled + len(block)
            if end > bound:
                raise InputError(f"{path}: the file changed while it was read")
            parts = [*map(code_labels, labels, (cells[j] for j in label_cols)), *values]
            for column, part in zip(columns, parts):
                column[filled:end] = part
            filled = end
    if error is not None:
        raise error
    if failed:
        _rescan(path, partial(_check_numbers, path, numeric))
    columns = [column[:filled] for column in columns]
    numbers = dict(zip((name for _, name in numeric), columns[len(labels):]))
    return labels, columns[:len(labels)], numbers


def _check_width(path, width, line_num, row):
    if len(row) != width:
        raise InputError(f"{path}: row {line_num}: expected {width} fields, got {len(row)}")


def _check_numbers(path, numeric, line_num, row):
    for j, column in numeric:
        _parse_float(path, line_num, column, row[j])


def _decode(labels, codes):
    """Object array of the labels that ``codes`` name."""
    return np.array(list(labels), dtype=object)[codes]


def read_edges_csv(path):
    """Edge-list CSV with required header source,target,period,weight.

    Returns an :class:`~netjps.network.EdgeTable` with the labels as read
    (strings).  The label cells are coded block by block into columns sized
    for the whole file, so ingest keeps only the growing label dicts and
    the code and weight arrays.
    """
    def layout(header):
        try:
            idx = [header.index(c) for c in EDGE_COLUMNS]
        except ValueError:
            missing = next(c for c in EDGE_COLUMNS if c not in header)
            raise InputError(f"{path}: missing edge column {missing!r}; "
                             f"header must contain {list(EDGE_COLUMNS)}") from None
        return idx[:3], [(idx[3], "weight")]

    labels, codes, values = _read_columns(path, layout)
    return EdgeTable.from_codes(*labels, *codes, values["weight"])


def read_panel_csv(path, unit_col, period_col):
    """Panel CSV keyed by (unit, period); every other column is numeric.

    Returns (units, periods, columns) with ``columns`` an ordered name ->
    float array mapping covering all non-key columns.
    """
    def layout(header):
        for c in (unit_col, period_col):
            if c not in header:
                raise InputError(f"{path}: key column {c!r} not in header {header}")
        keys = header.index(unit_col), header.index(period_col)
        numeric = [(j, name) for j, name in enumerate(header) if j not in keys]
        names = [name for _, name in numeric]
        for name in names:
            if names.count(name) > 1:
                raise InputError(f"{path}: column {name!r} appears more than once in the header")
        return keys, numeric

    (units, periods), (unit_codes, period_codes), columns = _read_columns(path, layout)
    return _decode(units, unit_codes), _decode(periods, period_codes), columns


def _exact(values):
    """Shortest round-trip text of each float: ingest gives back the same bits."""
    return map(repr, np.asarray(values, dtype=float).ravel().tolist())


def _digits10(values):
    """Each float at 10 significant digits, the precision of result tables."""
    return (format(v, ".10g") for v in np.asarray(values, dtype=float).ravel().tolist())


def _write_table(path, header, blocks):
    """The one CSV writer: ``header``, then for each block of equally long
    columns (iterables of cells, consumed as written) one row per position."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for columns in blocks:
            writer.writerows(zip(*columns, strict=True))


def _edge_blocks(adj):
    """The edge list's columns, period by period and target-major,
    ``_BLOCK_ROWS`` edges at a time: no per-edge object outlives its
    block."""
    for period in adj.periods:
        block = adj.block(period)
        w = block.w
        units = np.array(block.units, dtype=object)
        for start in range(0, w.nnz, _BLOCK_ROWS):
            stored = np.arange(start, min(start + _BLOCK_ROWS, w.nnz))
            targets = np.searchsorted(w.indptr, stored, side="right") - 1
            yield (map(str, units[w.indices[stored]]), map(str, units[targets]),
                   [str(period)] * len(stored), _exact(w.data[stored]))


def write_panel_csv(dataset, path, unit_col="unit", period_col="period",
                    outcome_col="y", treatment_col="z"):
    """Full-precision panel writer (round-trip exact)."""
    covs = dataset.covariates
    _write_table(path, [unit_col, period_col, outcome_col, treatment_col, *covs],
                 [[map(str, dataset.units), map(str, dataset.periods), _exact(dataset.y),
                   _exact(dataset.z), *map(_exact, covs.values())]])


def write_edges_csv(adj, path):
    """Full-precision edge-list writer in canonical order, streamed from
    the period blocks' CSR arrays."""
    _write_table(path, EDGE_COLUMNS, _edge_blocks(adj))


def write_exposure_csv(dataset, path, unit_col="unit", period_col="period"):
    g = dataset.require_g()
    _write_table(path, [unit_col, period_col, "g"],
                 [[map(str, dataset.units), map(str, dataset.periods), _digits10(g)]])


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
    _write_table(path, header, [map(_digits10, cells)])


def write_marginal_csv(drf, axis, path, bands=None):
    """Marginal curve of ``drf`` along ``axis`` ("z" or "g"):
    axis,mu[,mu_lo,mu_hi] at 10 significant digits, bounds from ``bands``."""
    header = [axis, "mu"]
    cells = [getattr(drf, f"{axis}_grid"), getattr(drf, f"marginal_{axis}")]
    lo = None if bands is None else getattr(bands, f"marginal_{axis}_lo")
    if lo is not None:
        header += ["mu_lo", "mu_hi"]
        cells += [lo, getattr(bands, f"marginal_{axis}_hi")]
    _write_table(path, header, [map(_digits10, cells)])


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
