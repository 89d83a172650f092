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
from functools import partial
from itertools import accumulate, chain, islice

import numpy as np

from .errors import InputError
from .network import EdgeTable, code_labels

EDGE_COLUMNS = ("source", "target", "period", "weight")


# Rows read, checked and parsed at a time, and edges written at a time.  No
# per-cell str outlives its block.  A block's row lists are GC-tracked
# containers: at 512 rows they die young, while at 8192 rows they lived into
# the oldest generation and the full collections that rescanned them cost a
# quarter of the read time.
_BLOCK_ROWS = 512


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


class _Columns:
    """Equally long columns stored as consecutive segments of one buffer,
    the float64 ones first so that every segment stays aligned.  The
    buffer is allocated once for an estimate of the rows, grown in place (a
    realloc) if the estimate falls short, and cut in place to the rows
    filled.  One buffer is one allocation to make and to free: on glibc,
    freeing an edge table's single block lifts the mmap threshold above the
    estimator's per-run arrays, which then reuse heap pages instead of
    faulting in fresh ones on every fit."""

    def __init__(self, dtypes, capacity):
        self.dtypes = [np.dtype(dtype) for dtype in dtypes]
        self.order = sorted(range(len(dtypes)), key=lambda j: -self.dtypes[j].itemsize)
        self.buffer = np.empty(0, dtype=np.uint8)
        self.capacity = self.filled = 0
        self._reshape(capacity)

    def _starts(self, rows):
        """Byte offset of each segment (in storage order) and the end."""
        return list(accumulate((self.dtypes[j].itemsize * rows for j in self.order), initial=0))

    def _reshape(self, capacity):
        """Move the filled part of each segment to its place for
        ``capacity`` rows (the last segment first when growing, the first
        when cutting, so that none overwrites one still to move), then view
        the segments as ``columns``."""
        self.columns = None  # views of the buffer die before it is resized
        old, new = self._starts(self.capacity), self._starts(capacity)
        grow = capacity > self.capacity
        if grow:
            self.buffer.resize(new[-1], refcheck=False)
        moves = range(len(self.order))
        for k in (reversed(moves) if grow else moves):
            size = self.dtypes[self.order[k]].itemsize * self.filled
            self.buffer[new[k]:new[k] + size] = self.buffer[old[k]:old[k] + size]
        if not grow:
            self.buffer.resize(new[-1], refcheck=False)
        self.capacity = capacity
        self.columns = [None] * len(self.order)
        for k, j in enumerate(self.order):
            self.columns[j] = self.buffer[new[k]:new[k + 1]].view(self.dtypes[j])

    def append(self, parts):
        start, end = self.filled, self.filled + len(parts[0])
        if end > self.capacity:
            self._reshape(max(end, self.capacity + self.capacity // 4))
        for column, part in zip(self.columns, parts):
            column[start:end] = part
        self.filled = end

    def cut(self):
        self._reshape(self.filled)
        return self.columns


def _estimate_rows(fh, block, width):
    """Rows in the file, from its size over the mean length of ``block``
    (its first rows): a row's bytes are at least its characters, its commas
    and its newline."""
    chars = sum(map(len, chain.from_iterable(block))) + width * len(block)
    return os.fstat(fh.fileno()).st_size * len(block) // max(chars, 1) + _BLOCK_ROWS


def _read_columns(path, layout):
    """Read a header + rows CSV ``_BLOCK_ROWS`` rows at a time into columns.

    ``layout(header)`` returns the positions of the label columns and the
    ``(position, name)`` pairs of the numeric columns, or raises
    :class:`InputError`.  Returns, per label column, its label -> code dict
    (in order of first appearance) and int32 code array, and ``{name:
    float64 array}``.  Each block's label cells are coded and all its numeric
    cells parsed in one numpy call (which parses a str as ``float()`` does),
    then copied into columns preallocated for the whole file
    (:func:`_estimate_rows`), so no per-block part is kept and none is
    concatenated.

    Errors come in the order of a whole-file read.  Blank lines are skipped
    and every other row must be as wide as the header; then the header must
    satisfy ``layout``; then every numeric cell must be a finite number.
    After a block fails to parse, no more blocks are parsed but the rest of
    the file is still width-checked, and only then is the file scanned again
    for its first bad cell in row-major order.
    """
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
        rows = filter(None, reader)
        columns = None
        last = False
        while not last:
            block = list(islice(rows, _BLOCK_ROWS))
            last = len(block) < _BLOCK_ROWS
            if set(map(len, block)) - {width}:
                _rescan(path, partial(_check_width, path, width))
            if failed:
                continue
            cells = list(zip(*block)) or [()] * width
            try:
                values = np.array([cells[j] for j, _ in numeric], dtype=float)
                failed = not np.isfinite(values).all()
            except ValueError:
                failed = True
            if failed:
                continue
            if columns is None:
                labels = [{} for _ in label_cols]
                capacity = len(block) if last else _estimate_rows(fh, block, width)
                columns = _Columns([np.int32] * len(labels) + [float] * len(numeric), capacity)
            columns.append([*map(code_labels, labels, (cells[j] for j in label_cols)), *values])
    if error is not None:
        raise error
    if failed:
        _rescan(path, partial(_check_numbers, path, numeric))
    arrays = columns.cut()
    numbers = dict(zip((name for _, name in numeric), arrays[len(labels):]))
    return labels, arrays[:len(labels)], numbers


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
