"""Weighted directed interference graph and neighborhood exposure.

The graph is a panel of per-period blocks: an edge always belongs to exactly
one period, so the implied full adjacency matrix is block-diagonal by period
and every computation treats periods independently.  Orientation convention:
the stored matrix has ``w[i, j]`` equal to the weight of the edge j -> i,
i.e. row i collects what unit i *receives*; exposure therefore aggregates
over in-edges, while covariate summaries can use either direction.

Each ``w`` is a :class:`Csr` matrix, a numpy CSR with duplicate edges summed
and no stored zeros; only this module and the edge writer read it.
:class:`AdjacencyView` is immutable after construction (the CSR arrays are
write-protected), so all operations here are safe to call concurrently.
"""

import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateNormalizerError, InputError

if TYPE_CHECKING:  # pragma: no cover
    from .dataset import PanelDataset

EXPOSURE_MODES = ("plain", "trade_normalized")
SUMMARIZERS = ("weighted_mean", "sum", "count")
DIRECTIONS = ("in", "out")


@dataclass(frozen=True)
class NeighborhoodSummarySpec:
    """How to summarize a neighbor attribute into a unit-level covariate.

    Parameters
    ----------
    covariate : str
        Name of the column to summarize; must exist in the dataset.
    summarizer : str
        One of ``weighted_mean``, ``sum`` (weighted sum) or ``count``
        (number of distinct neighbors with nonzero weight).
    direction : str
        ``in`` summarizes over units pointing at i, ``out`` over units i
        points at.
    name : str, optional
        Output column name; a descriptive default is derived if omitted.
    """

    covariate: str
    summarizer: str = "weighted_mean"
    direction: str = "in"
    name: str | None = None

    def __post_init__(self):
        if self.summarizer not in SUMMARIZERS:
            raise InputError(f"unknown summarizer {self.summarizer!r}")
        if self.direction not in DIRECTIONS:
            raise InputError(f"unknown direction {self.direction!r}")

    def output_name(self):
        return self.name or f"nbr_{self.summarizer}_{self.covariate}_{self.direction}"


@dataclass(frozen=True)
class Csr:
    """Read-only square sparse matrix in compressed sparse row form.

    Row i stores ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, ascending, with no duplicate and no
    zero; the index arrays are intp.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_entries(cls, values, rows, cols, n, kind="stable"):
        """The (n, n) matrix of the entries ``values`` at (``rows``,
        ``cols``): duplicates summed in input order, zeros dropped.  Entries
        known to be distinct may pass ``kind=None``: any sort of distinct
        keys is the stable one, and the default sort is several times
        faster.  Each full-length temporary is dropped once the next is made
        from it, and the row-major key ends as the column indices."""
        key = rows.astype(np.int64)
        key *= n
        key += cols
        order = np.argsort(key, kind=kind)
        data = values[order].astype(float, copy=False)
        key = key[order]
        del order
        starts = np.empty(key.shape[0], dtype=bool)
        starts[:1] = True
        np.not_equal(key[1:], key[:-1], out=starts[1:])
        if not starts.all():
            data = np.bincount(np.cumsum(starts) - 1, weights=data)
            key = key[starts]
        del starts
        stored = data != 0
        if not stored.all():
            data, key = data[stored], key[stored]
        del stored
        indptr = np.searchsorted(key, np.arange(n + 1) * n)
        arrays = (indptr, np.remainder(key, n, out=key).astype(np.intp, copy=False), data)
        for arr in arrays:
            arr.setflags(write=False)
        return cls(*arrays)

    @property
    def n(self):
        return self.indptr.shape[0] - 1

    @property
    def nnz(self):
        return self.data.shape[0]

    def rows(self):
        """The row of each stored entry."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def __matmul__(self, x):
        """w @ x: each row's terms added in stored order."""
        terms = self.data * x[self.indices]
        return np.bincount(self.rows(), weights=terms, minlength=self.n).astype(float, copy=False)

    def transpose(self):
        return Csr.from_entries(self.data, self.indices, self.rows(), self.n, kind=None)


@dataclass(frozen=True)
class PeriodBlock:
    units: tuple
    w: Csr  # w[i, j] = summed weight of edges j -> i; no stored zeros, read-only


@dataclass(frozen=True)
class AdjacencyView:
    """Per-period view of the weighted directed graph.

    ``periods`` preserves first-appearance order of the node registry;
    ``blocks`` maps each period label to its :class:`PeriodBlock`.
    """

    periods: tuple
    blocks: dict

    def block(self, period):
        try:
            return self.blocks[period]
        except KeyError:
            raise InputError(f"unknown period {period!r}") from None


@dataclass(frozen=True)
class EdgeTable:
    """An edge list as columns.

    Edge k runs from ``units[source[k]]`` to ``units[target[k]]`` in period
    ``periods[period[k]]`` with weight ``weight[k]``; ``source``, ``target``
    and ``period`` are int32 code arrays, ``weight`` is float64.
    """

    units: tuple
    periods: tuple
    source: np.ndarray
    target: np.ndarray
    period: np.ndarray
    weight: np.ndarray

    def __len__(self):
        return self.weight.shape[0]

    @classmethod
    def from_codes(cls, sources, targets, periods, source, target, period, weight):
        """From the :class:`LabelCodes` of the sources, targets and periods,
        the int32 code arrays into them, and a float64 weight array.

        Units take their order of first appearance over all sources, then
        all targets: ``sources`` grows into the unit dict, so the source
        codes are already unit codes, and ``target`` is recoded in place.
        """
        remap = code_labels(sources, list(targets))
        target[:] = remap[target]
        return cls(units=tuple(sources), periods=tuple(periods), source=source,
                   target=target, period=period, weight=weight)

    @classmethod
    def from_records(cls, edges):
        """From an iterable of (source, target, period, weight) tuples."""
        cells = list(zip(*edges, strict=True)) or ((),) * 4
        labels = (LabelCodes(), LabelCodes(), LabelCodes())
        codes = [code_labels(d, column) for d, column in zip(labels, cells)]
        weights = np.fromiter(map(float, cells[3]), dtype=float, count=len(cells[3]))
        return cls.from_codes(*labels, *codes, weights)

    def record(self, k):
        """Edge k as a (source, target, period, weight) tuple."""
        return (self.units[self.source[k]], self.units[self.target[k]],
                self.periods[self.period[k]], float(self.weight[k]))

    def by_period(self):
        """This table grouped by period code, each period's edges in input
        order, and the stable reorder that grouped it: None when the codes
        never decrease, as in a file written period by period."""
        if (self.period[1:] >= self.period[:-1]).all():
            return self, None
        order = np.argsort(self.period, kind="stable")
        return replace(self, source=self.source[order], target=self.target[order],
                       period=self.period[order], weight=self.weight[order]), order


class LabelCodes(dict):
    """A label -> code dict that codes a label it lacks when it is looked
    up, as the next code: codes follow the labels' first appearance.  A
    map kept after coding must not grow on lookup, so it is copied into a
    plain dict (``PanelKeys.units``)."""

    def __missing__(self, label):
        self[label] = code = len(self)
        return code


def code_labels(labels, cells):
    """The int32 codes of the sequence ``cells`` in the
    :class:`LabelCodes` ``labels``, which grows by each new label."""
    return np.fromiter(map(labels.__getitem__, cells), dtype=np.int32, count=len(cells))


def _check_edge(source, target, period, weight, unit_codes, period_units):
    """Raise the error of the first rule the edge breaks, in the order
    weight, self-loop, period, target, source."""
    if not math.isfinite(weight) or weight < 0:
        raise InputError(
            f"edge ({source!r}, {target!r}, {period!r}): weight must be finite and >= 0, got {weight}"
        )
    if source == target:
        raise InputError(f"self-loop on unit {source!r} in period {period!r}")
    units = period_units.get(period)
    if units is None:
        raise InputError(f"edge references unregistered period {period!r}")
    for unit in (target, source):
        if unit_codes.get(unit, -1) not in units:
            raise InputError(
                f"edge ({source!r}, {target!r}, {period!r}) references unregistered unit {unit!r}"
            )


def build_adjacency(edges, nodes):
    """Validate edge records against a node registry and build the graph.

    Parameters
    ----------
    edges : EdgeTable or iterable of (source, target, period, weight)
        Duplicate (source, target, period) edges are summed.
    nodes : PanelKeys or iterable of (unit, period)
        Registry of valid unit ids per period, such as ``dataset.keys()``;
        each period's units keep their row order.

    Raises
    ------
    InputError
        On a repeated registry key, self-loops, unregistered unit ids, or
        negative/non-finite weights; the first offending edge in input order
        is named.
    """
    keys = nodes if isinstance(nodes, PanelKeys) else PanelKeys.of(
        *(list(zip(*nodes, strict=True)) or ((),) * 2))
    table = edges if isinstance(edges, EdgeTable) else EdgeTable.from_records(edges)
    # each period's unit codes: its registry rows in row order
    period_units = {period: keys.unit[np.sort(keys.rows[keys.bounds[p]:keys.bounds[p + 1]])]
                    for p, period in enumerate(keys.periods)}
    # the registry code of each unit label of the table, -1 (the spare last
    # slot of each period's positions) for an unregistered one
    unit_code = np.fromiter(map(keys.units.get, table.units, repeat(-1)), dtype=np.intp,
                            count=len(table.units))

    # one period at a time, each a slice of the table grouped by period: the
    # block positions of its edges' (target, source), its bad edges, then its
    # CSR.  Once an edge is bad no further CSR is built, and ``first`` keeps
    # the input position of the earliest bad edge: the first of a period's
    # bad edges, through the reorder if there was one.
    grouped, order = table.by_period()
    codes = np.arange(len(table.periods) + 1, dtype=grouped.period.dtype)
    bounds = np.searchsorted(grouped.period, codes)
    built, first = {}, len(table)
    for code, period in enumerate(table.periods):
        lo, hi = bounds[code], bounds[code + 1]
        units = period_units.get(period)
        if units is None:
            bad = np.ones(hi - lo, dtype=bool)
        else:
            position = np.full(len(keys.units) + 1, -1, dtype=np.int32)
            position[units] = np.arange(len(units))
            lookup = position[unit_code]
            rows, cols = lookup[grouped.target[lo:hi]], lookup[grouped.source[lo:hi]]
            weight = grouped.weight[lo:hi]
            bad = (rows < 0) | (cols < 0) | (rows == cols) | ~np.isfinite(weight) | (weight < 0)
        if bad.any():
            at = lo + int(np.argmax(bad))
            first = min(first, at if order is None else int(order[at]))
        elif first == len(table):
            built[period] = Csr.from_entries(weight, rows, cols, len(units))
    if first < len(table):
        _check_edge(*table.record(first), keys.units, period_units)

    labels = tuple(keys.units)
    none = np.empty(0, dtype=np.intp)
    blocks = {}
    for period, units in period_units.items():
        w = built[period] if period in built else Csr.from_entries(none, none, none, len(units))
        blocks[period] = PeriodBlock(units=tuple(map(labels.__getitem__, units.tolist())), w=w)
    return AdjacencyView(periods=keys.periods, blocks=blocks)


@dataclass(frozen=True)
class PanelKeys:
    """A panel's (unit, period) keys, coded and checked unique.

    ``units`` maps each unit label to its code (in order of first
    appearance) and ``unit`` holds each row's code; ``periods`` are the
    period labels by code.  ``rows`` sorts the rows by (period, unit) code,
    so period code p's rows are ``rows[bounds[p]:bounds[p + 1]]``.
    """

    units: dict
    periods: tuple
    unit: np.ndarray
    rows: np.ndarray
    bounds: np.ndarray

    @classmethod
    def of(cls, units, periods):
        """Code the key columns (sequences of labels).  A key on more than
        one row raises :class:`InputError` naming the first repeat in row
        order and the row it repeats."""
        unit_codes, period_codes = LabelCodes(), LabelCodes()
        unit = code_labels(unit_codes, list(units))
        key = code_labels(period_codes, list(periods)).astype(np.int64)
        key *= len(unit_codes)
        key += unit
        rows = np.argsort(key, kind="stable")
        key = key[rows]
        repeats = np.flatnonzero(key[1:] == key[:-1]) + 1
        if repeats.size:
            at = repeats[np.argmin(rows[repeats])]
            first, row = rows[at - 1], rows[at]
            raise InputError(f"duplicate (unit, period) key {(units[row], periods[row])!r} "
                             f"at rows {first} and {row}")
        bounds = np.searchsorted(key, np.arange(len(period_codes) + 1) * len(unit_codes))
        return cls(dict(unit_codes), tuple(period_codes), unit, rows, bounds)


def check_unique_keys(dataset):
    """The dataset's :class:`PanelKeys`, coded once per dataset.

    A (unit, period) key on more than one row raises :class:`InputError`.
    """
    return dataset.keys()


def _aligned_blocks(adj, dataset):
    """Yield (block, rows) for each period that has dataset rows.

    ``rows[k]`` is the dataset row of the block's k-th unit.  Each dataset
    row must be a distinct (unit, period) registered in ``adj``, and each
    registered unit of such a period must have a row.
    """
    keys = check_unique_keys(dataset)
    n_units = len(keys.units)
    for code, period in enumerate(keys.periods):
        block = adj.block(period)
        rows = keys.rows[keys.bounds[code]:keys.bounds[code + 1]]
        # the block's unit codes, -1 (the spare last slot) for a unit no row has
        codes = np.fromiter(map(keys.units.get, block.units, repeat(-1)), dtype=np.intp,
                            count=len(block.units))
        row_of = np.full(n_units + 1, -1, dtype=np.intp)
        row_of[keys.unit[rows]] = rows
        positions = row_of[codes]
        missing = positions < 0
        if missing.any():
            unit = block.units[np.argmax(missing)]
            raise InputError(f"dataset has no row for unit {unit!r} in period {period!r}")
        if len(rows) > len(positions):
            registered = np.zeros(n_units + 1, dtype=bool)
            registered[codes] = True
            unit = dataset.units[rows[~registered[keys.unit[rows]]].min()]
            raise InputError(f"unknown unit {unit!r}: not registered in period {period!r}")
        yield block, positions


def exposure(adj, dataset, mode="plain"):
    """Neighborhood exposure G per dataset row.

    Plain mode computes G_i = (1/N) sum_j w_ij z_j with N the number of units
    in i's period block; trade-normalized mode additionally divides by the
    period's mean nonzero weight.
    """
    if mode not in EXPOSURE_MODES:
        raise InputError(f"unknown exposure mode {mode!r}")
    g = np.empty(dataset.n)
    for block, rows in _aligned_blocks(adj, dataset):
        w = block.w
        scale = w.n
        if mode == "trade_normalized":
            if w.nnz == 0:
                raise DegenerateNormalizerError(
                    "trade-normalized exposure needs at least one nonzero weight in the period"
                )
            scale *= w.data.mean()
        g[rows] = (w @ dataset.z[rows]) / scale
    return g


def neighborhood_covariate(adj, dataset: "PanelDataset", spec):
    """Summarize a neighbor attribute per dataset row.

    Returns
    -------
    values : ndarray
        One value per dataset row.  Weighted means of isolated units
        (zero total weight) are defined as 0 and flagged.
    isolated : ndarray of bool
        Isolation flags; only ever set for the weighted-mean summarizer.
    """
    if spec.covariate not in dataset.covariates:
        raise InputError(f"neighborhood spec references missing covariate {spec.covariate!r}")
    x = dataset.covariates[spec.covariate]

    values = np.zeros(dataset.n)
    isolated = np.zeros(dataset.n, dtype=bool)
    for block, rows in _aligned_blocks(adj, dataset):
        w = block.w if spec.direction == "in" else block.w.transpose()
        if spec.summarizer == "count":
            values[rows] = np.diff(w.indptr)
        elif spec.summarizer == "sum":
            values[rows] = w @ x[rows]
        else:
            total = w @ np.ones(w.n)
            empty = total == 0
            values[rows] = np.divide(w @ x[rows], total, out=np.zeros_like(total), where=~empty)
            isolated[rows] = empty
    return values, isolated
