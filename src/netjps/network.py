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
from dataclasses import dataclass
from itertools import chain, filterfalse
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
        faster."""
        key = rows.astype(np.int64, copy=False) * n + cols
        order = np.argsort(key, kind=kind)
        key = key[order]
        starts = np.ones(key.shape[0], dtype=bool)
        starts[1:] = key[1:] != key[:-1]
        data = np.bincount(np.cumsum(starts) - 1, weights=values[order])
        stored = data != 0
        row, col = np.divmod(key[starts][stored], n)
        indptr = np.searchsorted(row, np.arange(n + 1))
        arrays = (indptr, col.astype(np.intp, copy=False), data[stored].astype(float, copy=False))
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
    index: dict
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

    def n_edges(self):
        return sum(b.w.nnz for b in self.blocks.values())


@dataclass(frozen=True)
class EdgeTable:
    """An edge list as columns.

    Edge k runs from ``units[source[k]]`` to ``units[target[k]]`` in period
    ``periods[period[k]]`` with weight ``weight[k]``; ``source``, ``target``
    and ``period`` are intp code arrays, ``weight`` is float64.
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
    def from_blocks(cls, blocks):
        """From one or more (sources, targets, periods, weights) blocks: three
        label sequences and a float64 array.

        Sources and targets are coded into separate dicts as they arrive;
        units then take their order of first appearance over all sources,
        then all targets, and periods theirs.
        """
        sources, targets, periods = {}, {}, {}
        parts = ([], [], [], [])
        for block in blocks:
            for labels, part, cells in zip((sources, targets, periods), parts, block):
                part.append(code_labels(labels, cells))
            parts[3].append(block[3])
        columns = []
        for part in parts:  # join each column, then drop its blocks
            columns.append(np.concatenate(part))
            part.clear()
        source, target, period, weight = columns
        units = dict.fromkeys(chain(sources, targets))
        position = dict(zip(units, range(len(units))))
        remap = np.fromiter(map(position.__getitem__, targets), dtype=np.intp, count=len(targets))
        return cls(units=tuple(units), periods=tuple(periods), source=source,
                   target=remap[target], period=period, weight=weight)

    @classmethod
    def from_records(cls, edges):
        """From an iterable of (source, target, period, weight) tuples."""
        sources, targets, periods, weights = list(zip(*edges, strict=True)) or ((),) * 4
        weights = np.fromiter(map(float, weights), dtype=float, count=len(weights))
        return cls.from_blocks([(sources, targets, periods, weights)])

    def record(self, k):
        """Edge k as a (source, target, period, weight) tuple."""
        return (self.units[self.source[k]], self.units[self.target[k]],
                self.periods[self.period[k]], float(self.weight[k]))


def code_labels(labels, cells):
    """The codes of ``cells`` in ``labels``, a label -> code dict that first
    grows by each new label in order of first appearance."""
    fresh = list(filterfalse(labels.__contains__, dict.fromkeys(cells)))
    labels.update(zip(fresh, range(len(labels), len(labels) + len(fresh))))
    return np.fromiter(map(labels.__getitem__, cells), dtype=np.intp, count=len(cells))


def _check_edge(source, target, period, weight, index_by_period):
    """Raise the error of the first rule the edge breaks, in the order
    weight, self-loop, period, target, source."""
    if not math.isfinite(weight) or weight < 0:
        raise InputError(
            f"edge ({source!r}, {target!r}, {period!r}): weight must be finite and >= 0, got {weight}"
        )
    if source == target:
        raise InputError(f"self-loop on unit {source!r} in period {period!r}")
    index = index_by_period.get(period)
    if index is None:
        raise InputError(f"edge references unregistered period {period!r}")
    for unit in (target, source):
        if unit not in index:
            raise InputError(
                f"edge ({source!r}, {target!r}, {period!r}) references unregistered unit {unit!r}"
            )


def _block_positions(table, sel, index):
    """Positions in ``index`` (a unit -> position dict) of the targets and
    sources of the edges ``sel`` of ``table``, -1 where unregistered."""
    target, source = table.target[sel], table.source[sel]
    used = np.zeros(len(table.units), dtype=bool)
    used[target] = True
    used[source] = True
    lookup = np.full(len(table.units), -1, dtype=np.int64)
    lookup[used] = [index.get(table.units[k], -1) for k in np.flatnonzero(used).tolist()]
    return lookup[target], lookup[source]


def build_adjacency(edges, nodes):
    """Validate edge records against a node registry and build the graph.

    Parameters
    ----------
    edges : EdgeTable or iterable of (source, target, period, weight)
        Duplicate (source, target, period) edges are summed.
    nodes : iterable of (unit, period)
        Registry of valid unit ids per period; order is preserved.

    Raises
    ------
    InputError
        On self-loops, unregistered unit ids, or negative/non-finite weights;
        the first offending edge in input order is named.
    """
    # insertion-ordered dicts: first appearance fixes the order, repeats are free
    index_by_period = {}
    for unit, period in nodes:
        index = index_by_period.setdefault(period, {})
        index.setdefault(unit, len(index))
    table = edges if isinstance(edges, EdgeTable) else EdgeTable.from_records(edges)

    # one period at a time: the block positions of its edges' (target,
    # source), then its CSR; the stable sort keeps each period's edges in
    # input order.  Only the mask of bad edges spans periods, and once an
    # edge is bad no further CSR is built.
    weight = table.weight
    bad = ~np.isfinite(weight) | (weight < 0) | (table.source == table.target)
    clean = not bad.any()
    order = np.argsort(table.period, kind="stable")
    bounds = np.searchsorted(table.period, np.arange(len(table.periods) + 1), sorter=order)
    built = {}
    for code, period in enumerate(table.periods):
        sel = order[bounds[code]:bounds[code + 1]]
        index = index_by_period.get(period)
        if index is None:
            bad[sel] = True
            clean = False
            continue
        rows, cols = _block_positions(table, sel, index)
        unregistered = (rows < 0) | (cols < 0)
        bad[sel] |= unregistered
        clean = clean and not unregistered.any()
        if clean:
            built[period] = Csr.from_entries(weight[sel], rows, cols, len(index))
    if not clean:
        _check_edge(*table.record(int(np.argmax(bad))), index_by_period)

    none = np.empty(0, dtype=np.intp)
    blocks = {}
    for period, index in index_by_period.items():
        w = built[period] if period in built else Csr.from_entries(weight[none], none, none, len(index))
        blocks[period] = PeriodBlock(units=tuple(index), index=index, w=w)
    return AdjacencyView(periods=tuple(index_by_period), blocks=blocks)


def check_unique_keys(dataset):
    """Index the dataset's rows as ``{period: {unit: row}}``.

    A (unit, period) key on more than one row raises :class:`InputError`.
    """
    rows_by_period = {}
    for row, key in enumerate(zip(dataset.units.tolist(), dataset.periods.tolist())):
        unit, period = key
        rows = rows_by_period.setdefault(period, {})
        if unit in rows:
            raise InputError(f"duplicate (unit, period) key {key!r} at rows {rows[unit]} and {row}")
        rows[unit] = row
    return rows_by_period


def _aligned_blocks(adj, dataset):
    """Yield (block, rows) for each period that has dataset rows.

    ``rows[k]`` is the dataset row of the block's k-th unit.  Each dataset
    row must be a distinct (unit, period) registered in ``adj``, and each
    registered unit of such a period must have a row.
    """
    for period, rows in check_unique_keys(dataset).items():
        block = adj.block(period)
        try:
            positions = np.array([rows[u] for u in block.units], dtype=np.intp)
        except KeyError as exc:
            raise InputError(f"dataset has no row for unit {exc.args[0]!r} in period {period!r}") from None
        if len(rows) > len(positions):
            unit = next(u for u in rows if u not in block.index)
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
