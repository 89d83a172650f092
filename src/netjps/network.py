"""Weighted directed interference graph and neighborhood exposure.

The graph is a panel of per-period blocks: an edge always belongs to exactly
one period, so the implied full adjacency matrix is block-diagonal by period
and every computation treats periods independently.  Orientation convention:
the stored matrix has ``w[i, j]`` equal to the weight of the edge j -> i,
i.e. row i collects what unit i *receives*; exposure therefore aggregates
over in-edges, while covariate summaries can use either direction.

Each ``w`` is a ``scipy.sparse`` CSR array with duplicate edges summed and no
stored zeros; only this module reads it.  :class:`AdjacencyView` is immutable
after construction (the CSR arrays are write-protected), so all operations
here are safe to call concurrently.
"""

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import coo_array, csr_array

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
class PeriodBlock:
    units: tuple
    index: dict
    w: csr_array  # w[i, j] = summed weight of edges j -> i; no stored zeros, read-only


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

    def edge_columns(self):
        """Canonical source, target, period and weight columns: period by
        period, target-major, one entry per stored edge."""
        sources, targets, periods, weights = [], [], [], []
        for period in self.periods:
            b = self.blocks[period]
            units = np.array(b.units, dtype=object)
            sources += units[b.w.indices].tolist()
            targets += np.repeat(units, np.diff(b.w.indptr)).tolist()
            periods += [period] * b.w.nnz
            weights += b.w.data.tolist()
        return sources, targets, periods, weights


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
    def from_columns(cls, sources, targets, periods, weights):
        """Factorize label sequences; labels are coded in first-appearance order."""
        units = dict.fromkeys(chain(sources, targets))
        period_labels = dict.fromkeys(periods)
        source, target = _codes(units, sources, targets)
        (period,) = _codes(period_labels, periods)
        return cls(units=tuple(units), periods=tuple(period_labels), source=source,
                   target=target, period=period, weight=np.asarray(weights, dtype=float))

    @classmethod
    def from_records(cls, edges):
        """From an iterable of (source, target, period, weight) tuples."""
        sources, targets, periods, weights = list(zip(*edges, strict=True)) or ((),) * 4
        return cls.from_columns(sources, targets, periods,
                                np.fromiter(map(float, weights), dtype=float, count=len(weights)))

    def record(self, k):
        """Edge k as a (source, target, period, weight) tuple."""
        return (self.units[self.source[k]], self.units[self.target[k]],
                self.periods[self.period[k]], float(self.weight[k]))


def _codes(labels, *columns):
    """Each column's entries as positions among the keys of ``labels``."""
    position = dict(zip(labels, range(len(labels))))
    return [np.fromiter(map(position.__getitem__, column), dtype=np.intp, count=len(column))
            for column in columns]


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

    # block positions of each edge's (target, source), -1 where unregistered;
    # the stable sort keeps each period's edges in input order
    ends = np.stack((table.target, table.source))
    positions = np.full(ends.shape, -1, dtype=np.int64)
    order = np.argsort(table.period, kind="stable")
    bounds = np.searchsorted(table.period, np.arange(len(table.periods) + 1), sorter=order)
    in_period = {}
    for code, period in enumerate(table.periods):
        index = index_by_period.get(period)
        if index is None:
            continue
        sel = order[bounds[code]:bounds[code + 1]]
        period_ends = ends[:, sel]
        used = np.zeros(len(table.units), dtype=bool)
        used[period_ends] = True
        lookup = np.full(len(table.units), -1, dtype=np.int64)
        lookup[used] = [index.get(table.units[k], -1) for k in np.flatnonzero(used).tolist()]
        positions[:, sel] = lookup[period_ends]
        in_period[period] = sel

    weight = table.weight
    bad = (~np.isfinite(weight) | (weight < 0) | (table.source == table.target)
           | (positions < 0).any(axis=0))
    if bad.any():
        _check_edge(*table.record(int(np.argmax(bad))), index_by_period)

    blocks = {}
    for period, index in index_by_period.items():
        sel = in_period.get(period, np.empty(0, dtype=np.intp))
        w = coo_array((weight[sel], (positions[0, sel], positions[1, sel])),
                      shape=(len(index), len(index))).tocsr()
        w.sum_duplicates()
        w.eliminate_zeros()
        for arr in (w.data, w.indices, w.indptr):
            arr.setflags(write=False)
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
        scale = w.shape[0]
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
        w = block.w if spec.direction == "in" else block.w.T.tocsr()
        if spec.summarizer == "count":
            values[rows] = np.diff(w.indptr)
        elif spec.summarizer == "sum":
            values[rows] = w @ x[rows]
        else:
            total = w @ np.ones(w.shape[0])
            empty = total == 0
            values[rows] = np.divide(w @ x[rows], total, out=np.zeros_like(total), where=~empty)
            isolated[rows] = empty
    return values, isolated
