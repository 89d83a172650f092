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

    def edge_records(self):
        """Canonical (source, target, period, weight) tuples, target-major."""
        out = []
        for period in self.periods:
            b = self.blocks[period]
            targets = np.repeat(np.arange(len(b.units)), np.diff(b.w.indptr))
            for i, j, weight in zip(targets.tolist(), b.w.indices.tolist(), b.w.data.tolist()):
                out.append((b.units[j], b.units[i], period, weight))
        return out


def build_adjacency(edges, nodes):
    """Validate edge records against a node registry and build the graph.

    Parameters
    ----------
    edges : iterable of (source, target, period, weight)
        Duplicate (source, target, period) edges are summed.
    nodes : iterable of (unit, period)
        Registry of valid unit ids per period; order is preserved.

    Raises
    ------
    InputError
        On self-loops, unregistered unit ids, or negative/non-finite weights.
    """
    # insertion-ordered dicts: first appearance fixes the order, repeats are free
    index_by_period = {}
    for unit, period in nodes:
        index = index_by_period.setdefault(period, {})
        index.setdefault(unit, len(index))
    entries = {period: [] for period in index_by_period}  # (target, source, weight)

    for source, target, period, weight in edges:
        weight = float(weight)
        if not math.isfinite(weight) or weight < 0:
            raise InputError(
                f"edge ({source!r}, {target!r}, {period!r}): weight must be finite and >= 0, got {weight}"
            )
        if source == target:
            raise InputError(f"self-loop on unit {source!r} in period {period!r}")
        index = index_by_period.get(period)
        if index is None:
            raise InputError(f"edge references unregistered period {period!r}")
        try:
            entries[period].append((index[target], index[source], weight))
        except KeyError as exc:
            raise InputError(
                f"edge ({source!r}, {target!r}, {period!r}) references unregistered unit {exc.args[0]!r}"
            ) from None

    blocks = {}
    for period, index in index_by_period.items():
        ijw = np.array(entries[period], dtype=float).reshape(-1, 3)  # positions are exact in float64
        w = coo_array((ijw[:, 2], (ijw[:, 0].astype(np.int64), ijw[:, 1].astype(np.int64))),
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
