"""Weighted directed interference graph and neighborhood exposure.

The graph is a panel of per-period blocks: an edge always belongs to exactly
one period, so the implied full adjacency matrix is block-diagonal by period
and every computation treats periods independently.  Orientation convention:
the stored matrix has ``w[i, j]`` equal to the weight of the edge j -> i,
i.e. row i collects what unit i *receives*; exposure therefore aggregates
over in-edges, while covariate summaries can use either direction.

:class:`AdjacencyView` is immutable after construction (the weight matrices
are marked read-only), so all operations here are safe to call concurrently.
"""

from dataclasses import dataclass
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
class PeriodBlock:
    units: tuple
    index: dict
    w: np.ndarray  # w[i, j] = summed weight of edges j -> i


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
        return sum(int(np.count_nonzero(b.w)) for b in self.blocks.values())

    def edge_records(self):
        """Canonical (source, target, period, weight) tuples, target-major."""
        out = []
        for period in self.periods:
            b = self.blocks[period]
            rows, cols = np.nonzero(b.w)
            for i, j in zip(rows, cols):
                out.append((b.units[j], b.units[i], period, float(b.w[i, j])))
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
    units_by_period = {}
    for unit, period in nodes:
        units_by_period.setdefault(period, {})[unit] = None

    blocks = {}
    for period, registered in units_by_period.items():
        units = tuple(registered)
        index = {u: k for k, u in enumerate(units)}
        w = np.zeros((len(units), len(units)))
        blocks[period] = PeriodBlock(units=units, index=index, w=w)

    for source, target, period, weight in edges:
        weight = float(weight)
        if not np.isfinite(weight) or weight < 0:
            raise InputError(
                f"edge ({source!r}, {target!r}, {period!r}): weight must be finite and >= 0, got {weight}"
            )
        if source == target:
            raise InputError(f"self-loop on unit {source!r} in period {period!r}")
        block = blocks.get(period)
        if block is None:
            raise InputError(f"edge references unregistered period {period!r}")
        try:
            i = block.index[target]
            j = block.index[source]
        except KeyError as exc:
            raise InputError(
                f"edge ({source!r}, {target!r}, {period!r}) references unregistered unit {exc.args[0]!r}"
            ) from None
        block.w[i, j] += weight

    for block in blocks.values():
        block.w.setflags(write=False)
    return AdjacencyView(periods=tuple(units_by_period), blocks=blocks)


def _block_exposure(w, zvec, mode):
    n = zvec.shape[0]
    raw = w @ zvec
    if mode == "plain":
        return raw / n
    positive = w[w > 0]
    if positive.size == 0:
        raise DegenerateNormalizerError(
            "trade-normalized exposure needs at least one nonzero weight in the period"
        )
    s = positive.mean()
    return raw / (n * s)


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

    by_period = {}
    for row, (unit, period) in enumerate(zip(dataset.units, dataset.periods)):
        by_period.setdefault(period, {})[unit] = row

    values = np.zeros(dataset.n)
    isolated = np.zeros(dataset.n, dtype=bool)
    for period, rows in by_period.items():
        block = adj.block(period)
        xvec = np.empty(len(block.units))
        for k, unit in enumerate(block.units):
            if unit not in rows:
                raise InputError(
                    f"dataset has no row for unit {unit!r} in period {period!r}"
                )
            xvec[k] = x[rows[unit]]
        for unit, row in rows.items():
            if unit not in block.index:
                raise InputError(f"unknown unit {unit!r} in period {period!r}")
            i = block.index[unit]
            wvec = block.w[i, :] if spec.direction == "in" else block.w[:, i]
            if spec.summarizer == "count":
                values[row] = np.count_nonzero(wvec)
            elif spec.summarizer == "sum":
                values[row] = wvec @ xvec
            else:
                total = wvec.sum()
                if total > 0:
                    values[row] = (wvec @ xvec) / total
                else:
                    values[row] = 0.0
                    isolated[row] = True
    return values, isolated
