"""Percentile bootstrap bands for dose-response surfaces and marginals.

Replicates resample (unit, period) rows i.i.d. with replacement, carrying
each row's precomputed exposure as a fixed attribute (re-deriving a coherent
network from a multiset of nodes is ill-defined), and re-run the full
pipeline on the grid of the point estimate the caller passes in.  Replicate
r draws from a stream seeded by (seed, r), so execution order and parallel
fan-out cannot change the result; replicate outputs are sorted before the
percentile step.  The bands hold only the bounds and replicate counts: the
grids and curves they surround stay in the caller's point estimate.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import BootstrapError, InputError, NetjpsError
from .jps import GridPolicy, run_jps, run_naive

_MAX_FAILURE_FRACTION = 0.2


@dataclass
class BootstrapBands:
    """Percentile bounds per grid point of the point estimate's surface and
    marginals; the bounds of a curve the point estimate lacks are None."""

    level: float
    b: int
    b_effective: int
    failures: int
    seed: int
    surface_lo: np.ndarray | None
    surface_hi: np.ndarray | None
    marginal_z_lo: np.ndarray
    marginal_z_hi: np.ndarray
    marginal_g_lo: np.ndarray | None
    marginal_g_hi: np.ndarray | None
    failure_log: tuple = ()

    def __post_init__(self):
        for lo, hi in ((self.surface_lo, self.surface_hi),
                       (self.marginal_z_lo, self.marginal_z_hi),
                       (self.marginal_g_lo, self.marginal_g_hi)):
            if lo is not None and np.any(lo > hi):  # NaN bounds of flagged cells pass
                raise InputError("percentile bands must satisfy lower <= upper")


def _percentiles(stack, level):
    """Order-independent percentile bounds: sort replicates, then interpolate."""
    stack = np.sort(np.stack(stack, axis=0), axis=0)
    alpha = (1.0 - level) / 2.0
    lo = np.quantile(stack, alpha, axis=0, method="linear")
    hi = np.quantile(stack, 1.0 - alpha, axis=0, method="linear")
    return lo, hi


def bootstrap_drf(dataset, config, point, b, seed, level=0.95):
    """Nonparametric bootstrap of the full pipeline around ``point``.

    ``point`` is the :class:`~netjps.jps.DrfGrid` that ``run_jps`` or
    ``run_naive`` produced from ``dataset`` and ``config``; a z-only grid
    (``g_grid`` None) selects the no-interference pipeline.  Failed
    replicates (singular designs, degenerate transforms) are dropped and
    counted; more than 20% failures aborts with diagnostics.
    """
    if b < 2:
        raise InputError("bootstrap needs B >= 2 replicates")
    if not 0 < level < 1:
        raise InputError("confidence level must be in (0, 1)")

    with_g = point.g_grid is not None
    run = run_jps if with_g else run_naive
    fixed_grid = GridPolicy(
        z_values=tuple(point.z_grid),
        g_values=tuple(point.g_grid) if with_g else None,
    )
    rep_config = replace(config, grid=fixed_grid)

    n = dataset.n
    surfaces, mzs, mgs = [], [], []
    failure_log = []
    for r in range(b):
        rng = np.random.default_rng((seed, r))
        idx = rng.integers(0, n, size=n)
        try:
            rep = run(dataset.subset(idx), rep_config)
        except NetjpsError as exc:
            failure_log.append((r, exc.code, str(exc)))
            continue
        mzs.append(rep.drf.marginal_z)
        if with_g:
            surfaces.append(rep.drf.surface)
            mgs.append(rep.drf.marginal_g)

    failures = len(failure_log)
    if failures > _MAX_FAILURE_FRACTION * b:
        detail = "; ".join(f"replicate {r}: [{code}] {msg}" for r, code, msg in failure_log[:5])
        raise BootstrapError(
            f"{failures}/{b} bootstrap replicates failed (> {_MAX_FAILURE_FRACTION:.0%}): {detail}",
            failures=failure_log,
        )

    mz_lo, mz_hi = _percentiles(mzs, level)
    if with_g:
        s_lo, s_hi = _percentiles(surfaces, level)
        mg_lo, mg_hi = _percentiles(mgs, level)
    else:
        s_lo = s_hi = mg_lo = mg_hi = None

    return BootstrapBands(
        level=level, b=b, b_effective=b - failures, failures=failures, seed=seed,
        surface_lo=s_lo, surface_hi=s_hi, marginal_z_lo=mz_lo, marginal_z_hi=mz_hi,
        marginal_g_lo=mg_lo, marginal_g_hi=mg_hi, failure_log=tuple(failure_log),
    )
