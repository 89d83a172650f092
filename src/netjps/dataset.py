"""Unit-by-period panel records and their coupling to the interference graph."""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, UnboundColumnError
# check_unique_keys is re-exported: ingest checks a panel's keys before it
# has a graph to align with
from .network import check_unique_keys, exposure, neighborhood_covariate


@dataclass(frozen=True)
class PanelDataset:
    """Outcome, treatment, covariates and (once computed) exposure per row.

    Row order is preserved everywhere; nothing in the pipeline re-sorts it.
    ``g`` is None until exposures are attached.
    """

    units: np.ndarray
    periods: np.ndarray
    y: np.ndarray
    z: np.ndarray
    covariates: dict
    g: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "units", np.asarray(self.units, dtype=object))
        object.__setattr__(self, "periods", np.asarray(self.periods, dtype=object))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        n = self.units.shape[0]
        if self.periods.shape[0] != n or self.y.shape[0] != n or self.z.shape[0] != n:
            raise InputError("panel columns must have equal length")
        covs = {k: np.asarray(v, dtype=float) for k, v in self.covariates.items()}
        for name, v in covs.items():
            if v.shape[0] != n:
                raise InputError(f"covariate {name!r} has length {v.shape[0]}, expected {n}")
            if not np.all(np.isfinite(v)):
                raise InputError(f"covariate {name!r} has non-finite values")
        object.__setattr__(self, "covariates", covs)
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.z))):
            raise InputError("outcome and treatment must be finite")
        if self.g is not None:
            g = np.asarray(self.g, dtype=float)
            if g.shape[0] != n:
                raise InputError("exposure column has wrong length")
            if not np.all(np.isfinite(g)):
                raise InputError("exposure column has non-finite g values")
            object.__setattr__(self, "g", g)

    @property
    def n(self):
        return int(self.units.shape[0])

    def keys(self):
        return list(zip(self.units.tolist(), self.periods.tolist()))

    def covariate_matrix(self, names):
        missing = [nm for nm in names if nm not in self.covariates]
        if missing:
            raise UnboundColumnError(f"covariates not in dataset: {missing}")
        if not names:
            return np.empty((self.n, 0))
        return np.column_stack([self.covariates[nm] for nm in names])

    def covariate_names(self):
        return tuple(self.covariates.keys())

    def require_g(self):
        if self.g is None:
            raise InputError("exposures not computed; attach_exposure first")
        return self.g

    def with_covariate(self, name, values):
        covs = dict(self.covariates)
        covs[name] = np.asarray(values, dtype=float)
        return replace(self, covariates=covs)

    def subset(self, idx):
        """Row subset (duplicates allowed; used by the bootstrap)."""
        idx = np.asarray(idx)
        return PanelDataset(
            units=self.units[idx],
            periods=self.periods[idx],
            y=self.y[idx],
            z=self.z[idx],
            covariates={k: v[idx] for k, v in self.covariates.items()},
            g=None if self.g is None else self.g[idx],
        )


def attach_exposure(dataset, adj, mode="plain"):
    """Return a new dataset with :func:`netjps.network.exposure` attached as ``g``."""
    return replace(dataset, g=exposure(adj, dataset, mode))


def add_neighborhood_covariate(dataset, adj, spec):
    """Append the summarized neighbor attribute as a new covariate column."""
    values, _ = neighborhood_covariate(adj, dataset, spec)
    return dataset.with_covariate(spec.output_name(), values)
