"""Unit-by-period panel records and their coupling to the interference graph."""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, UnboundColumnError
from .linear_model import frequency_weights
# check_unique_keys is re-exported: ingest checks a panel's keys before it
# has a graph to align with
from .network import PanelKeys, check_unique_keys, exposure, neighborhood_covariate


@dataclass(frozen=True)
class PanelDataset:
    """Outcome, treatment, covariates and (once computed) exposure per row.

    Row order is preserved everywhere; nothing in the pipeline re-sorts it.
    ``g`` is None until exposures are attached.  ``weights`` are positive
    frequency weights, one per row, 1 each unless given: every estimation
    stage counts row i weights[i] times, as if it were repeated, with the
    same arithmetic whatever the weights.
    """

    units: np.ndarray
    periods: np.ndarray
    y: np.ndarray
    z: np.ndarray
    covariates: dict
    g: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "units", np.asarray(self.units, dtype=object))
        object.__setattr__(self, "periods", np.asarray(self.periods, dtype=object))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        n = self.units.shape[0]
        if self.periods.shape[0] != n or self.y.shape[0] != n or self.z.shape[0] != n:
            raise InputError("panel columns must have equal length")
        if n == 0:
            raise InputError("panel has no rows")
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
        object.__setattr__(self, "weights", frequency_weights(self.weights, n))

    @property
    def n(self):
        return int(self.units.shape[0])

    def keys(self):
        """The rows' keys as :class:`~netjps.network.PanelKeys`, coded and
        checked unique on first use and shared by every dataset derived from
        this one with the same key columns (:meth:`with_covariate`,
        :func:`attach_exposure`)."""
        keys = self.__dict__.get("_keys")
        if keys is None:
            keys = PanelKeys.of(self.units, self.periods)
            object.__setattr__(self, "_keys", keys)
        return keys

    def _derive(self, **changes):
        """``replace(self, **changes)`` for changes that keep the key
        columns, carrying the coded keys along."""
        derived = replace(self, **changes)
        if "_keys" in self.__dict__:
            object.__setattr__(derived, "_keys", self._keys)
        return derived

    def covariate_matrix(self, names, out=None):
        """The named covariates as the columns of a new (n, len(names))
        array, or written into ``out``'s columns."""
        missing = [nm for nm in names if nm not in self.covariates]
        if missing:
            raise UnboundColumnError(f"covariates not in dataset: {missing}")
        if out is None:
            out = np.empty((self.n, len(names)))
        for j, nm in enumerate(names):
            out[:, j] = self.covariates[nm]
        return out

    def covariate_names(self):
        return tuple(self.covariates.keys())

    def require_g(self):
        if self.g is None:
            raise InputError("exposures not computed; attach_exposure first")
        return self.g

    def with_covariate(self, name, values):
        covs = dict(self.covariates)
        covs[name] = np.asarray(values, dtype=float)
        return self._derive(covariates=covs)

    def subset(self, idx, weights=None):
        """The rows ``idx``, repeats allowed, each with its weight times
        ``weights[j]``.  The bootstrap takes each replicate's distinct
        drawn rows, weighted by how often each was drawn."""
        idx = np.asarray(idx)
        weights = self.weights[idx] if weights is None else self.weights[idx] * weights
        return PanelDataset(
            units=self.units[idx],
            periods=self.periods[idx],
            y=self.y[idx],
            z=self.z[idx],
            covariates={k: v[idx] for k, v in self.covariates.items()},
            g=None if self.g is None else self.g[idx],
            weights=weights,
        )


def attach_exposure(dataset, adj, mode="plain"):
    """Return a new dataset with :func:`netjps.network.exposure` attached as ``g``."""
    return dataset._derive(g=exposure(adj, dataset, mode))


def add_neighborhood_covariate(dataset, adj, spec):
    """Append the summarized neighbor attribute as a new covariate column;
    a name the dataset already has is rejected, not replaced."""
    name = spec.output_name()
    if name in dataset.covariates:
        raise InputError(f"neighborhood covariate {name!r} is already a covariate")
    values, _ = neighborhood_covariate(adj, dataset, spec)
    return dataset.with_covariate(name, values)
