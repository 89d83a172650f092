"""In-memory span tracer for one ``netjps drf`` invocation.

Each wrap site replaces a public function at the attribute its caller looks
it up through (``netjps.cli.build_adjacency``, ``netjps.bootstrap.run_jps``,
...), so the traced run executes the same ``cli.main`` code path as the
untraced one.  Spans (name, start, end, parent, command id) stay in a list
until the run ends; counters are taken at the same boundaries from the
arguments and results the wrapped function already has.
"""

import importlib
import inspect
import os
import sys
from dataclasses import dataclass, field, fields
from functools import wraps
from time import perf_counter

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    cmd: int
    replicate: bool = False


def _array_bytes(obj):
    """Bytes held by the numpy / scipy.sparse arrays among obj's fields."""
    total = 0
    for v in vars(obj).values():
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif hasattr(v, "data") and hasattr(v, "indices") and hasattr(v, "indptr"):
            total += v.data.nbytes + v.indices.nbytes + v.indptr.nbytes
    return total


def _path_arg(fn, args, kwargs):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get("path")
    except TypeError:
        return None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    installed: set = field(default_factory=set)  # span names with a live wrap site
    cmd: int = 0
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)
    _last_subset: object = None

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    # -- installation ------------------------------------------------------

    def install(self, sites):
        for target, name, hook in sites:
            module_name, _, attr_path = target.partition(":")
            *owner_path, attr = attr_path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                print(f"perfbench: wrap site {target} is absent; {name} metrics omitted",
                      file=sys.stderr)
                continue
            setattr(owner, attr, self._wrap(original, name, hook))
            self._patched.append((owner, attr, original))
            self.installed.add(name)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hook):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            replicate = False
            if name in ("jps.run_jps", "jps.run_naive") and args:
                replicate = args[0] is tracer._last_subset
                if replicate:
                    tracer._last_subset = None
            span = Span(name, perf_counter(), 0.0,
                        tracer._stack[-1] if tracer._stack else -1, tracer.cmd, replicate)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        return traced


# -- counters taken at wrap sites ------------------------------------------

def _rows_panel(t, fn, args, kwargs, result):
    t.count("io.rows_read", len(result[0]))


def _rows_edges(t, fn, args, kwargs, result):
    t.count("io.rows_read", len(result))


def _bytes_written(t, fn, args, kwargs, result):
    path = _path_arg(fn, args, kwargs)
    if path is not None and os.path.exists(path):
        t.count("io.bytes_written", os.path.getsize(path))


def _adjacency(t, fn, args, kwargs, result):
    edges = args[0] if args else kwargs.get("edges")
    t.count("network.edges", len(edges))
    t.peak("network.adjacency_bytes", sum(_array_bytes(b) for b in result.blocks.values()))


def _subset(t, fn, args, kwargs, result):
    t._last_subset = result


def _outcome_rows(t, fn, args, kwargs, result):
    t.count("linear_model.outcome_rows_built", result[0].shape[0])


def _impute(t, fn, args, kwargs, result):
    t.count("jps.impute_drf.cells", result.z_grid.size * result.g_grid.size)
    t.peak("jps.unit_level_bytes", sum(
        getattr(result, f.name).nbytes for f in fields(result)
        if f.name.startswith("unit_") and getattr(result, f.name) is not None))


def _bootstrap(t, fn, args, kwargs, result):
    t.count("bootstrap.failures", result.failures)
    t.count("bootstrap.completed", result.b_effective)


_WRITERS = ("write_json", "write_drf_surface_csv", "write_marginal_csv",
            "write_exposure_csv", "write_panel_csv", "write_edges_csv")

BOOTSTRAP_SITE = ("netjps.bootstrap:bootstrap_drf", "bootstrap.bootstrap_drf", _bootstrap)

# (module:attribute as the caller looks it up, span name, counter hook)
SITES = (
    ("netjps.cli:load_config", "config.load_config", None),
    ("netjps.io:read_panel_csv", "io.read_panel_csv", _rows_panel),
    ("netjps.io:read_edges_csv", "io.read_edges_csv", _rows_edges),
    *((f"netjps.io:{w}", f"io.{w}", _bytes_written) for w in _WRITERS),
    ("netjps.io:drf_payload", "io.drf_payload", None),
    ("netjps.io:linear_fit_payload", "io.linear_fit_payload", None),
    ("netjps.cli:check_unique_keys", "dataset.check_unique_keys", None),
    ("netjps.cli:build_adjacency", "network.build_adjacency", _adjacency),
    ("netjps.cli:attach_exposure", "dataset.attach_exposure", None),
    ("netjps.cli:add_neighborhood_covariate", "dataset.add_neighborhood_covariate", None),
    ("netjps.dataset:neighborhood_covariate", "network.neighborhood_covariate", None),
    ("netjps.dataset:PanelDataset.subset", "dataset.subset", _subset),
    ("netjps.jps:run_jps", "jps.run_jps", None),
    ("netjps.jps:run_naive", "jps.run_naive", None),
    ("netjps.bootstrap:run_jps", "jps.run_jps", None),
    ("netjps.bootstrap:run_naive", "jps.run_naive", None),
    ("netjps.jps:fit_treatment_models", "jps.fit_treatment_models", None),
    ("netjps.jps:predict_scores", "jps.predict_scores", None),
    ("netjps.jps:fit_outcome", "jps.fit_outcome", None),
    ("netjps.jps:impute_drf", "jps.impute_drf", _impute),
    ("netjps.jps:effects", "jps.effects", None),
    ("netjps.jps:boxcox_zero_skew", "transforms.boxcox_zero_skew", None),
    ("netjps.transforms:skewness", "transforms.skewness", None),
    ("netjps.jps:build_outcome_matrix", "linear_model.build_outcome_matrix", _outcome_rows),
    ("netjps.jps:fit_ols", "linear_model.fit_ols", None),
    BOOTSTRAP_SITE,
)


def layer_summary(tracer, wall_s):
    """Self time and call count per span name, counters, coverage of wall_s.

    Self time is a span's duration minus its direct children's durations;
    the spans of one thread nest, so children never overlap.
    """
    self_s = [s.end - s.start for s in tracer.spans]
    for s in tracer.spans:
        if s.parent >= 0:
            self_s[s.parent] -= s.end - s.start
    by_name = {}
    for s, own in zip(tracer.spans, self_s):
        entry = by_name.setdefault(s.name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += 1
    return {
        "by_name": by_name,
        "counters": dict(tracer.counters),
        "replicate_s": [s.end - s.start for s in tracer.spans if s.replicate],
        "pipeline_runs": sum(1 for s in tracer.spans
                             if s.name in ("jps.run_jps", "jps.run_naive") and not s.replicate),
        "coverage": sum(s.end - s.start for s in tracer.spans if s.parent < 0) / wall_s,
        "installed": sorted(tracer.installed),
    }
