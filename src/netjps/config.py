"""Flat key-value run configuration.

The format is one ``section.key = value`` pair per line, ``#`` comment lines
and blank lines allowed.  Everything needed to reproduce a run lives in one
file; the CLI adds no positional arguments beyond the subcommand.

``_KEYS`` is the one schema: it maps each key to the dotted path of its
``RunConfig`` field and to a parser that also checks the value.  Both
:func:`parse_config` and :func:`serialize_config` walk it; the
``scenario.*`` rows come from the fields of ``Scenario`` and
``OutcomeRule``.  Only ``neighborhood.<name>`` keys sit outside it, since
their field name comes from the key.
"""

from dataclasses import dataclass, field, fields

from .errors import ConfigError, InputError
from .jps import ContrastSpec, GridPolicy
from .network import EXPOSURE_MODES, NeighborhoodSummarySpec
from .synth import OutcomeRule, Scenario

VARIANTS = ("jps", "naive", "both")


@dataclass(frozen=True)
class ColumnBindings:
    unit: str = "unit"
    period: str = "period"
    outcome: str = "y"
    treatment: str = "z"
    x_z: tuple = ()
    x_g: tuple = ()


@dataclass(frozen=True)
class BootstrapSettings:
    b: int = 0  # 0 disables the bootstrap
    seed: int = 1
    level: float = 0.95


@dataclass(frozen=True)
class RunConfig:
    panel: str | None = None
    edges: str | None = None
    out: str = "out"
    columns: ColumnBindings = field(default_factory=ColumnBindings)
    exposure_mode: str = "plain"
    neighborhood: tuple = ()
    grid: GridPolicy = field(default_factory=GridPolicy)
    variant: str = "jps"
    bootstrap: BootstrapSettings = field(default_factory=BootstrapSettings)
    contrasts: ContrastSpec = field(default_factory=ContrastSpec)
    scenario: Scenario | None = None
    oracle_m: int = 100_000  # Monte Carlo draws behind simulate's ground truth


def _text(raw, where):
    return raw


def _number(kind, valid=None, rule=None):
    """Parser for one int or float; ``valid`` rejects a parsed value with ``rule``."""
    def parse(raw, where):
        try:
            value = kind(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected {kind.__name__}, got {raw!r}") from None
        if valid is not None and not valid(value):
            raise ConfigError(f"{where}: {rule}")
        return value
    return parse


def _choice(options):
    def parse(raw, where):
        value = raw.replace("-", "_")
        if value not in options:
            raise ConfigError(f"{where}: must be one of {options}")
        return value
    return parse


def _list(item):
    def parse(raw, where):
        return tuple(item(s.strip(), where) for s in raw.split(",") if s.strip())
    return parse


def _pair(raw, where):
    parts = raw.split(":")
    if len(parts) != 2:
        raise ConfigError(f"{where}: contrast pair must be 'a:b', got {raw!r}")
    return tuple(_float(p.strip(), where) for p in parts)


def _or_none(parse):
    return lambda raw, where: parse(raw, where) or None


_float = _number(float)
_seed = _number(int, lambda s: s >= 0, "must be >= 0")
_grid_size = _number(int, lambda n: n >= 1, "must be >= 1")
_percent = _number(float, lambda p: 0 <= p <= 100, "must be in [0, 100]")
# scenario fields parse by their annotated type unless named here
_BY_TYPE = {int: _number(int), float: _float, tuple: _list(_float)}
_BY_NAME = {"exposure_mode": _choice(EXPOSURE_MODES), "seed": _seed}

_KEYS = {
    "panel": ("panel", _text),
    "edges": ("edges", _text),
    "out": ("out", _text),
    "variant": ("variant", _choice(VARIANTS)),
    "exposure.mode": ("exposure_mode", _choice(EXPOSURE_MODES)),
    "columns.unit": ("columns.unit", _text),
    "columns.period": ("columns.period", _text),
    "columns.outcome": ("columns.outcome", _text),
    "columns.treatment": ("columns.treatment", _text),
    "columns.x_z": ("columns.x_z", _list(_text)),
    "columns.x_g": ("columns.x_g", _list(_text)),
    "grid.n_z": ("grid.n_z", _grid_size),
    "grid.n_g": ("grid.n_g", _grid_size),
    "grid.lower_pct": ("grid.lower_pct", _percent),
    "grid.upper_pct": ("grid.upper_pct", _percent),
    "grid.z_values": ("grid.z_values", _or_none(_list(_float))),
    "grid.g_values": ("grid.g_values", _or_none(_list(_float))),
    "bootstrap.b": ("bootstrap.b", _number(int, lambda b: b == 0 or b >= 2,
                                           "B must be 0 (disabled) or >= 2")),
    "bootstrap.seed": ("bootstrap.seed", _seed),
    "bootstrap.level": ("bootstrap.level", _number(float, lambda v: 0 < v < 1,
                                                   "level must be in (0, 1)")),
    "oracle.m": ("oracle_m", _number(int, lambda m: m >= 100, "oracle draws must be >= 100")),
    "effects.z_pairs": ("contrasts.z_pairs", _list(_pair)),
    "effects.g_pairs": ("contrasts.g_pairs", _list(_pair)),
}
_KEYS.update({f"{prefix}.{f.name}": (f"{prefix}.{f.name}", _BY_NAME.get(f.name) or _BY_TYPE[f.type])
              for prefix, cls in (("scenario", Scenario), ("scenario.outcome", OutcomeRule))
              for f in fields(cls) if f.type is not OutcomeRule})

_SECTIONS = {"columns": ColumnBindings, "grid": GridPolicy,
             "bootstrap": BootstrapSettings, "contrasts": ContrastSpec}


def _neighborhood(name, raw, where):
    parts = [p.strip() for p in raw.split(":")]
    if len(parts) != 3:
        raise ConfigError(f"{where}: expected 'summarizer:direction:covariate'")
    summarizer, direction, covariate = parts
    try:
        return NeighborhoodSummarySpec(covariate=covariate, summarizer=summarizer.replace("-", "_"),
                                       direction=direction, name=name)
    except InputError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _unknown(key, source, lineno):
    where = f"{source}:{lineno}: {key}"
    if key.startswith("scenario.outcome."):
        return ConfigError(f"{where}: unknown outcome-rule field {key.split('.', 2)[2]!r}")
    if key.startswith("scenario."):
        return ConfigError(f"{where}: unknown scenario field {key.split('.', 1)[1]!r}")
    return ConfigError(f"{source}:{lineno}: unknown key {key!r}")


def _scenario(values, source):
    if "n_units" not in values:
        raise ConfigError(f"{source}: scenario requires scenario.n_units")
    if "outcome" in values:
        values["outcome"] = OutcomeRule(**values["outcome"])
    try:
        return Scenario(**values)
    except InputError as exc:
        raise ConfigError(f"{source}: invalid scenario: {exc}") from None


def parse_config(text, source="<config>"):
    """Parse configuration text; errors name the offending field and line."""
    tree = {}  # nested dicts keyed by the path components of each set field
    neighborhood = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        where = f"{source}:{lineno}: {key}"
        if key.startswith("neighborhood."):
            neighborhood.append(_neighborhood(key.split(".", 1)[1], raw, where))
            continue
        if key not in _KEYS:
            raise _unknown(key, source, lineno)
        path, parse = _KEYS[key]
        *parents, name = path.split(".")
        node = tree
        for part in parents:
            node = node.setdefault(part, {})
        node[name] = parse(raw, where)

    scenario = _scenario(tree.pop("scenario"), source) if "scenario" in tree else None
    try:
        sections = {name: cls(**tree.pop(name, {})) for name, cls in _SECTIONS.items()}
    except InputError:  # GridPolicy's percentile order, the one rule across keys
        raise ConfigError(f"{source}: grid.lower_pct must be below grid.upper_pct") from None
    columns = sections["columns"]
    if columns.outcome == columns.treatment:
        raise ConfigError(f"{source}: columns.outcome and columns.treatment both bind "
                          f"column {columns.outcome!r}")
    # the panel's bound columns are not covariates, so a summary named like
    # one would be added silently in its place
    for spec in neighborhood:
        for binding in ("unit", "period", "outcome", "treatment"):
            if spec.output_name() == getattr(columns, binding):
                raise ConfigError(f"{source}: neighborhood.{spec.output_name()} is named like "
                                  f"columns.{binding}")
    return RunConfig(**tree, **sections, neighborhood=tuple(neighborhood), scenario=scenario)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=str(path))


def _fmt_value(v, seps=",:"):
    """Config text for a value: list items joined by ',', pair members by ':'."""
    if isinstance(v, tuple):
        return seps[0].join(_fmt_value(x, seps[1:]) for x in v)
    return repr(v) if isinstance(v, float) else str(v)


def serialize_config(cfg):
    """Render a RunConfig back to config text (semantic round-trip)."""
    lines = []
    for key, (path, _) in _KEYS.items():
        value = cfg
        for part in path.split("."):
            value = getattr(value, part, None)  # None past an unset scenario
        if value is not None:
            lines.append(f"{key} = {_fmt_value(value)}")
    for spec in cfg.neighborhood:
        lines.append(f"neighborhood.{spec.output_name()} = "
                     f"{spec.summarizer}:{spec.direction}:{spec.covariate}")
    return "\n".join(lines) + "\n"
