"""Flat key-value run configuration.

The format is one ``section.key = value`` pair per line, ``#`` comment lines
and blank lines allowed.  Everything needed to reproduce a run lives in one
file; the CLI adds no positional arguments beyond the subcommand.
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


def _parse_scalar(raw, kind, where):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected {kind.__name__}, got {raw!r}") from None
    return raw


def _parse_list(raw, kind, where):
    items = [s.strip() for s in raw.split(",") if s.strip()]
    return tuple(_parse_scalar(s, kind, where) for s in items)


def _parse_pairs(raw, where):
    pairs = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(f"{where}: contrast pair must be 'a:b', got {chunk!r}")
        pairs.append((_parse_scalar(parts[0].strip(), float, where),
                      _parse_scalar(parts[1].strip(), float, where)))
    return tuple(pairs)


_SCENARIO_SCALARS = {
    "n_units": int, "n_periods": int, "edge_prob": float,
    "weight_log_mean": float, "weight_log_sd": float, "weight_covariate_coef": float,
    "n_covariates": int, "covariate_mean": float, "covariate_sd": float,
    "treatment_intercept": float, "treatment_sd": float,
    "exposure_mode": str, "outcome_sd": float, "seed": int,
}
_OUTCOME_SCALARS = {"intercept", "z", "z2", "z3", "g", "g2", "zg"}


def parse_config(text, source="<config>"):
    """Parse configuration text; errors name the offending field and line."""
    values = {}
    columns = {}
    grid = {}
    boot = {}
    contrasts = {}
    neighborhood = []
    scenario_kv = {}
    outcome_kv = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        where = f"{source}:{lineno}: {key}"

        if key in ("panel", "edges", "out"):
            values[key] = raw
        elif key == "variant":
            if raw not in VARIANTS:
                raise ConfigError(f"{where}: must be one of {VARIANTS}")
            values["variant"] = raw
        elif key == "exposure.mode":
            mode = raw.replace("-", "_")
            if mode not in EXPOSURE_MODES:
                raise ConfigError(f"{where}: must be one of {EXPOSURE_MODES}")
            values["exposure_mode"] = mode
        elif key in ("columns.unit", "columns.period", "columns.outcome", "columns.treatment"):
            columns[key.split(".", 1)[1]] = raw
        elif key in ("columns.x_z", "columns.x_g"):
            columns[key.split(".", 1)[1]] = _parse_list(raw, str, where)
        elif key in ("grid.n_z", "grid.n_g"):
            grid[key.split(".", 1)[1]] = _parse_scalar(raw, int, where)
        elif key in ("grid.lower_pct", "grid.upper_pct"):
            grid[key.split(".", 1)[1]] = _parse_scalar(raw, float, where)
        elif key in ("grid.z_values", "grid.g_values"):
            vals = _parse_list(raw, float, where)
            grid[key.split(".", 1)[1]] = vals if vals else None
        elif key == "bootstrap.b":
            b = _parse_scalar(raw, int, where)
            if b != 0 and b < 2:
                raise ConfigError(f"{where}: B must be 0 (disabled) or >= 2")
            boot["b"] = b
        elif key == "bootstrap.seed":
            boot["seed"] = _parse_scalar(raw, int, where)
        elif key == "bootstrap.level":
            level = _parse_scalar(raw, float, where)
            if not 0 < level < 1:
                raise ConfigError(f"{where}: level must be in (0, 1)")
            boot["level"] = level
        elif key == "oracle.m":
            m = _parse_scalar(raw, int, where)
            if m < 100:
                raise ConfigError(f"{where}: oracle draws must be >= 100")
            values["oracle_m"] = m
        elif key in ("effects.z_pairs", "effects.g_pairs"):
            contrasts[key.split(".", 1)[1]] = _parse_pairs(raw, where)
        elif key.startswith("neighborhood."):
            name = key.split(".", 1)[1]
            parts = [p.strip() for p in raw.split(":")]
            if len(parts) != 3:
                raise ConfigError(f"{where}: expected 'summarizer:direction:covariate'")
            summarizer, direction, covariate = parts
            try:
                neighborhood.append(NeighborhoodSummarySpec(
                    covariate=covariate, summarizer=summarizer.replace("-", "_"),
                    direction=direction, name=name))
            except InputError as exc:
                raise ConfigError(f"{where}: {exc}") from None
        elif key.startswith("scenario.outcome."):
            sub = key.split(".", 2)[2]
            if sub == "x":
                outcome_kv["x"] = _parse_list(raw, float, where)
            elif sub in _OUTCOME_SCALARS:
                outcome_kv[sub] = _parse_scalar(raw, float, where)
            else:
                raise ConfigError(f"{where}: unknown outcome-rule field {sub!r}")
        elif key.startswith("scenario."):
            sub = key.split(".", 1)[1]
            if sub == "treatment_coefs":
                scenario_kv[sub] = _parse_list(raw, float, where)
            elif sub in _SCENARIO_SCALARS:
                kind = _SCENARIO_SCALARS[sub]
                val = _parse_scalar(raw, kind, where)
                if sub == "exposure_mode":
                    val = val.replace("-", "_")
                    if val not in EXPOSURE_MODES:
                        raise ConfigError(f"{where}: must be one of {EXPOSURE_MODES}")
                scenario_kv[sub] = val
            else:
                raise ConfigError(f"{where}: unknown scenario field {sub!r}")
        else:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")

    scenario = None
    if scenario_kv or outcome_kv:
        if "n_units" not in scenario_kv:
            raise ConfigError(f"{source}: scenario requires scenario.n_units")
        if outcome_kv:
            scenario_kv["outcome"] = OutcomeRule(**outcome_kv)
        try:
            scenario = Scenario(**scenario_kv)
        except Exception as exc:
            raise ConfigError(f"{source}: invalid scenario: {exc}") from None

    return RunConfig(
        panel=values.get("panel"),
        edges=values.get("edges"),
        out=values.get("out", "out"),
        columns=ColumnBindings(**columns),
        exposure_mode=values.get("exposure_mode", "plain"),
        neighborhood=tuple(neighborhood),
        grid=GridPolicy(**grid),
        variant=values.get("variant", "jps"),
        bootstrap=BootstrapSettings(**boot),
        contrasts=ContrastSpec(**contrasts),
        scenario=scenario,
        oracle_m=values.get("oracle_m", 100_000),
    )


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=str(path))


def _fmt_value(v):
    if isinstance(v, tuple):
        return ",".join(_fmt_value(x) for x in v)
    return repr(v) if isinstance(v, float) else str(v)


def serialize_config(cfg):
    """Render a RunConfig back to config text (semantic round-trip)."""
    lines = []
    if cfg.panel is not None:
        lines.append(f"panel = {cfg.panel}")
    if cfg.edges is not None:
        lines.append(f"edges = {cfg.edges}")
    lines.append(f"out = {cfg.out}")
    lines.append(f"variant = {cfg.variant}")
    lines.append(f"exposure.mode = {cfg.exposure_mode}")
    c = cfg.columns
    lines += [
        f"columns.unit = {c.unit}",
        f"columns.period = {c.period}",
        f"columns.outcome = {c.outcome}",
        f"columns.treatment = {c.treatment}",
    ]
    if c.x_z:
        lines.append(f"columns.x_z = {_fmt_value(c.x_z)}")
    if c.x_g:
        lines.append(f"columns.x_g = {_fmt_value(c.x_g)}")
    for spec in cfg.neighborhood:
        lines.append(
            f"neighborhood.{spec.output_name()} = "
            f"{spec.summarizer}:{spec.direction}:{spec.covariate}"
        )
    g = cfg.grid
    lines += [
        f"grid.n_z = {g.n_z}",
        f"grid.n_g = {g.n_g}",
        f"grid.lower_pct = {_fmt_value(g.lower_pct)}",
        f"grid.upper_pct = {_fmt_value(g.upper_pct)}",
    ]
    if g.z_values is not None:
        lines.append(f"grid.z_values = {_fmt_value(tuple(g.z_values))}")
    if g.g_values is not None:
        lines.append(f"grid.g_values = {_fmt_value(tuple(g.g_values))}")
    b = cfg.bootstrap
    lines += [
        f"bootstrap.b = {b.b}",
        f"bootstrap.seed = {b.seed}",
        f"bootstrap.level = {_fmt_value(b.level)}",
        f"oracle.m = {cfg.oracle_m}",
    ]
    if cfg.contrasts.z_pairs:
        pairs = ",".join(f"{_fmt_value(a)}:{_fmt_value(bb)}" for a, bb in cfg.contrasts.z_pairs)
        lines.append(f"effects.z_pairs = {pairs}")
    if cfg.contrasts.g_pairs:
        pairs = ",".join(f"{_fmt_value(a)}:{_fmt_value(bb)}" for a, bb in cfg.contrasts.g_pairs)
        lines.append(f"effects.g_pairs = {pairs}")
    s = cfg.scenario
    if s is not None:
        for f_ in fields(Scenario):
            if f_.name == "outcome":
                continue
            lines.append(f"scenario.{f_.name} = {_fmt_value(getattr(s, f_.name))}")
        for f_ in fields(OutcomeRule):
            val = getattr(s.outcome, f_.name)
            if f_.name == "x":
                if val:
                    lines.append(f"scenario.outcome.x = {_fmt_value(val)}")
            else:
                lines.append(f"scenario.outcome.{f_.name} = {_fmt_value(val)}")
    return "\n".join(lines) + "\n"
