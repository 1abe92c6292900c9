"""Plain-text run configuration.

Files are flat ``key = value`` lines with ``#`` comments. Unknown keys are
rejected; missing keys fall back to the documented defaults (the large-
network profile: embed 64, ffn 1024, 4 heads, 1 layer, mask ratio 0.2,
subgraph 50, lr 1e-4 with a milestone-55 0.1x decay, patience 10).
Command-line flags override file values; the config is checked when made.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError
from .train import TrainConfig, format_cell


def _parse_int_list(raw):
    raw = raw.strip()
    if not raw or raw.lower() == "none":
        return ()
    return tuple(int(v) for v in raw.split(","))


def _parse_float_triple(raw):
    parts = tuple(float(v) for v in raw.split(","))
    if len(parts) != 3:
        raise ValueError("expected three comma-separated fractions")
    return parts


_TUPLE_PARSERS = {"milestones": _parse_int_list, "split": _parse_float_triple}

# key -> (parser, default) in snapshot order: the dataset path (no value
# unless given), then every TrainConfig field, parsed by its default's type
SCHEMA = {"dataset": (str, None)} | {
    f.name: (_TUPLE_PARSERS.get(f.name, type(f.default)), f.default)
    for f in fields(TrainConfig)
}


@dataclass
class RunConfig:
    train: TrainConfig
    dataset: str | None


def parse_config_file(path):
    """Read ``key = value`` pairs, each key once; values stay raw strings here."""
    values, lines = {}, {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in lines:
                raise ConfigError(f"{path}:{lineno}: config key {key!r} given twice, "
                                  f"on lines {lines[key]} and {lineno}")
            values[key], lines[key] = raw, lineno
    return values


def resolve(file_values=None, overrides=None):
    """Merge file values and overrides onto the defaults.

    ``overrides`` maps key -> raw string (CLI wins over file). Returns a
    RunConfig; a value its TrainConfig rejects raises ConfigError.
    """
    merged = {}
    for source in (file_values or {}), (overrides or {}):
        for key, raw in source.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            if raw is not None:
                merged[key] = str(raw)
    resolved = {}
    for key, (parser, default) in SCHEMA.items():
        if key in merged:
            try:
                resolved[key] = parser(merged[key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {merged[key]!r} ({exc})") from exc
        else:
            resolved[key] = default
    dataset = resolved.pop("dataset")
    try:
        cfg = TrainConfig(**resolved)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(train=cfg, dataset=dataset)


def snapshot(run_config):
    """Canonical resolved-config text; with the seed it reproduces the run."""
    cfg = run_config.train
    lines = []
    for key in SCHEMA:
        if key == "dataset":
            value = run_config.dataset if run_config.dataset is not None else ""
        else:
            value = getattr(cfg, key)
            cells = value if isinstance(value, tuple) else (value,)
            value = ",".join(map(format_cell, cells))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
