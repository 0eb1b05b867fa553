"""Line-based run configuration files: ``key = value`` pairs.

Recognized keys cover the architecture ablation axes (dilation triple,
fusion on/off and rates, channel scale) and the optimizer settings. Unknown
keys are rejected so typos fail loudly.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError
from .model import DNetConfig
from .training import TrainConfig

__all__ = ["parse_run_config", "RUN_CONFIG_KEYS"]


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.lower()
    if low in ("on", "true", "1", "yes"):
        return True
    if low in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected on/off, got {raw!r}")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_rates(key: str, raw: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected three comma-separated integers, got {raw!r}")
    return tuple(_parse_int(key, p) for p in parts)  # type: ignore[return-value]


_DILATION_KEYS = ("d1", "d2", "d3")
# Every other key: (parser, config field), in the order values are parsed.
_MODEL_FIELDS = {
    "msif_rates": (_parse_rates, "msif_rates"),
    "msif": (_parse_bool, "msif_enabled"),
    "channels_scale": (_parse_float, "channels_scale"),
}
_TRAIN_FIELDS = {
    "lr": (_parse_float, "lr"),
    "power": (_parse_float, "power"),
    "max_iter": (_parse_int, "max_iter"),
    "batch": (_parse_int, "batch"),
    "seed": (_parse_int, "seed"),
    "lambda": (_parse_float, "lam"),
    "beta": (_parse_float, "beta"),
}
RUN_CONFIG_KEYS = (*_DILATION_KEYS, *_MODEL_FIELDS, *_TRAIN_FIELDS)


def _fields(table, values: dict[str, str]) -> dict:
    return {
        field: parse(key, values[key]) for key, (parse, field) in table.items() if key in values
    }


def parse_run_config(path) -> tuple[DNetConfig, TrainConfig]:
    """Read a config file and build validated model and training configs.

    Keys the file leaves out keep the dataclass defaults, and a dilation
    triple that sets only some of d1, d2, d3 takes the others from
    ``DNetConfig()``; the file may be empty. Lines starting with ``#`` and
    blank lines are ignored; a key set twice is an error. Every
    ``ConfigError`` names ``path``.
    """
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}  # key -> line that set it
    text = Path(path).read_text(errors="replace")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in RUN_CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not raw:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        values[key] = raw

    try:
        model_fields = {}
        if any(key in values for key in _DILATION_KEYS):
            model_fields["dilations"] = tuple(
                _parse_int(key, values[key]) if key in values else default
                for key, default in zip(_DILATION_KEYS, DNetConfig().dilations)
            )
        model_cfg = DNetConfig(**model_fields, **_fields(_MODEL_FIELDS, values))
        train_cfg = TrainConfig(**_fields(_TRAIN_FIELDS, values))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return model_cfg, train_cfg
