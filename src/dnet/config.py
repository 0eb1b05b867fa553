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

RUN_CONFIG_KEYS = (
    "d1", "d2", "d3",
    "msif", "msif_rates",
    "lr", "power", "max_iter", "batch",
    "lambda", "beta", "seed", "channels_scale",
)

_DEFAULTS = {
    "d1": "1", "d2": "2", "d3": "4",
    "msif": "on", "msif_rates": "3,6,12",
    "lr": "1e-4", "power": "0.9", "max_iter": "1000", "batch": "4",
    "lambda": "1e-4", "beta": "1.0", "seed": "0", "channels_scale": "1.0",
}


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


def parse_run_config(path) -> tuple[DNetConfig, TrainConfig]:
    """Read a config file and build validated model and training configs.

    Missing keys take defaults; the file may be empty. Lines starting with
    ``#`` and blank lines are ignored. Every ``ConfigError`` names ``path``.
    """
    values = dict(_DEFAULTS)
    text = Path(path).read_text()
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
        values[key] = raw

    try:
        model_cfg = DNetConfig(
            dilations=(
                _parse_int("d1", values["d1"]),
                _parse_int("d2", values["d2"]),
                _parse_int("d3", values["d3"]),
            ),
            msif_rates=_parse_rates("msif_rates", values["msif_rates"]),
            msif_enabled=_parse_bool("msif", values["msif"]),
            channels_scale=_parse_float("channels_scale", values["channels_scale"]),
        )
        train_cfg = TrainConfig(
            lr=_parse_float("lr", values["lr"]),
            power=_parse_float("power", values["power"]),
            max_iter=_parse_int("max_iter", values["max_iter"]),
            batch=_parse_int("batch", values["batch"]),
            seed=_parse_int("seed", values["seed"]),
            lam=_parse_float("lambda", values["lambda"]),
            beta=_parse_float("beta", values["beta"]),
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return model_cfg, train_cfg
