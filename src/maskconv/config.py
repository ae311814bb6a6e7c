"""Run configuration: key=value files with command-line overrides.

Configs are flat dotted keys.  Unknown keys are rejected so typos fail
loudly, and every command logs the fully resolved configuration before
doing work.
"""

from __future__ import annotations

from pathlib import Path


class ConfigError(ValueError):
    """Raised for unknown keys, bad values, or missing required keys."""


# key -> (parser, default)
KNOWN_KEYS = {
    "model.variant": (str, "learnable"),
    "model.strategy": (str, "separate"),
    "model.s": (int, 2),
    "model.chat": (int, 0),
    "model.g": (int, 0),
    "model.conv1_maps": (int, 8),
    "model.conv2_maps": (int, 16),
    "model.hidden": (int, 64),
    "train.lr": (float, 0.3),
    "train.lambda": (float, 0.1),
    "train.epochs": (int, 2),
    "train.batch": (int, 64),
    "train.seed": (int, 0),
    "data.path": (str, ""),
    "out.checkpoint": (str, "model.ckpt"),
    "out.log": (str, ""),
}


class RunConfig:
    """Validated settings for one command invocation."""

    def __init__(self):
        self.values = {key: default for key, (_, default) in KNOWN_KEYS.items()}

    def set(self, key: str, raw: str) -> None:
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        parser, _ = KNOWN_KEYS[key]
        try:
            self.values[key] = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from None

    def get(self, key: str):
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def require(self, key: str):
        value = self.get(key)
        if value == "" or value is None:
            raise ConfigError(f"missing required config key {key!r}")
        return value

    def resolved_lines(self) -> list[str]:
        return [f"{key}={self.values[key]}" for key in sorted(self.values)]


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    config = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        config.set(key, value)
    return config


def load_config(path: str | Path | None, overrides: list[str] | None = None) -> RunConfig:
    """Config file (optional) plus ``key=value`` override strings."""
    if path is None:
        config = RunConfig()
    else:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config file ({exc.strerror})") from None
        config = parse_config_text(text, source=str(path))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        config.set(key.strip(), value.strip())
    return config
