"""Bundled run configurations and the default query-pattern file.

Presets are complete run configs (pipeline settings plus simulator
parameters) shipped as JSON next to this module:

- ``small``: 1k individuals, quick smoke runs.
- ``fig1a``: 10k individuals tuned so the five diffusion phases appear
  in order; also the noise-free recovery scenario.
- ``recovery``: 4k individuals with strong, known-sign hazard effects
  for regression sign-recovery experiments.
- ``perf``: 100k individuals / roughly five million events.
"""

from importlib import resources

from .errors import ConfigError
from .files import read_json

PRESET_NAMES = ("small", "fig1a", "recovery", "perf")


def _resource(name):
    return resources.files(__package__) / "presets" / name


def preset_path(name):
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    return _resource(f"{name}.json")


def load_preset(name):
    """Parsed run-config dict for a bundled preset."""
    return read_json(preset_path(name), config=True)


def default_patterns_path():
    """Filesystem path of the bundled awareness query patterns."""
    return str(_resource("patterns_default.txt"))
