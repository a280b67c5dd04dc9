"""Field-path-aware (de)serialization helpers for the scenario layer.

Every loader in :mod:`repro.scenario` parses plain mappings (the output of
``yaml.safe_load`` / ``json.loads``) into frozen dataclasses.  The helpers
here make the error contract uniform: any malformed input raises
:class:`~repro.common.errors.ConfigError` whose message *starts with the
dotted field path* (``plan.cc_probs[2]: ...``), so a user editing a 40-line
YAML file is pointed at the offending line instead of a Python traceback.
"""

from __future__ import annotations

import json
from typing import Any, List, Mapping, Sequence

import yaml

from ..common.errors import ConfigError

__all__ = [
    "REQUIRED",
    "require_mapping",
    "reject_unknown",
    "take",
    "as_str",
    "as_int",
    "as_bool",
    "as_float",
    "as_str_list",
    "detect_format",
    "parse_text",
    "dump_text",
    "canonical_json",
]

#: Sentinel for :func:`take`: the key has no default and must be present.
REQUIRED = object()


def require_mapping(value: Any, path: str) -> Mapping:
    """*value* as a mapping, or a pathed :class:`ConfigError`."""
    if not isinstance(value, Mapping):
        raise ConfigError(
            f"{path}: expected a mapping, got {type(value).__name__}"
        )
    return value


def reject_unknown(data: Mapping, allowed: Sequence[str], path: str) -> None:
    """Reject keys outside *allowed* — typos must not be silently ignored."""
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{path}: unknown field(s) {', '.join(map(repr, unknown))}; "
            f"expected one of {', '.join(sorted(allowed))}"
        )


def take(data: Mapping, key: str, path: str, default: Any = REQUIRED) -> Any:
    """``data[key]`` with a pathed error when a required key is missing."""
    if key in data:
        return data[key]
    if default is REQUIRED:
        raise ConfigError(f"{path}.{key}: required field is missing")
    return default


def as_str(value: Any, path: str, *, nonempty: bool = True) -> str:
    if not isinstance(value, str) or (nonempty and not value.strip()):
        raise ConfigError(f"{path}: expected a non-empty string, got {value!r}")
    return value


def as_int(value: Any, path: str, *, minimum: int | None = None) -> int:
    # bool is an int subclass; accepting True where a count is expected
    # would validate nonsense like ``count: true``.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def as_str_list(value: Any, path: str) -> List[str]:
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise ConfigError(f"{path}: expected a list of strings, got {value!r}")
    return [as_str(item, f"{path}[{i}]") for i, item in enumerate(value)]


# -- text formats -----------------------------------------------------------

def detect_format(path: str) -> str:
    """``"json"`` for ``*.json`` paths, ``"yaml"`` for everything else."""
    return "json" if str(path).lower().endswith(".json") else "yaml"


def parse_text(text: str, fmt: str, label: str = "scenario") -> Mapping:
    """Parse YAML/JSON *text* into the top-level mapping of a scenario file."""
    if fmt == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{label}: not valid JSON ({exc})") from None
    elif fmt == "yaml":
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{label}: not valid YAML ({exc})") from None
    else:
        raise ConfigError(f"unknown scenario format {fmt!r}; use 'yaml' or 'json'")
    return require_mapping(data, label)


def dump_text(data: Mapping, fmt: str) -> str:
    """Serialize a scenario mapping, preserving the schema's key order."""
    if fmt == "json":
        return json.dumps(data, indent=2) + "\n"
    if fmt == "yaml":
        return yaml.safe_dump(data, sort_keys=False, default_flow_style=False)
    raise ConfigError(f"unknown scenario format {fmt!r}; use 'yaml' or 'json'")


def canonical_json(data: Mapping) -> str:
    """Key-sorted, whitespace-free JSON — the content-hash input form."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
