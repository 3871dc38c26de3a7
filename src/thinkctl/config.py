"""Configuration with precedence flags > environment > file > defaults.

The file format is INI-style sections of flat key/value pairs in UTF-8;
every key also exists as a command-line flag. The ``Config`` fields are
the one key table: each field's metadata names its file section and,
where it is not ``--<name-with-dashes>``, its flag. Defaults are the operating points of
the modules that use them (wire backend, budget policy, worker count).
The ``backend`` and ``policy`` sections are keyword arguments of
``WireBackend`` and ``BudgetPolicy``, which check their own ranges.
"""

from __future__ import annotations

import os
import re
from dataclasses import Field, dataclass, field, fields
from typing import Mapping

from .budget import DEFAULT_FORCING_TEXT, DEFAULT_PER_FORCING_CAP, DEFAULT_THINKING_BUDGET, BudgetPolicy
from .client import DEFAULT_SEED, DEFAULT_TEMPERATURE, DEFAULT_WORKERS, WireBackend
from .jsonl import SchemaError, read_lines

BASE_URL_ENV = "M1_BASE_URL"

# a key, then the first "=" or ":", then the value
_ASSIGNMENT = re.compile(r"([^=:]*)[=:](.*)")

# the file sections whose keys are WireBackend and BudgetPolicy keyword arguments
BACKEND_SECTION = "backend"
POLICY_SECTION = "policy"
RUN_SECTION = "run"


class ConfigError(ValueError):
    pass


def _key(section: str, default, flag: str | None = None, help: str | None = None):
    return field(default=default, metadata={"section": section, "flag": flag, "help": help})


@dataclass
class Config:
    base_url: str = _key(BACKEND_SECTION, "http://localhost:8000", help="chat-completions base URL")
    model: str = _key(BACKEND_SECTION, "default", help="model name sent to the backend")
    temperature: float = _key(BACKEND_SECTION, DEFAULT_TEMPERATURE)
    seed: int = _key(BACKEND_SECTION, DEFAULT_SEED)
    thinking_budget: int = _key(POLICY_SECTION, DEFAULT_THINKING_BUDGET, flag="--budget", help="thinking token budget")
    forcing_count: int = _key(POLICY_SECTION, 0)
    per_forcing_cap: int = _key(POLICY_SECTION, DEFAULT_PER_FORCING_CAP)
    forcing_text: str = _key(POLICY_SECTION, DEFAULT_FORCING_TEXT)
    workers: int = _key(RUN_SECTION, DEFAULT_WORKERS)

    def __post_init__(self) -> None:
        self.backend()
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        self.policy()

    def _section(self, section: str) -> dict:
        return {name: getattr(self, name) for name in SECTION_KEYS[section]}

    def backend(self) -> WireBackend:
        return WireBackend(**self._section(BACKEND_SECTION))

    def policy(self) -> BudgetPolicy:
        return BudgetPolicy(**self._section(POLICY_SECTION))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


CONFIG_FIELDS: dict[str, Field] = {f.name: f for f in fields(Config)}
# the key names of each file section, in field order
SECTION_KEYS: dict[str, list[str]] = {
    section: [name for name, key in CONFIG_FIELDS.items() if key.metadata["section"] == section]
    for section in dict.fromkeys(key.metadata["section"] for key in CONFIG_FIELDS.values())
}


def flag_for(key: Field) -> str:
    return key.metadata["flag"] or "--" + key.name.replace("_", "-")


def _read_file(path: str) -> dict:
    """Read ``[section]`` headers and ``key = value`` lines (``:`` also
    separates; lines starting with ``#`` or ``;`` are comments). Every
    fault raises ConfigError citing the file and line, a value out of range
    included; a fault between two keys cites the later one."""
    try:
        lines = list(read_lines(path))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except SchemaError as exc:
        raise ConfigError(str(exc)) from exc
    if lines and lines[0][1].startswith("\ufeff"):
        raise ConfigError(f"{path}:1: config starts with a UTF-8 byte order mark")
    section = None
    values = {}
    for lineno, line in lines:
        line = line.strip()
        if not line or line[0] in "#;":
            continue
        where = f"{path}:{lineno}"
        if line[0] == "[" and line[-1] == "]":
            section = line[1:-1].strip()
            if section not in SECTION_KEYS:
                raise ConfigError(f"{where}: unknown config section: {section}")
            continue
        match = _ASSIGNMENT.match(line)
        if match is None or section is None:
            raise ConfigError(f"{where}: expected 'key = value' under a [section] header")
        name, raw = match[1].strip().lower(), match[2].strip()
        key = CONFIG_FIELDS.get(name)
        if key is None or key.metadata["section"] != section:
            raise ConfigError(f"{where}: unknown config key: {name}")
        if name in values:
            raise ConfigError(f"{where}: repeated config key: {name}")
        try:
            values[name] = type(key.default)(raw)
        except ValueError:
            raise ConfigError(f"{where}: config key {name!r}: cannot parse {raw!r}") from None
        try:
            # the file so far: the value's range, or a fault it makes with an earlier key
            Config(**values)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return values


def load_config(path: str | None = None, flags: Mapping[str, object] | None = None) -> Config:
    """Assemble the effective configuration from the file at ``path``,
    ``M1_BASE_URL`` in ``os.environ`` and ``flags``.

    ``flags`` holds only explicitly supplied overrides. Unknown keys are
    rejected by name.
    """
    values: dict = {}
    if path is not None:
        values.update(_read_file(path))
    if BASE_URL_ENV in os.environ:
        values["base_url"] = os.environ[BASE_URL_ENV]
    for key, value in (flags or {}).items():
        if key not in CONFIG_FIELDS:
            raise ConfigError(f"unknown config key: {key}")
        if value is not None:
            values[key] = value
    return Config(**values)
