"""Run configuration: YAML parsing with strict key checking.

Unknown keys are rejected with a nearest-key suggestion; all validation
problems are collected and reported in one error rather than one at a time.
"""

from __future__ import annotations

import difflib
from pathlib import Path

import yaml

__all__ = ["ConfigError", "BudgetError", "parse_config", "whole", "number", "numbers"]

SUBCOMMANDS = ("spectrum", "field", "count", "randmat", "chaos", "clt", "crosscheck")

_SCHEMA = {
    "": {"subcommand", "seed", "out", "density", "ensemble", "experiment", "budget"},
    "density": {"family", "params", "table"},
    "ensemble": {"m", "u", "v", "samples"},
    "experiment": {
        "m",
        "n_list",
        "realizations",
        "points_per_unit",
        "eps_list",
        "e_absdet_s1",
    },
    "budget": {"samples", "grid_points", "wall_clock"},
}

# blocks each subcommand actually reads
_NEEDS = {
    "spectrum": ("density",),
    "field": ("density", "experiment"),
    "count": ("density", "experiment"),
    "randmat": ("ensemble",),
    "chaos": ("ensemble", "density"),
    "clt": ("density", "experiment"),
    "crosscheck": ("density", "experiment"),
}


class ConfigError(ValueError):
    """Invalid or unparseable run configuration (CLI exit code 2)."""


class BudgetError(RuntimeError):
    """A declared sample/grid/wall-clock budget would be exceeded (exit 3)."""


def _is_number(value) -> bool:
    # YAML's true is Python's 1, which int() and float() read without notice;
    # .nan passes every `x <= 0` check and is no number either
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value == value


def whole(block: dict, key: str, default=None) -> int:
    """The integer at ``key`` of a config block, ``default`` when absent: 8
    and 8.0 read 8.  A fraction, which int() would truncate without notice,
    a boolean or a negative is a ConfigError."""
    value = block.get(key, default)
    if not _is_number(value) or value < 0 or value % 1:
        raise ConfigError(f"{key!r} must be a nonnegative whole number, got {value!r}")
    return int(value)


def number(block: dict, key: str, default=None) -> float:
    """The real number at ``key`` of a config block, ``default`` when absent.
    A boolean, a string, a null or NaN is a ConfigError."""
    value = block.get(key, default)
    if not _is_number(value):
        raise ConfigError(f"{key!r} must be a number, got {value!r}")
    return float(value)


def numbers(block: dict, key: str, default=None) -> tuple[float, ...]:
    """The list of real numbers at ``key`` of a config block, ``default``
    when absent, as a tuple; refused as ``number`` refuses."""
    values = block.get(key, default)
    if not isinstance(values, list) or not all(map(_is_number, values)):
        raise ConfigError(f"{key!r} must be a list of numbers, got {values!r}")
    return tuple(float(x) for x in values)


def _check_keys(block_name: str, block: dict, problems: list):
    allowed = _SCHEMA[block_name]
    for key in block:
        if key not in allowed:
            hint = difflib.get_close_matches(str(key), allowed, n=1)
            msg = f"unknown key {key!r}" + (f" in block {block_name!r}" if block_name else "")
            if hint:
                msg += f" (did you mean {hint[0]!r}?)"
            problems.append(msg)


def parse_config(path, overrides: dict | None = None) -> dict:
    """Load and validate a YAML run config; overrides that are not None win
    over file values.

    Returns the validated mapping: "subcommand", "seed" and "out" (when
    given) at the top level, and a dict, empty when absent, for each of
    "density", "ensemble", "experiment" and "budget".  Raises ConfigError
    listing every violation found, not just the first: one on the path's
    line, several on a line each.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    if overrides:
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}

    problems: list[str] = []
    _check_keys("", raw, problems)
    for name in ("density", "ensemble", "experiment", "budget"):
        block = raw.get(name, {})
        if block is None:
            block = {}
        if not isinstance(block, dict):
            problems.append(f"block {name!r} must be a mapping")
            block = {}
        else:
            _check_keys(name, block, problems)
        raw[name] = block

    sub = raw.get("subcommand")
    if sub not in SUBCOMMANDS:
        problems.append(f"subcommand must be one of {SUBCOMMANDS}, got {sub!r}")
    elif missing := [b for b in _NEEDS[sub] if not raw.get(b)]:
        problems.append(f"subcommand {sub!r} requires block(s): {', '.join(missing)}")
    if "seed" not in raw or raw["seed"] is None:
        problems.append("missing required field 'seed' (no wall-clock default)")
    else:
        try:
            raw["seed"] = whole(raw, "seed")
        except ConfigError as exc:
            problems.append(str(exc))

    if len(problems) == 1:
        raise ConfigError(f"{path}: {problems[0]}")
    if problems:
        raise ConfigError(f"{path}:\n  " + "\n  ".join(problems))
    return raw
