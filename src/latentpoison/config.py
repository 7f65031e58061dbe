"""Plain-text configuration files: one ``key = value`` per line.

Blank lines and ``#`` comments are ignored. Values are coerced to the
type of the matching dataclass field; unknown, fixed, malformed or
rule-breaking values are errors naming the file and key, or the flag.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path


class ConfigError(ValueError):
    """A configuration file or key set is invalid."""


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{origin}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def load_config_file(path) -> dict[str, str]:
    path = Path(path)
    return parse_config_text(path.read_text(encoding="utf-8"), origin=str(path))


def _coerce(value: str, template, origin: str) -> object:
    if isinstance(template, bool):
        lowered = value.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigError(f"{origin}: expected a boolean, got {value!r}")
    try:
        if isinstance(template, int):
            return int(value)
        if isinstance(template, float):
            return float(value)
    except ValueError as exc:
        raise ConfigError(f"{origin}: {exc}") from exc
    return value


def flag_name(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build(template, values: dict, origins: dict):
    """``template`` with ``values``; a rule error names the value, set in order, that brings it.

    So a rule that reads two fields names the one that breaks it, not one a default breaks.
    """
    try:
        return dataclasses.replace(template, **values)
    except ValueError as exc:
        error = exc
    applied = {}
    for name, value in values.items():  # the last pass sets them all, so one raises
        applied[name] = value
        try:
            dataclasses.replace(template, **applied)
        except ValueError as exc:
            if str(exc) == str(error):
                raise ConfigError(f"{origins[name]}: {error}") from error


def merge_settings(parts, path, file_values: dict[str, str], flags, fixed=(), flag_names=None) -> list:
    """``(dataclass, origins)`` per ``(template, prefix)`` part: defaults < config file < flags.

    A setting is named ``prefix + field``, both as a key of ``file_values``
    (read from ``path``) and as an attribute of ``flags`` (an argparse
    namespace, where None means "not given"). Names in ``fixed`` belong to
    the command: a file may not set them and their flags are not read.
    Every file key is checked and coerced before any flag is overlaid, and
    each dataclass is built once, from its final values. ``origins`` names each field
    a file key or flag set, file keys first (a default is absent): ``<file>: key
    '<key>'``, or ``flag_names[key]``, else :func:`flag_name`. A rule error names the same.
    """
    known = {prefix + f.name: (i, f.name) for i, (template, prefix) in enumerate(parts)
             for f in dataclasses.fields(template) if prefix + f.name not in fixed}
    updates = [{} for _ in parts]
    origins = [{} for _ in parts]
    for key, value in file_values.items():
        origin = f"{path}: key {key!r}"
        if key in fixed:
            raise ConfigError(f"{origin} is fixed by this command")
        if key not in known:
            raise ConfigError(f"{path}: unknown configuration key {key!r}; "
                              f"known keys: {', '.join(sorted(known))}")
        i, name = known[key]
        updates[i][name] = _coerce(value, getattr(parts[i][0], name), origin)
        origins[i][name] = origin
    for key, value in vars(flags).items():  # parser order: rejections list flags in it
        if key in known and value is not None:
            i, name = known[key]
            updates[i][name] = value
            origins[i][name] = (flag_names or {}).get(key, flag_name(key))
    return [(_build(template, values, named), named)
            for (template, _), values, named in zip(parts, updates, origins)]
