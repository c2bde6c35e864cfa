"""Declarative key-value run configuration files.

One `dotted.key = value` assignment per line; '#' starts a comment.
Keys mirror the RunConfig field tree (dataset.family, encoder.dim,
training.learning_rate, ...). Values are parsed as bool/int/float when
they look like one, strings otherwise; a field typed str or Path takes
the value's text as written. Comma-separated lists are only legal for
grid axes and ablation dataset lists.

The flat form of a config dataclass tree is derived from its fields:
a field's key is `section.field`, and each value is coerced to the
field's annotated type. A field whose metadata carries FLAT_KEY is
stored under that key instead, or left out when it is None.
"""
from __future__ import annotations

import dataclasses
import functools
import types
import typing
from pathlib import Path, PurePath

from .errors import ConfigError

FLAT_KEY = "flat_key"


def parse_scalar(token: str):
    t = token.strip()
    low = t.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


class ParsedConfig(dict):
    """A flat dict of dotted key -> scalar (or list for grid./ablate.
    keys); its .text keeps each scalar's text as written."""


def parse_config_text(text: str, source: str = "<config>") -> ParsedConfig:
    """The ParsedConfig of a config file's text."""
    out = ParsedConfig()
    out.text = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{line_no}: empty key or value")
        if key in out:
            raise ConfigError(f"{source}:{line_no}: duplicate key {key!r}")
        if key.startswith("grid.") or key == "ablate.datasets":
            out[key] = [parse_scalar(v) for v in value.split(",")]
        else:
            out[key] = parse_scalar(value)
            out.text[key] = value
    return out


def read_config_file(path: Path) -> ParsedConfig:
    """parse_config_text of a file; a missing file is a ConfigError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(text, source=str(path))


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def format_config(flat: dict) -> str:
    """Canonical text form: sorted dotted keys, one per line."""
    return "\n".join(f"{key} = {format_value(flat[key])}" for key in sorted(flat)) + "\n"


@functools.cache
def _flat_fields(cls) -> tuple[tuple, ...]:
    """(field, key, annotated type, is a nested config) of every field of
    cls in the flat form."""
    hints = typing.get_type_hints(cls)
    keyed = [(f, f.metadata.get(FLAT_KEY, f.name)) for f in dataclasses.fields(cls)]
    return tuple(
        (f, key, hints[f.name], dataclasses.is_dataclass(hints[f.name]))
        for f, key in keyed
        if key is not None
    )


def _coerce(value, tp):
    """value as an instance of the annotated type tp; TypeError if it is not one.

    Booleans match only bool; ints take integral numbers; floats take
    any number; a union takes the first of its types that matches.
    """
    if isinstance(tp, types.UnionType):
        for arm in tp.__args__:
            try:
                return _coerce(value, arm)
            except TypeError:
                pass
        raise TypeError
    if isinstance(value, bool) != (tp is bool):
        raise TypeError
    if tp is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if tp is float and isinstance(value, (int, float)):
        return float(value)
    if tp is Path and isinstance(value, str):
        return Path(value)
    if isinstance(value, tp):
        return value
    raise TypeError


def config_to_flat(cfg, prefix: str = "") -> dict:
    """Flat dotted-key mapping of a config dataclass tree; None values
    are left out."""
    flat = {}
    for f, key, _, nested in _flat_fields(type(cfg)):
        value = getattr(cfg, f.name)
        if nested:
            flat.update(config_to_flat(value, f"{prefix}{key}."))
        elif value is not None:
            flat[prefix + key] = str(value) if isinstance(value, PurePath) else value
    return flat


def _from_flat(cls, flat: dict, prefix: str, source: str, text: dict):
    kwargs = {}
    for f, key, tp, nested in _flat_fields(cls):
        key = prefix + key
        if nested:
            kwargs[f.name] = _from_flat(tp, flat, key + ".", source, text)
        elif key in flat:
            value = flat.pop(key)
            if key in text and set(typing.get_args(tp) or [tp]) <= {str, Path, type(None)}:
                value = text[key]  # a text field: no int, float or bool of it
            try:
                kwargs[f.name] = _coerce(value, tp)
            except TypeError:
                raise ConfigError(
                    f"{source}: {key} must be {getattr(tp, '__name__', tp)}, got {value!r}"
                ) from None
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{source}: missing required key {key!r}")
    try:
        return cls(**kwargs)
    except ConfigError as exc:  # a section's own range check
        raise ConfigError(f"{source}: {exc}") from None


def config_from_flat(cls, flat: dict, source: str = "<config>"):
    """Config dataclass tree cls from its flat form; absent keys take the
    field defaults. grid.* and ablate.* keys are left to their commands.
    A field typed str or Path takes the text of a ParsedConfig value."""
    rest = dict(flat)
    cfg = _from_flat(cls, rest, "", source, getattr(flat, "text", {}))
    unknown = [k for k in rest if not k.startswith(("grid.", "ablate."))]
    if unknown:
        raise ConfigError(f"{source}: unknown config keys {sorted(unknown)}")
    return cfg
