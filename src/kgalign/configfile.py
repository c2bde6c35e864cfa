"""Declarative key-value run configuration files.

One `dotted.key = value` assignment per line; '#' starts a comment.
Keys mirror the RunConfig field tree (dataset.family, encoder.dim,
training.learning_rate, ...). A value is kept as written and typed by
the field it sets: true/false for a bool, an integral number for an
int, any number for a float, the text itself for a str or Path. Only
the command keys take comma-separated lists: grid.<key> (the values
of one grid axis, each typed as <key> types it) and ablate.datasets.

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


class _ConfigText(dict):
    """parse_config_text's flat dict; .lines maps each key to its line."""


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """A config file's text as a flat dict of dotted key -> value text;
    a grid.* or ablate.datasets value is the list of its comma-separated
    texts. Its .lines holds each key's line, which config_from_flat's
    errors name."""
    out = _ConfigText()
    out.lines = {}
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
        out.lines[key] = line_no
        if key.startswith("grid.") or key == "ablate.datasets":
            out[key] = [v.strip() for v in value.split(",")]
        else:
            out[key] = value
    return out


def read_config_file(path: Path) -> dict:
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
    """Canonical text form: sorted dotted keys, one per line. A value
    that would not read back as written, one holding '#' or a line break
    or with surrounding whitespace, is a ConfigError naming its key."""
    texts = {key: format_value(flat[key]) for key in sorted(flat)}
    for key, text in texts.items():
        if text != text.strip() or any(c in text for c in "#\r\n"):
            raise ConfigError(f"{key} = {text!r}: a config value cannot hold '#' or a line "
                              "break, or begin or end with whitespace")
    return "\n".join(f"{key} = {text}" for key, text in texts.items()) + "\n"


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


# cached, since a grid's configs repeat their values; typed, since 1, 1.0
# and True are equal keys that coerce apart (a float field rejects True)
@functools.lru_cache(maxsize=4096, typed=True)
def _coerce(value, tp):
    """value as an instance of the annotated type tp; TypeError if it is not one.

    Text (a str) is read as tp: true or false in any case for a bool, a
    number for an int or a float, the text as written for a str or Path.
    Booleans match only bool; ints take integral numbers; floats take any
    number. A union takes the first of its types that matches, trying str
    and Path last, so text that is a number is one.
    """
    if isinstance(tp, types.UnionType):
        for arm in sorted(tp.__args__, key=lambda arm: arm in (str, Path)):
            try:
                return _coerce(value, arm)
            except TypeError:
                pass
        raise TypeError
    if isinstance(value, str) and tp is bool and value.lower() in ("true", "false"):
        return value.lower() == "true"
    if isinstance(value, str) and tp in (int, float):
        for number in (int, float):
            try:
                return _coerce(number(value), tp)
            except ValueError:
                pass
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


def _from_flat(cls, flat: dict, prefix: str, where):
    """cls from the keys of flat under prefix, popping each it reads;
    where(key) is the place, file and line, that an error on key names."""
    kwargs = {}
    keys = {}
    for f, key, tp, nested in _flat_fields(cls):
        key = keys[f.name] = prefix + key
        if nested:
            kwargs[f.name] = _from_flat(tp, flat, key + ".", where)
        elif key in flat:
            value = flat.pop(key)
            try:
                kwargs[f.name] = _coerce(value, tp)
            except TypeError:
                raise ConfigError(
                    f"{where(key)}: {key} must be {getattr(tp, '__name__', tp)}, got {value!r}"
                ) from None
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{where(None)}: missing required key {key!r}")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        # a section's own range check, whose message begins with the field
        # it rejects: that word becomes the dotted key
        field, _, rest = str(exc).partition(" ")
        key = keys.get(field)
        message = f"{key} {rest}" if key else exc
        raise ConfigError(f"{where(key)}: {message}") from None


def config_from_flat(cls, flat: dict, source: str = "<config>"):
    """Config dataclass tree cls from its flat form; absent keys take the
    field defaults. The command keys, grid.<key> (a list of values for
    key) and ablate.datasets, are left to their commands, but each grid
    value must give a valid config as the value of key. An error names
    source, and the line of its key (for a grid value, of its grid.<key>)
    when flat comes from parse_config_text."""
    lines = getattr(flat, "lines", {})

    def located(lines):  # key -> the file and line that set it
        return lambda key: f"{source}:{lines[key]}" if lines.get(key) else source

    rest = dict(flat)
    cfg = _from_flat(cls, rest, "", located(lines))
    rest.pop("ablate.datasets", None)
    for axis in [key for key in rest if key.startswith("grid.")]:
        key = axis[len("grid."):]
        for value in rest[axis]:
            probe = {**flat, key: value}
            _from_flat(cls, probe, "", located({**lines, key: lines.get(axis)}))
            if key in probe:  # the axis names no field: an unknown key
                break
        else:
            del rest[axis]
    if rest:
        raise ConfigError(f"{source}: unknown config keys {sorted(rest)}")
    return cfg
