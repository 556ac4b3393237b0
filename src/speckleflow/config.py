"""Plain-text `key = value` configuration files.

One reader, `read_config`, serves the phantom, tracking, flow and inversion
configs.  Blank lines and lines starting with '#' are ignored; every other
line is `key = value`.  The accepted keys and their types come from the
schemas passed in: a dataclass contributes its `int`, `float`, `str` and
`bool` fields (except those whose field metadata sets `"config": False`),
and a `{key: type}` dict adds keys that are not fields.  Booleans are
written 1/true/yes/on or 0/false/no/off.  An unknown key, a duplicate key or
a value that does not convert (floats must be finite) raises `FormatError`
naming the file and line; a value that converts but fails its dataclass's
check is reported with the file's path too (`naming_path`).  `read_text`
and `finite_float` are shared with the package's other text readers.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import fields, is_dataclass

from .errors import DomainError, FormatError, SpecError

_TYPES = {t.__name__: t for t in (int, float, str, bool)}
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _schema_types(schema) -> dict:
    if not is_dataclass(schema):
        return schema
    # fields carry their annotation as a string under postponed evaluation
    types = ((f.name, _TYPES.get(getattr(f.type, "__name__", f.type)))
             for f in fields(schema) if f.metadata.get("config", True))
    return {name: typ for name, typ in types if typ is not None}


def finite_float(raw: str) -> float:
    """`float(raw)`, raising `ValueError` for nan and infinities too."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {raw!r}")
    return value


_CONVERT = {bool: lambda raw: _BOOLS[raw.lower()], float: finite_float}


def read_text(path) -> str:
    """Contents of the UTF-8 text file at `path`; `FormatError` otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not a UTF-8 text file") from None


def read_config(path, what: str, *schemas) -> dict:
    """Typed values of the keys present in the config at `path`.

    `what` names the kind of config in error messages.
    """
    types = {}
    for schema in schemas:
        types.update(_schema_types(schema))
    lines = read_text(path).split("\n")
    out = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, raw = (s.strip() for s in stripped.partition("="))
        where = f"{path}:{lineno}"
        if not eq or not key:
            raise FormatError(f"{where}: expected 'key = value'")
        if key not in types:
            raise FormatError(f"{where}: unknown {what} key '{key}'")
        if key in out:
            raise FormatError(f"{where}: duplicate key '{key}'")
        typ = types[key]
        try:
            out[key] = _CONVERT.get(typ, typ)(raw)
        except (KeyError, ValueError):
            kind = "finite float" if typ is float else typ.__name__
            raise FormatError(f"{where}: '{key}' must be {kind}, got '{raw}'") from None
    return out


@contextmanager
def naming_path(path):
    """Prefix `path` to a `DomainError` or `SpecError` raised inside, such as
    a config value failing its dataclass's check."""
    try:
        yield
    except (DomainError, SpecError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
