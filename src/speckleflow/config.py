"""Plain-text `key = value` configuration files.

One reader, `read_config`, serves the phantom, tracking, flow and inversion
configs.  Blank lines and lines starting with '#' are ignored; every other
line is `key = value`.  The accepted keys and their types come from the
schemas passed in: a dataclass contributes its `int`, `float`, `str` and
`bool` fields, optional (`| None`) or not, except those whose field
metadata sets `"config": False`; a `{key: type}` dict adds keys that are
not fields.  Booleans are written 1/true/yes/on or 0/false/no/off.  An
unknown key, a duplicate key or a value that does not convert (floats must
be finite) raises `FormatError` naming the file and line; a value that
converts but fails its dataclass's check is reported with the file's path
too (`naming_path`).  The other
line-oriented files share this text format: UTF-8, '\n' line ends, and
errors naming `<path>:<line>` (`content_lines`, `read_table`, `write_lines`).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import fields, is_dataclass

from .errors import (DomainError, FormatError, GridTooSmall, ShapeMismatch,
                     SingularSystem, SpecError)

_TYPES = {t.__name__: t for t in (int, float, str, bool)}
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _schema_types(schema) -> dict:
    if not is_dataclass(schema):
        return schema
    # fields carry their annotation as a string under postponed evaluation;
    # an optional field, `float | None`, is read as its type
    names = {f.name: str(getattr(f.type, "__name__", f.type)).removesuffix(" | None")
             for f in fields(schema) if f.metadata.get("config", True)}
    return {name: _TYPES[typ] for name, typ in names.items() if typ in _TYPES}


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


def write_lines(path, lines) -> None:
    """Write `lines` to `path` as UTF-8, each ended by '\n'."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def content_lines(path):
    """`(where, stripped line)` for each line at `path` that is neither blank
    nor a `#` comment, where `where` is `<path>:<line>`."""
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            yield f"{path}:{lineno}", text


def read_table(path, header: str, types) -> list:
    """Rows of the CSV at `path` headed by `header`, blank lines skipped and
    field j converted by `types[j]`; `FormatError` names any bad line."""
    lines = read_text(path).splitlines()
    if not lines or lines[0] != header:
        raise FormatError(f"{path}: expected header '{header}'")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(types):
            raise FormatError(f"{path}:{lineno}: expected {len(types)} fields")
        try:
            rows.append([typ(raw) for typ, raw in zip(types, parts)])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    return rows


def read_config(path, what: str, *schemas) -> dict:
    """Typed values of the keys present in the config at `path`.

    `what` names the kind of config in error messages.
    """
    types = {}
    for schema in schemas:
        types.update(_schema_types(schema))
    out = {}
    for where, line in content_lines(path):
        key, eq, raw = (s.strip() for s in line.partition("="))
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
    """Prefix `path` to a `DomainError`, `SpecError`, `ShapeMismatch`,
    `GridTooSmall` or `SingularSystem` raised inside, such as a config value
    failing its dataclass's check."""
    try:
        yield
    except (DomainError, SpecError, ShapeMismatch, GridTooSmall, SingularSystem) as exc:
        raise type(exc)(f"{path}: {exc}") from None
