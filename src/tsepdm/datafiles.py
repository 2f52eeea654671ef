"""Delimiter-separated data files, config parsing, and run manifests.

All output files use a comma delimiter with a single header row. Floats
are written with repr (shortest round-trip form), so identical inputs
produce byte-identical files. `format_value` defines a cell's text (a
complex value, Python or numpy, reads like ``str(complex(v))``, e.g.
``(1+2j)``); the table writer formats integer, float and text ndarray
columns a chunk at a time with ``str``/``repr``, which give the same text.
"""

from __future__ import annotations

import dataclasses
import errno
import os
from pathlib import Path

import numpy as np

from .plant import PlantParams

CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(PlantParams))


class ConfigError(ValueError):
    """Malformed or unreadable configuration file."""


def format_value(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):  # bool too: True writes "1"
        return str(int(v))
    if isinstance(v, (complex, np.complexfloating)):
        return str(complex(v))
    try:
        return repr(float(v))
    except (TypeError, ValueError):
        return str(v)


# Rows formatted and written per chunk: large enough to amortise the per-chunk
# calls, small enough that a long trace never holds all its cell strings.
CHUNK_ROWS = 1024


def _cell_formatter(column):
    """Formatter for slices of a column, chosen once per column: one
    ``tolist`` call per slice for integer, float and text ndarrays,
    `format_value` per element for everything else (bool, str lists,
    complex, lists, objects)."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind in "iuU":
            return lambda part: map(str, part.tolist())
        if column.dtype.kind == "f" and column.dtype.itemsize <= 8:
            return lambda part: map(repr, part.tolist())
    return lambda part: map(format_value, part)


def write_rows(path, header: list[str], columns) -> None:
    """Write a table given as columns, one per header field.

    Each column is an ndarray or a sequence of cells. Row tables pass
    ``zip(*rows, strict=True)``; no columns at all writes the header only.
    Raises ValueError, before anything is written, for a ragged table.
    """
    columns = [c if isinstance(c, np.ndarray) else list(c) for c in columns]
    n_rows = len(columns[0]) if columns else 0
    if columns and len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for {len(header)} header fields")
    if any(len(c) != n_rows for c in columns):
        raise ValueError(f"ragged table: column lengths {[len(c) for c in columns]}")
    formatters = [_cell_formatter(c) for c in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, CHUNK_ROWS):
            cells = [fmt(c[lo:lo + CHUNK_ROWS]) for fmt, c in zip(formatters, columns)]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def check_output_paths(*paths) -> None:
    """Raise `open`'s error for a path (None: no path) in a missing directory
    or naming a directory, and ValueError for two naming one file, so that a
    command checks all its outputs before it writes the first."""
    given = [path for path in paths if path is not None]
    resolved = [Path(path).resolve() for path in given]
    for i, path in enumerate(given):
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
        if Path(path).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if resolved[i] in resolved[:i]:
            first = given[resolved.index(resolved[i])]
            raise ValueError(f"output paths {first!r} and {path!r} name one file")


def write_manifest(out_path, resolved: dict) -> Path:
    """Write ``<out>.manifest`` with every resolved parameter, sorted."""
    path = Path(str(out_path) + ".manifest")
    lines = [f"{key} = {format_value(resolved[key])}" for key in sorted(resolved)]
    path.write_text("\n".join(lines) + "\n")
    return path


def parse_config_text(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'symbol = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown symbol {key!r} "
                              f"(expected one of {', '.join(CONFIG_KEYS)})")
        if key in first_line:
            raise ConfigError(f"line {lineno}: duplicate symbol {key!r} "
                              f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        try:
            values[key] = float(val.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val.strip()!r}") from exc
    return values


def params_from_config(path: str | None = None, **defaults) -> PlantParams:
    """Build plant parameters from an optional key-value config file.

    The file sets the symbols it names. The keywords are defaults beneath
    the file (e.g. ``Vg=15.0`` for the dynamic test's rails), and the other
    symbols keep their `PlantParams` defaults, the measured prototype constants.
    """
    values = {}
    if path is not None:
        try:
            values = parse_config_text(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = {**defaults, **values}
    try:
        return PlantParams(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc
