"""The three plain-text layouts behind every snakesim file.

Headed CSV: the exact header row, then rows of as many fields.  One number
per line, or `key = value` lines with each key given at most once; in these
two, text after `#` is a comment.  Blank lines are skipped.
Every fault raises `FileFormatError` naming the file, and its line if any.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import FileFormatError, InvalidParameter


def read_csv(path, header, parse_row) -> tuple[list[str], list]:
    """The stripped header cells and the rows, each parsed by `parse_row(cells)`, of a headed CSV file.

    `header` lists the header cells or, where the file sets the width (marker
    recordings, matrices), maps the file's header cells to that list.
    """
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            cells = [cell.strip() for cell in next(reader, [])]
            expected = list(header(cells) if callable(header) else header)
            if cells != expected:
                raise FileFormatError(f"{path}: expected header {','.join(expected)!r}, got {','.join(cells)!r}")
            rows = []
            for row in reader:
                if len(row) < 2 and not "".join(row).strip():
                    continue
                if len(row) != len(cells):
                    raise FileFormatError(f"{path}:{reader.line_num}: {len(row)} fields, expected {len(cells)}")
                try:
                    rows.append(parse_row(row))
                except ValueError as exc:
                    raise FileFormatError(f"{path}:{reader.line_num}: bad row {','.join(row)!r}: {exc}") from exc
    except (csv.Error, UnicodeDecodeError) as exc:  # an oversized field, bytes that are not UTF-8
        raise FileFormatError(f"{path}: {exc}") from exc
    return cells, rows


def write_csv(path, header, rows, end):
    """Write the `header` cells, then `rows` of str, int or float cells, each line ended by `end`.

    Floats are written as their repr, which reads back to the same value.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator=end)
        writer.writerow(header)
        writer.writerows(rows)


def read_numbers(path) -> np.ndarray:
    """The numbers of a one-number-per-line file; there must be at least one."""
    values = []
    for line_no, text in _lines(path):
        try:
            values.append(float(text))
        except ValueError as exc:
            raise FileFormatError(f"{path}:{line_no}: not a number: {text!r}") from exc
    if not values:
        raise FileFormatError(f"{path}: no values found")
    return np.array(values)


def write_numbers(path, values):
    """One float per line, as its repr, each line ended by `\\n`."""
    with open(path, "w", newline="") as handle:
        handle.writelines(f"{v!r}\n" for v in np.asarray(values, dtype=float).ravel().tolist())


def read_key_values(path, types) -> dict:
    """The `key = value` lines of a file as a dict.

    `types` maps every allowed key to float, int or str.  An int may also be
    written as an integral float (`50.0`), never as a fractional one.
    """
    values = {}
    for line_no, text in _lines(path):
        key, equals, raw = (part.strip() for part in text.partition("="))
        if not equals:
            raise FileFormatError(f"{path}:{line_no}: expected 'key = value', got {text!r}")
        if key not in types:
            raise FileFormatError(f"{path}:{line_no}: unknown key {key!r}")
        if key in values:
            raise FileFormatError(f"{path}:{line_no}: second value for key {key!r}")
        try:
            values[key] = _integer(raw) if types[key] is int else types[key](raw)
        except ValueError as exc:
            raise FileFormatError(f"{path}:{line_no}: bad value for {key}: {raw!r}") from exc
    return values


def _lines(path) -> list[tuple[int, str]]:
    """The line numbers and texts of the lines that are not blank once comments are cut."""
    try:
        with open(path) as handle:
            lines = [(line_no, line.split("#", 1)[0].strip()) for line_no, line in enumerate(handle, start=1)]
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return [(line_no, text) for line_no, text in lines if text]


def _integer(text) -> int:
    value = float(text)
    if not value.is_integer():  # false for nan and inf as well
        raise InvalidParameter(f"not an integer: {text!r}")
    return int(text) if text.isdigit() else int(value)  # int(text) stays exact beyond 2**53
