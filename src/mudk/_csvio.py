"""The one CSV format mudk writes and reads back.

A `# <header comment>` line, the column row, then one row per record, with
floats written by `repr` so they read back exactly, and LF line endings.
Reading streams the cells into one float array: a wrong column row, a row
of the wrong width, or a cell that is not a finite number is a ValueError.
"""

from __future__ import annotations

import numpy as np


def float_cell(x) -> str:
    """A float as the shortest text that reads back to the same double."""
    return repr(float(x))


def write_csv(path, header_comment, columns, rows) -> None:
    """Write rows of cell strings under the comment line (if any) and columns.

    `rows` may be any iterable, a generator included; it is written as it
    is consumed.
    """
    with open(path, "w", newline="\n") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def read_floats(path, columns) -> np.ndarray:
    """The rows under the column row, which must be `columns`, as a
    (rows, len(columns)) float array that owns its data; blank lines and
    `#` comment lines are skipped, and every cell must be a finite number."""
    with open(path) as fh:
        values = np.fromiter(_cells(fh, columns), dtype=float)
    # in place: the size is unchanged, so nothing is reallocated or copied
    values.resize((values.size // len(columns), len(columns)), refcheck=False)
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise ValueError(f"row {int(np.argmax(bad)) + 1} holds a cell that is "
                         "not a finite number")
    return values


def _cells(lines, columns):
    """The cells of every row under the column row, in order, as floats."""
    want = ",".join(columns)
    header = None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line
            if header.replace(" ", "") != want:
                raise ValueError(f"unexpected header {header!r}, need {want!r}")
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row {line!r} has {len(cells)} cells, "
                             f"need {len(columns)}")
        yield from map(float, cells)
