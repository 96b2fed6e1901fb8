"""The one CSV format mudk writes and reads back.

A `# <header comment>` line, the column row, then one row per record, with
floats written by `repr` so they read back exactly, and LF line endings.
Reading checks the column row and hands the rows under it to numpy's C
reader (`np.loadtxt`): a wrong column row, a row of the wrong width, or a
cell that is not a finite number in plain decimal notation is a ValueError.
"""

from __future__ import annotations

import warnings

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
    (rows, len(columns)) float array that owns its data; empty lines and
    `#` comments are skipped, and every cell must be a finite number."""
    want = ",".join(columns)
    with open(path) as fh:
        # the column row is the first line that is neither blank nor a comment;
        # a file without one holds no rows
        header = next((row for row in map(str.strip, fh) if row[:1] not in ("", "#")), want)
        if header.replace(" ", "") != want:
            raise ValueError(f"unexpected header {header!r}, need {want!r}")
        with warnings.catch_warnings():
            # numpy warns where there are no rows, which read as (0, k)
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
    if values.size and values.shape[1] != len(columns):
        raise ValueError(f"rows have {values.shape[1]} cells, need {len(columns)}")
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise ValueError(f"row {int(np.argmax(bad)) + 1} holds a cell that is "
                         "not a finite number")
    return values if values.size else np.empty((0, len(columns)))
