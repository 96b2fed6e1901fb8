"""The one CSV format mudk writes and reads back.

A `# <header comment>` line, the column row, then one row per record, with
floats written by `repr` so they read back exactly, and LF line endings.
"""

from __future__ import annotations

from collections.abc import Iterator


def float_cell(x) -> str:
    """A float as the shortest text that reads back to the same double."""
    return repr(float(x))


def write_csv(path, header_comment, columns, rows) -> None:
    """Write rows of cell strings under the comment line (if any) and columns."""
    with open(path, "w", newline="\n") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def read_csv(path, columns) -> Iterator[list[str]]:
    """Yield the rows of cell strings under the column row, which must be
    `columns`; blank lines and `#` comment lines are skipped."""
    want = ",".join(columns)
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line
                if header.replace(" ", "") != want:
                    raise ValueError(f"unexpected header {header!r}, need {want!r}")
                continue
            yield line.split(",")
