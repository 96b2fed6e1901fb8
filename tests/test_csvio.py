"""The CSV file layer: what `write_csv` writes, `read_floats` reads back."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mudk._csvio import float_cell, read_floats, write_csv

COLUMNS = ("t", "x", "y")
EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
            1.7976931348623157e308, -1.7976931348623157e308]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "rows.csv"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
                max_size=40))
@example([tuple(EXTREMES[i:i + 3]) for i in range(0, len(EXTREMES), 3)])
def test_written_floats_read_back_bit_for_bit(csv_path, rows):
    """Finite floats, -0.0, subnormals and the largest included, written by
    `float_cell` come back as the same doubles."""
    write_csv(csv_path, "a comment", COLUMNS, ([float_cell(x) for x in row] for row in rows))
    values = read_floats(csv_path, COLUMNS)
    want = np.array(rows, dtype=float).reshape(-1, 3)
    assert values.shape == want.shape and values.dtype == np.float64
    assert np.array_equal(values.view(np.int64), want.view(np.int64))
    assert values.flags.owndata and values.flags.c_contiguous


def test_empty_lines_and_comments_between_rows_are_skipped(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("\n# one\n\nt,x,y\n1,2,3\n\n# two\n4,5,6\n# three\n\n")
    assert read_floats(path, COLUMNS).tolist() == [[1, 2, 3], [4, 5, 6]]


@pytest.mark.parametrize("text", ["", "\n\n", "# a comment\n", "t,x,y\n",
                                  "# a comment\nt,x,y\n\n# another\n"],
                         ids=["empty", "blank", "comment", "header", "header-comments"])
def test_a_file_with_no_rows_reads_as_zero_rows(tmp_path, text):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    values = read_floats(path, COLUMNS)
    assert values.shape == (0, 3) and values.dtype == np.float64


@pytest.mark.parametrize("text, message", [
    ("t,x,y\n1,2\n3,4\n", "rows have 2 cells, need 3"),
    ("t,x,y\n1,2,3\n4,5,6,7\n", "columns changed from 3 to 4"),
    ("t,x,y\n1,2,-0_25\n", "could not convert"),
    ("t,x,y\n1,2,0x1p3\n", "could not convert"),
    ("t,x,y\n1,2,3\n4,nan,6\n", "row 2 holds a cell that is not a finite number"),
    ("t,x,y\n1,2,1e400\n", "row 1 holds a cell that is not a finite number"),
], ids=["narrow-first-row", "wide-row", "digit-group", "hex", "nan", "overflow"])
def test_a_malformed_file_is_a_value_error(tmp_path, text, message):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_floats(path, COLUMNS)
