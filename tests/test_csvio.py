import numpy as np
import pytest

from gwalk.csvio import grid_rows, read_csv, write_csv


def test_mixed_row_bytes(tmp_path):
    path = tmp_path / "mixed.csv"
    row = (7, np.int64(-42), 0.1, np.float64(2.5), -0.0, 2.0 / 3.0)
    assert write_csv(path, list("abcdef"), [row]) == 1
    assert path.read_bytes() == (
        b"a,b,c,d,e,f\n"
        b"7,-42,0.10000000000000001,2.5,-0,0.66666666666666663\n")


def test_mid_write_failure_leaves_no_file(tmp_path):
    path = tmp_path / "table.csv"

    def rows():
        yield (1, 1.5)
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_csv(path, ["n", "x"], rows())
    assert list(tmp_path.iterdir()) == []

    write_csv(path, ["n", "x"], [(0, 0.5)])
    with pytest.raises(OSError, match="disk full"):
        write_csv(path, ["n", "x"], rows())
    assert list(tmp_path.iterdir()) == [path]
    assert read_csv(path) == (["n", "x"], [[0.0, 0.5]])


def test_grid_rows_order():
    a = np.arange(6.0).reshape(2, 3)
    assert list(grid_rows(a, -a)) == [(0, 0, 0.0, -0.0), (0, 1, 1.0, -1.0),
                                      (0, 2, 2.0, -2.0), (1, 0, 3.0, -3.0),
                                      (1, 1, 4.0, -4.0), (1, 2, 5.0, -5.0)]
