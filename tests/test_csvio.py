import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gwalk import csvio
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


def oracle_grid_rows(*fields, axes=None):
    """Per-site rows (x, y, f[i, j], ...), y fastest: the writer's reference."""
    n1, n2 = fields[0].shape
    xs, ys = (range(n1), range(n2)) if axes is None else axes
    for x, row in zip(xs, zip(*fields)):
        for y, values in zip(ys, zip(*(r.tolist() for r in row))):
            yield (x, y, *values)


SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                  1e300, -1e300, math.inf, -math.inf, math.nan, 2.0 / 3.0)
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())


@st.composite
def grids(draw):
    """1-3 fields of one 1-9 x 1-9 shape, with index or float axes."""
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    fields = tuple(draw(hnp.arrays(np.float64, shape, elements=FLOATS))
                   for _ in range(draw(st.integers(1, 3))))
    axes = None
    if draw(st.booleans()):
        axes = tuple(draw(hnp.arrays(np.float64, n, elements=FLOATS)) for n in shape)
    return fields, axes


@given(grids())
@example((((np.array([[-0.0, 5e-324, 1e300], [-1e300, math.inf, math.nan]]),),
           (np.array([-0.0, math.nan]), np.array([5e-324, -math.inf, 1e300])))))
def test_grid_form_writes_the_bytes_of_its_per_site_rows(tmp_path_factory, case):
    fields, axes = case
    header = ["x", "y"] + [f"f{i}" for i in range(len(fields))]
    out = tmp_path_factory.mktemp("grid")
    n = fields[0].size
    assert write_csv(out / "grid.csv", header, grid_rows(*fields, axes=axes)) == n
    assert write_csv(out / "rows.csv", header, oracle_grid_rows(*fields, axes=axes)) == n
    assert (out / "grid.csv").read_bytes() == (out / "rows.csv").read_bytes()


def test_failed_grid_write_leaves_no_tmp_and_keeps_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "grid.csv"
    write_csv(path, ["n", "x"], [(0, 0.5)])
    earlier = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(csvio.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_csv(path, ["x", "y", "v"], grid_rows(np.ones((3, 4))))
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == earlier


def test_grid_write_copies_no_whole_grid(tmp_path):
    values = np.random.default_rng(0).standard_normal((512, 512))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "grid.csv", ["x", "y", "v"], grid_rows(values))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * values.nbytes


@pytest.mark.parametrize("header", [["x", "y", "a"], ["x", "y", "a", "b", "c"]])
def test_grid_header_must_match_the_fields(tmp_path, header):
    a = np.zeros((2, 3))
    with pytest.raises(ValueError, match="header"):
        write_csv(tmp_path / "grid.csv", header, grid_rows(a, a))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("second, axes", [
    (np.zeros((3, 2)), None),
    (np.zeros((2, 2)), None),
    (np.zeros((2, 3)), (range(3), range(3))),
    (np.zeros((2, 3)), (range(2), range(4))),
    (np.zeros((2, 3)), (range(2), range(2))),
])
def test_grid_of_mismatched_shapes_raises_and_leaves_no_file(tmp_path, second, axes):
    grid = grid_rows(np.zeros((2, 3)), second, axes=axes)
    with pytest.raises((ValueError, TypeError)):
        write_csv(tmp_path / "grid.csv", ["x", "y", "a", "b"], grid)
    assert list(tmp_path.iterdir()) == []
