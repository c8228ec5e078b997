import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gwalk import csvio
from gwalk.cli import parse_config, run
from gwalk.csvio import grid_rows, sha256_file, write_csv
from gwalk.spectral import SpectrumGrid, rho

from oracles import read_csv


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
    """Per-site rows (x, y, f[i, j], ...), y fastest, of the fields tiled
    over the axes: the writer's reference."""
    xs, ys = map(range, fields[0].shape) if axes is None else axes
    fields = [np.tile(f, (len(xs) // f.shape[0], len(ys) // f.shape[1])) for f in fields]
    for x, row in zip(xs, zip(*fields)):
        for y, values in zip(ys, zip(*(r.tolist() for r in row))):
            yield (x, y, *values)


SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                  1e300, -1e300, math.inf, -math.inf, math.nan, 2.0 / 3.0)
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())


@st.composite
def grids(draw, elements=FLOATS):
    """1-3 fields of one 1-9 x 1-9 shape, with index or float axes."""
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    fields = tuple(draw(hnp.arrays(np.float64, shape, elements=elements))
                   for _ in range(draw(st.integers(1, 3))))
    axes = None
    if draw(st.booleans()):
        axes = tuple(draw(hnp.arrays(np.float64, n, elements=elements)) for n in shape)
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
    # the cell on doubled axes takes the spill file: a copy of the tiled
    # grid would be the whole grid
    values = np.random.default_rng(0).standard_normal((512, 512))
    axes = (range(512), range(512))
    for grid in (grid_rows(values), grid_rows(values[:256, :256], axes=axes)):
        tracemalloc.start()
        try:
            assert write_csv(tmp_path / "grid.csv", ["x", "y", "v"], grid) == values.size
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
    (np.zeros((2, 3)), (range(6), range(3))),
    (np.zeros((2, 3)), (range(2), range(9))),
    (np.zeros((2, 3)), (range(2), range(5))),
])
def test_grid_of_mismatched_shapes_raises_and_leaves_no_file(tmp_path, second, axes):
    grid = grid_rows(np.zeros((2, 3)), second, axes=axes)
    with pytest.raises(ValueError, match="does not fit"):
        write_csv(tmp_path / "grid.csv", ["x", "y", "a", "b"], grid)
    assert list(tmp_path.iterdir()) == []


def test_complex_grid_field_raises_and_leaves_no_file(tmp_path):
    with pytest.raises(TypeError, match="complex"):
        write_csv(tmp_path / "grid.csv", ["x", "y", "v"], grid_rows(np.ones((2, 3), complex)))
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# the vectorised %.17g kernel
# ---------------------------------------------------------------------------

def kernel_bytes(values, sep=b"\n"):
    values = np.ascontiguousarray(values, dtype=np.float64)
    out = np.zeros((values.size, csvio._WIDTH), np.uint8)
    csvio._format17(values, sep, out)
    return out.tobytes().translate(None, b"\0")


def percent_bytes(values, sep=b"\n"):
    return b"".join(b"%.17g" % x + sep for x in np.asarray(values, np.float64).tolist())


@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_kernel_gives_the_bytes_of_percent_17g(values):
    assert kernel_bytes(values) == percent_bytes(values)


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_kernel_gives_the_bytes_of_percent_17g_on_bit_patterns(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert kernel_bytes(values, b",") == percent_bytes(values, b",")


def _border_values():
    powers = np.array([float(f"1e{e}") for e in range(-45, 21)])
    tiny = np.finfo(np.float64).tiny
    borders = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
               [0.0, 5e-324, np.nextafter(tiny, 0.0), tiny, np.nextafter(tiny, 1.0),
                1e-39, 1e-4, 1e16, 1e17, 0.5, 1.5, 2.5, 100.0, 2.0 ** 53, 2.0 ** 53 + 2]]
    values = np.concatenate([np.asarray(b, np.float64) for b in borders])
    return np.concatenate([values, -values])


def test_kernel_at_powers_of_ten_zero_subnormals_and_form_borders():
    values = _border_values()
    got = kernel_bytes(values).split(b"\n")[:-1]
    want = [b"%.17g" % x for x in values.tolist()]
    assert [(x, g) for x, g, w in zip(values.tolist(), got, want) if g != w] == []


#: magnitudes 1e-40..1e20 of either sign
SPREAD = st.builds(lambda m, e, s: s * m * 10.0 ** e, st.floats(1.0, 10.0),
                   st.integers(-40, 20), st.sampled_from([1.0, -1.0]))


@given(grids(SPREAD))
def test_grid_writes_the_bytes_of_its_rows_across_magnitudes(tmp_path_factory, case):
    fields, axes = case
    header = ["x", "y"] + [f"f{i}" for i in range(len(fields))]
    out = tmp_path_factory.mktemp("grid")
    write_csv(out / "grid.csv", header, grid_rows(*fields, axes=axes))
    write_csv(out / "rows.csv", header, oracle_grid_rows(*fields, axes=axes))
    assert (out / "grid.csv").read_bytes() == (out / "rows.csv").read_bytes()


@st.composite
def half_rows(draw, n1, half, odd):
    """An (n1, 2 half) field whose rows repeat their first half exactly or
    with one site one ulp away; with ``odd`` one more column follows."""
    first = draw(hnp.arrays(np.float64, (n1, half), elements=FLOATS))
    second = first.copy()
    if draw(st.booleans()):
        site = draw(st.integers(0, n1 - 1)), draw(st.integers(0, half - 1))
        with np.errstate(over="ignore"):            # the largest float steps to inf
            second[site] = np.nextafter(second[site], draw(st.sampled_from([-np.inf, np.inf])))
    return np.concatenate([first, second] + [first[:, :1]] * odd, axis=1)


def write_with_block(path, fields, block, axes=None):
    """``write_csv`` of a grid, formatting ``block`` values per kernel call:
    a small block puts many blocks in one grid."""
    header = ["x", "y"] + [f"f{i}" for i in range(len(fields))]
    with mock.patch.object(csvio, "_BLOCK", block):
        write_csv(path, header, grid_rows(*fields, axes=axes))
    write_csv(path.with_suffix(".rows"), header, oracle_grid_rows(*fields, axes=axes))
    return path.read_bytes(), path.with_suffix(".rows").read_bytes()


@given(st.data(), st.integers(1, 12), st.integers(1, 6), st.booleans(), st.integers(1, 16))
def test_grid_with_repeated_half_rows_writes_the_bytes_of_percent(
        tmp_path_factory, data, n1, half, odd, block):
    fields = [data.draw(half_rows(n1, half, odd)) for _ in range(data.draw(st.integers(1, 2)))]
    grid, rows = write_with_block(tmp_path_factory.mktemp("halves") / "grid.csv", fields, block)
    assert grid == rows


@st.composite
def periodic_fields(draw):
    """1-3 cells of one shape, and index axes each as long as the cells or
    twice as long: a doubled axis tiles the cells along it."""
    cell = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    fields = [draw(hnp.arrays(np.float64, cell, elements=FLOATS))
              for _ in range(draw(st.integers(1, 3)))]
    return fields, tuple(range(n * draw(st.integers(1, 2))) for n in cell)


@given(periodic_fields(), st.integers(1, 16))
def test_grid_with_repeated_rows_and_columns_writes_the_bytes_of_percent(
        tmp_path_factory, case, block):
    fields, axes = case
    grid, rows = write_with_block(tmp_path_factory.mktemp("periodic") / "grid.csv",
                                  fields, block, axes)
    assert grid == rows


def counting_format17(monkeypatch):
    """Patch ``_format17`` to record the number of values of each call."""
    counts, format17 = [], csvio._format17

    def counting(values, sep, out):
        counts.append(values.size)
        format17(values, sep, out)

    monkeypatch.setattr(csvio, "_format17", counting)
    return counts


def spectrum_bytes(path, values, grid):
    """The bytes ``write_csv`` gives for ``values`` on ``grid``'s axes, and
    those of the oracle's per-site rows."""
    header, axes = ["qX", "qY", "value"], (grid.qx, grid.qy)
    assert write_csv(path, header, grid_rows(values, axes=axes)) == grid.qx.size * grid.qy.size
    write_csv(path.with_suffix(".rows"), header, oracle_grid_rows(values, axes=axes))
    return path.read_bytes(), path.with_suffix(".rows").read_bytes()


@pytest.mark.parametrize("resolution, formatted", [(64, 32 * 32), (63, 63 * 63)])
def test_periodic_spectrum_formats_each_distinct_value_once(
        tmp_path, monkeypatch, resolution, formatted):
    grid = SpectrumGrid.sample(rho, resolution)
    counts = counting_format17(monkeypatch)
    assert grid.to_csv(tmp_path / "rho.csv") == resolution ** 2
    assert sum(counts) == formatted
    written, oracle = spectrum_bytes(tmp_path / "grid.csv", grid.values, grid)
    assert written == (tmp_path / "rho.csv").read_bytes() == oracle


def test_periodic_spectrum_with_one_site_moved_writes_the_bytes_of_percent(tmp_path):
    # the moved cell site shows in each of its four translates
    grid = SpectrumGrid.sample(rho, 64)
    values = grid.values.copy()
    values[20, 21] = np.nextafter(values[20, 21], np.inf)
    written, oracle = spectrum_bytes(tmp_path / "grid.csv", values, grid)
    assert written == oracle


def test_failed_periodic_grid_write_leaves_only_the_earlier_file(tmp_path, monkeypatch):
    # the third kernel call comes after rows of the second half were spilled
    path = tmp_path / "grid.csv"
    write_csv(path, ["n", "x"], [(0, 0.5)])
    earlier = path.read_bytes()
    calls, format17 = [], csvio._format17

    def failing(values, sep, out):
        calls.append(values.size)
        if len(calls) == 3:
            raise OSError("disk full")
        format17(values, sep, out)

    monkeypatch.setattr(csvio, "_format17", failing)
    cell = np.random.default_rng(2).standard_normal((128, 128))
    with pytest.raises(OSError, match="disk full"):
        write_csv(path, ["x", "y", "v"], grid_rows(cell, axes=(range(256), range(256))))
    assert len(calls) == 3
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == earlier


@pytest.mark.parametrize("axes, opens", [(None, 0), ((range(64), range(128)), 0),
                                         ((range(128), range(64)), 1)])
def test_grid_write_opens_a_spill_file_only_for_a_doubled_first_axis(
        tmp_path, axes, opens):
    opened, temporary_file = [], csvio.tempfile.TemporaryFile

    def counting(*args, **kwargs):
        opened.append(kwargs)
        return temporary_file(*args, **kwargs)

    cell = np.random.default_rng(3).standard_normal((64, 64))
    path = tmp_path / "grid.csv"
    with mock.patch.object(csvio.tempfile, "TemporaryFile", counting):
        write_csv(path, ["x", "y", "v"], grid_rows(cell, axes=axes))
    assert len(opened) == opens
    write_csv(tmp_path / "rows.csv", ["x", "y", "v"], oracle_grid_rows(cell, axes=axes))
    assert path.read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_importing_the_cli_builds_no_kernel_table():
    code = "import gwalk.cli, gwalk.csvio as c; raise SystemExit(c._tables.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_signed_zeros_do_not_repeat_a_half_row(tmp_path):
    # -0.0 == 0.0 but prints differently; equal NaN bits print alike
    fields = [np.array([[0.0, 2.5, -0.0, 2.5]] * 3),
              np.array([[np.nan, -0.0, np.nan, -0.0]] * 3)]
    grid, rows = write_with_block(tmp_path / "grid.csv", fields, 4)
    assert grid == rows
    assert grid.splitlines()[1:4] == [b"0,0,0,nan", b"0,1,2.5,-0", b"0,2,-0,nan"]


def test_grid_write_working_memory_stays_below_the_grid(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.standard_normal((256, 256)) * 10.0 ** rng.integers(-40, 16, (256, 256))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "grid.csv", ["x", "y", "v"], grid_rows(values))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * values.nbytes


#: SHA-256 of outputs written by the per-row ``%`` writer this kernel replaced;
#: the spectrum's is of ``b"%.17g" % x`` rows of the periodic grid's values.
#: The interference grid's also pins the bits of one real-space step on
#: space-uniform angles, from initial phases whose argument is reduced in
#: integers
PINNED = {
    "spectrum": ({"experiment": "spectrum", "resolution": 64}, "rho.csv",
                 "46c6c3850f754ca033aeaefc96b70a9d655480dfaa515ad3c539322fc358d6a9"),
    "evolve": ({"experiment": "evolve", "lattice": [32, 32], "steps": 12,
                "params": {"epsilon": 1.0, "m": 0.2, "xi": 0.03},
                "gw": {"F": {"kind": "sine", "amplitude": 1.0, "omega": 0.2},
                       "G": {"kind": "sine", "amplitude": 0.8, "omega": 0.15},
                       "K": 1.4, "K_prime": 1.3}},
               "evolve_density.csv",
               "3013cda6267b636d06b616bbe8eeb6760de1b96c8cd6aabddc946699b4bce011"),
    "interference": ({"experiment": "interference", "q": 1.2}, "interference_grid.csv",
                     "46435989b193405a5d5de6d61fa2329e9b2e98999a058e4c8b50b4b4d8520497"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_grid_csv_bytes_are_pinned(tmp_path, name):
    config, filename, digest = PINNED[name]
    assert run(parse_config(None, {**config, "out_dir": str(tmp_path)})) == 0
    assert sha256_file(tmp_path / filename) == digest
