"""Reference code that tests compare the package's output against."""

import csv

import numpy as np


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    """Read back a numeric CSV written by the package."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def broadcast_grid(fn, xs, ys):
    """fn over the grid xs x ys as one broadcast of the whole qX axis against
    the whole qY axis."""
    return fn(np.asarray(xs)[:, None], np.asarray(ys)[None, :])
