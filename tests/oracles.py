"""Reference code that tests compare the package's output against."""

import csv


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    """Read back a numeric CSV written by the package."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows
