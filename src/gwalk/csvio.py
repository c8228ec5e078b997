"""Deterministic CSV and manifest helpers shared by the experiment drivers."""

from __future__ import annotations

import csv
import hashlib


def format_value(x) -> str:
    """17-significant-digit decimal rendering; integers stay integers."""
    if isinstance(x, (int,)) and not isinstance(x, bool):
        return str(x)
    return format(float(x), ".17g")


def write_csv(path, header, rows) -> int:
    """Write rows with a header; returns the number of data rows."""
    count = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])
            count += 1
    return count


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    """Read back a numeric CSV written by this package."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows
