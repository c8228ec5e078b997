"""Deterministic CSV and manifest helpers shared by the experiment drivers."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import os


def write_csv(path, header, rows) -> int:
    """Write rows under a header; returns the number of data rows.

    Every value is written as ``%.17g``, so reals keep 17 significant
    digits and integers stay integers.  The rows go to a sibling temporary
    file that replaces ``path`` only once complete, so a failure leaves
    neither a truncated file nor the temporary one.
    """
    template = ",".join(["%.17g"] * len(header)) + "\n"
    tmp = f"{os.fspath(path)}.tmp"
    count = 0
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(template % tuple(row))
                count += 1
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return count


def grid_rows(*fields):
    """Rows (p1, p2, f[p1, p2], ...) of equally shaped 2D arrays, p2 fastest."""
    for p1, row in enumerate(zip(*fields)):
        for p2, values in enumerate(zip(*(r.tolist() for r in row))):
            yield (p1, p2, *values)


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
