"""Serialisation helpers: JSON reports and CSV tables.

All floating point output uses 17 significant digits so values round-trip
exactly through text.
"""

import json

import numpy as np

from .errors import ConfigError
from .phase import pair_layout

FLOAT_FMT = "%.17g"


def format_float(x):
    return FLOAT_FMT % float(x)


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read JSON from {path}: {exc}") from exc


def upper_triangle_labels(symbol, n):
    """Column labels M_12, M_13, ... in row-major strictly-upper order."""
    return [f"{symbol}_{i + 1}{j + 1}" for i, j in zip(*pair_layout(n).iu)]


def trajectory_header(n):
    cols = ["t"]
    cols += [f"q{a + 1}" for a in range(n)]
    cols += [f"p{a + 1}" for a in range(n)]
    cols += upper_triangle_labels("M", n)
    cols += upper_triangle_labels("N", n)
    cols += ["E", "C2"]
    return cols


def write_csv(path, header, rows):
    """A header line, then one line per row of the 2-d array `rows`."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_float(v) for v in row) + "\n")


def write_trajectory_csv(path, trajectory):
    write_csv(path, trajectory_header(trajectory.n), np.column_stack(
        [trajectory.times, trajectory.samples, trajectory.energy,
         trajectory.casimir]))


def read_trajectory_csv(path):
    """Returns (header, data) with data shaped (records, columns)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = [[float(v) for v in line.strip().split(",")]
                for line in fh if line.strip()]
    return header, np.array(data)
