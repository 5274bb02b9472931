import math

import numpy as np
import pytest

from affinebody import io


@pytest.mark.parametrize("rows", [
    [[math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e308],
     [1.0, -2.5, 1.0 / 3.0, 0.0, -1e-300, 123456789.0, 7.0]],
    [[0.1], [-0.0]],
    np.empty((0, 3)),
], ids=["specials", "one-column", "no-rows"])
def test_csv_rows_written_per_value(tmp_path, rows):
    # write_csv formats a whole row with one format string: the bytes are
    # those of format_float on each value
    rows = np.asarray(rows, dtype=float)
    header = [f"c{j}" for j in range(rows.shape[1])]
    path = tmp_path / "table.csv"
    io.write_csv(path, header, rows)
    want = ",".join(header) + "\n" + "".join(
        ",".join(io.format_float(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == want.encode()
