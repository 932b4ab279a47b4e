"""Atomic file writes: unique temp file in place, fsync, then rename.

An interrupted run never leaves a half-written output behind, and
concurrent runs writing the same output never share a temp file.
"""

from __future__ import annotations

import os
import secrets
from pathlib import Path

import numpy as np


def atomic_write_bytes(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one rename; a failure leaves it as it was.

    The temp file is opened exclusively under a random name rather than by
    ``tempfile.mkstemp``, whose 0600 mode would make outputs owner-only; mode
    0666 lets the umask decide, as for any plainly created file.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_tsv(path, header, rows) -> None:
    """Tab-separated table, written atomically: a header line, then one line
    per row. String cells are written as they are, numbers as ``.17g`` (which
    round-trips a float64 exactly and prints small integers plainly). A float
    matrix is formatted a row at a time with one ``%`` per row, which gives
    the same text as formatting each cell; a column whose bits are the same
    in every row is formatted once, into the row format."""
    lines = ["\t".join(header)]
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
        if len(rows):
            fixed = _constant_columns(rows)
            row_format = "\t".join(("%.17g" % v).replace("%", "%%") if same else "%.17g"
                                   for v, same in zip(rows[0].tolist(), fixed))
            lines += [row_format % tuple(row.tolist()) for row in rows[:, ~fixed]]
    else:
        lines += ["\t".join(v if isinstance(v, str) else f"{v:.17g}" for v in row)
                  for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _constant_columns(rows: np.ndarray) -> np.ndarray:
    """Mask of the columns of the float matrix ``rows`` whose bits are the
    same in every row: -0.0 differs from 0.0, and a NaN from a NaN of other
    bits. A float as wide as no unsigned integer has none."""
    try:
        bits = rows.view(f"u{rows.dtype.itemsize}")
    except TypeError:
        return np.zeros(rows.shape[1], dtype=bool)
    return (bits == bits[:1]).all(axis=0)
