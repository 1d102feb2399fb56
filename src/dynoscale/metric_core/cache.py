"""Distance-matrix cache file.

Layout: magic bytes ``DYNO``, format version u16, point count u64, then the
row-major lower triangle (diagonal excluded) as IEEE-754 little-endian
float64.  Readers reject a mismatched magic or version, and a table that
fails the metric checks of ``FiniteMetricSpace``.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..errors import ParameterError
from .space import FiniteMetricSpace

MAGIC = b"DYNO"
VERSION = 1


def write_cache(path: str | Path, space: FiniteMetricSpace) -> None:
    m = space.as_matrix()
    n = space.size
    rows = [m[i, :i] for i in range(n)]
    tri = np.concatenate(rows) if n > 1 else np.empty(0)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        fh.write(struct.pack("<Q", n))
        fh.write(tri.astype("<f8").tobytes())


def read_cache(path: str | Path) -> FiniteMetricSpace:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ParameterError(f"bad cache magic {magic!r}")
        (version,) = struct.unpack("<H", fh.read(2))
        if version != VERSION:
            raise ParameterError(f"unsupported cache version {version}")
        (n,) = struct.unpack("<Q", fh.read(8))
        body = fh.read()
    expected = n * (n - 1) // 2 * 8
    if len(body) != expected:
        raise ParameterError("truncated cache body")
    tri = np.frombuffer(body, dtype="<f8")
    m = np.zeros((n, n))
    pos = 0
    for i in range(n):
        m[i, :i] = tri[pos:pos + i]
        pos += i
    m = m + m.T
    # the file is outside input, so its table is checked like any other
    return FiniteMetricSpace(matrix=m, name=str(Path(path).stem))
