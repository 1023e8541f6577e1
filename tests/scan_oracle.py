"""A work-efficient exclusive prefix scan that only tests use.

``exclusive_scan_blelloch`` computes each expert's slot counts the way the
routing plan once did, before one stable sort by expert replaced it: the
tests keep it as an independent oracle for the slots ``build_dispatch_plan``
assigns, and acceptance criterion C5 checks it against a sequential scan.
"""

from __future__ import annotations

import numpy as np

from moekit.tensor import ShapeError


def exclusive_scan_blelloch(values: np.ndarray) -> np.ndarray:
    """Work-efficient exclusive prefix sum (up-sweep + down-sweep).

    Inputs of any length are padded to the next power of two internally.
    Output[i] = sum(values[:i]); output[0] = 0. Exact for integer inputs.
    """
    values = np.asarray(values)
    n = values.shape[0]
    if values.ndim != 1:
        raise ShapeError(f"scan input must be 1-D, got shape {values.shape}")
    if n == 0:
        return np.zeros(0, dtype=np.int64 if values.dtype.kind in "iub" else values.dtype)
    dtype = np.int64 if values.dtype.kind in "iub" else np.float64
    m = 1 << (n - 1).bit_length()
    buf = np.zeros(m, dtype=dtype)
    buf[:n] = values

    # up-sweep: build partial sums at stride-aligned positions
    d = 1
    while d < m:
        buf[2 * d - 1 :: 2 * d] += buf[d - 1 :: 2 * d]
        d *= 2

    # down-sweep: clear the root, push prefixes back down
    buf[m - 1] = 0
    d = m // 2
    while d >= 1:
        left = buf[d - 1 :: 2 * d].copy()
        buf[d - 1 :: 2 * d] = buf[2 * d - 1 :: 2 * d]
        buf[2 * d - 1 :: 2 * d] += left
        d //= 2

    return buf[:n]
