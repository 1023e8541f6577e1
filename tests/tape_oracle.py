"""Per-op tape primitives that only tests use, as oracles for the fused nodes.

``arch._routed_skip`` records a routed layer (gate, experts, combine and skip
add) as one tape node, and takes the gate softmax from ``top_k_gate``. The
tests check its output and every gradient bitwise against the chain these ops
build with ``tensor``'s matmul, add and gelu: row softmax, gather rows, pick
one entry per row, scale by a column, scatter rows back.
``gelu_reference`` is the written formula that ``tensor._gelu`` evaluates
with in-place temporaries.

The ops trust their callers: indices come from a dispatch plan, so nothing
here checks shapes or ranges, and every operand is already a ``Tensor``.
"""

from __future__ import annotations

import numpy as np

from moekit import tensor as tk
from moekit.tensor import Tensor


def gelu_reference(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smooth GELU (tanh form) of ``x`` and its derivative, one expression each."""
    th = np.tanh(tk._GELU_C * (x + 0.044715 * (x * x * x)))
    out = 0.5 * x * (1.0 + th)
    sech2 = 1.0 - th**2
    return out, 0.5 * (1.0 + th) + 0.5 * x * sech2 * tk._GELU_C * (1.0 + 3 * 0.044715 * x**2)


def row_softmax(a: Tensor) -> Tensor:
    """Softmax along each row, with max subtraction per row."""
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    out = Tensor._wrap(s, a.tape)
    if a.tape is not None:

        def vjp(g: np.ndarray):
            dot = (g * s).sum(axis=1, keepdims=True)
            return (s * (g - dot),)

        a.tape.record(out, (a,), vjp)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product. ``b`` may be (n, 1) and broadcasts across columns."""
    tape = tk._tape_of(a, b)
    out = Tensor._wrap(a.value * b.value, tape)
    if tape is not None:
        col_broadcast = b.shape != a.shape
        av, bv = a.value, b.value

        def vjp(g: np.ndarray):
            gb = (g * av).sum(axis=1, keepdims=True) if col_broadcast else g * av
            return g * bv, gb

        tape.record(out, (a, b), vjp)
    return out


def take_elems(a: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Pick ``a[rows[i], cols[i]]`` into a column vector of shape (len(rows), 1)."""
    out = Tensor._wrap(a.value[rows, cols][:, None], a.tape)
    if a.tape is not None:
        shape = a.shape

        def vjp(g: np.ndarray):
            ga = np.zeros(shape)
            np.add.at(ga, (rows, cols), g[:, 0])
            return (ga,)

        a.tape.record(out, (a,), vjp)
    return out


def gather_rows(a: Tensor, rows: np.ndarray) -> Tensor:
    """Select rows of ``a`` in the given order. Duplicates allowed."""
    out = Tensor._wrap(a.value[rows], a.tape)
    if a.tape is not None:
        shape = a.shape

        def vjp(g: np.ndarray):
            ga = np.zeros(shape)
            np.add.at(ga, rows, g)
            return (ga,)

        a.tape.record(out, (a,), vjp)
    return out


def scatter_rows(src: Tensor, rows: np.ndarray, num_rows: int) -> Tensor:
    """Build a (num_rows, src.cols) tensor with ``out[rows[i]] += src[i]``.

    Rows not referenced stay zero; duplicate indices accumulate.
    """
    acc = np.zeros((num_rows, src.cols))
    np.add.at(acc, rows, src.value)
    out = Tensor._wrap(acc, src.tape)
    if src.tape is not None:
        src.tape.record(out, (src,), lambda g: (g[rows],))
    return out
