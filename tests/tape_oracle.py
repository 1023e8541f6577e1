"""Per-op tape primitives that only tests use, as oracles for the fused nodes.

``arch._routed_skip`` records a routed layer (gate, experts, combine and skip
add) as one tape node, and takes the gate softmax from ``top_k_gate``. The
tests check its output and every gradient bitwise against the chain these ops
build with ``tensor``'s matmul, add and gelu: row softmax, gather rows, pick
one entry per row, scale by a column, scatter rows back.
``gelu_reference`` is the written formula that ``tensor._gelu`` evaluates
with in-place temporaries.

``tensor.kd_loss`` records the blended distillation loss as one tape node.
``kd_chain`` builds it from ``tensor.cross_entropy`` and ``tensor.add`` with
``scale`` and ``kl_divergence`` here, the chain the tests hold it to bitwise.

The dispatch-shaped ops trust their callers: indices come from a dispatch
plan, so they check no shapes or ranges, and every operand is already a
``Tensor``. ``scale`` and ``kl_divergence`` take arrays too, and KL checks
its shapes.
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


def scale(a: Tensor, c: float) -> Tensor:
    a = tk._as_tensor(a)
    tape = a.tape
    out = Tensor._wrap(a.value * float(c), tape)
    if tape is not None:
        tape.record(out, (a,), lambda g: (g * float(c),))
    return out


def kl_divergence(p_logits: Tensor, q_logits: Tensor) -> Tensor:
    """Mean over rows of KL(softmax(p) || softmax(q)). Non-negative.

    Differentiable in both arguments; pass the reference distribution as a
    plain tensor (no tape) to treat it as a constant.
    """
    p_logits, q_logits = tk._as_tensor(p_logits), tk._as_tensor(q_logits)
    if p_logits.shape != q_logits.shape:
        raise tk.ShapeError(f"kl_divergence mismatch: {p_logits.shape} vs {q_logits.shape}")
    if p_logits.rows == 0:
        raise tk.ShapeError("kl_divergence of an empty batch")
    logp = tk._log_softmax(p_logits.value)
    logq = tk._log_softmax(q_logits.value)
    p = np.exp(logp)
    n = p_logits.rows
    per_row = (p * (logp - logq)).sum(axis=1)
    out = Tensor._wrap(np.array([[per_row.mean()]]), tk._tape_of(p_logits, q_logits))
    if out.tape is not None:
        q = np.exp(logq)

        def vjp(g: np.ndarray):
            s = g[0, 0] / n
            gq = (q - p) * s
            gp = p * ((logp - logq) - per_row[:, None]) * s
            return gp, gq

        out.tape.record(out, (p_logits, q_logits), vjp)
    return out


def kd_chain(student: Tensor, teacher: np.ndarray, labels, alpha: float, temperature: float):
    """The blended loss as the per-op chain add(CE, scale(KL, alpha T^2)), the
    student scaled by 1 / T first when T != 1. Returns (loss, CE, KD) tensors."""
    ce = tk.cross_entropy(student, labels)
    t = temperature
    if t != 1.0:
        kd = scale(kl_divergence(Tensor(teacher / t), scale(student, 1.0 / t)), alpha * t * t)
    else:
        kd = scale(kl_divergence(Tensor(teacher), student), alpha)
    return tk.add(ce, kd), ce, kd
