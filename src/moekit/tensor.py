"""Dense float64 matrices with a minimal reverse-mode gradient tape.

Everything in this package that needs gradients runs through the small op set
below: matrix product, broadcast add/multiply, a smooth GELU, row softmax,
row gather/scatter, elementwise selection, and the two loss kernels
(cross-entropy and KL divergence). That is deliberately the whole surface;
this is not a general autodiff system.

Conventions:
  * A ``Tensor`` is always a 2-D float64 array. Scalars are ``(1, 1)``.
  * Ops record onto the tape carried by any of their inputs. Attach a tape to
    the graph entry point (for example the input batch); parameters created
    without a tape still receive gradients because they participate as op
    inputs.
  * ``GradTape.backward`` walks records in reverse creation order,
    accumulates gradients additively into ``Tensor.grad``, and releases each
    record once its vjp has run; ``len(tape)`` still counts the ops recorded.
  * ``arch`` records one fused node for all experts of a routed layer; it
    shares ``_gelu`` and ``_softmax_node`` so each formula lives here once.
  * ``Tensor(...)`` rejects NaN or inf entries with ``NonFiniteError``; op
    results skip that check.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "NonFiniteError",
    "GradTape",
    "Tensor",
    "softmax",
    "matmul",
    "add",
    "mul",
    "scale",
    "gelu",
    "row_softmax",
    "take_elems",
    "gather_rows",
    "scatter_rows",
    "cross_entropy",
    "kl_divergence",
    "reset_grads",
]


class ShapeError(ValueError):
    """Raised when operand dimensions do not line up."""


class NonFiniteError(ShapeError):
    """Raised when a Tensor's entries, gate logits or token rows hold NaN or inf."""


class GradTape:
    """Ordered record of primitive ops for one reverse sweep.

    Each record holds the output tensor, its input tensors, and a vjp closure
    mapping the output gradient to per-input gradients. ``len(tape)`` counts
    the ops recorded, also after ``backward`` has released them.
    """

    def __init__(self) -> None:
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._recorded = 0

    def __len__(self) -> int:
        return self._recorded

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], vjp: Callable) -> None:
        self._records.append((out, inputs, vjp))
        self._recorded += 1

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(tensor) into ``.grad`` for every tensor reachable
        from ``loss``. ``loss`` must be scalar shaped ``(1, 1)``.

        The sweep consumes the records, so a second call raises RuntimeError.
        Every op output refers to the tape, so records kept past the sweep
        would leave each step a reference cycle that only the cyclic garbage
        collector frees.
        """
        if loss.value.shape != (1, 1):
            raise ShapeError(f"backward needs a (1, 1) scalar loss, got {loss.value.shape}")
        if self._recorded and not self._records:
            raise RuntimeError("backward already swept this tape")
        loss.grad = np.ones((1, 1))
        records = self._records
        self._records = []
        while records:
            out, inputs, vjp = records.pop()
            if out.grad is None:
                continue  # this op did not feed the loss
            for tensor, contribution in zip(inputs, vjp(out.grad)):
                if contribution is None:
                    continue
                if tensor.grad is None:
                    tensor.grad = contribution.copy()
                else:
                    tensor.grad = tensor.grad + contribution


class Tensor:
    """Row-major 2-D float64 matrix, optionally attached to a tape."""

    __slots__ = ("value", "grad", "tape")

    def __init__(self, value, tape: GradTape | None = None) -> None:
        arr = np.array(value, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ShapeError(f"Tensor must be 2-D, got shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise NonFiniteError("Tensor entries must be finite")
        self.value = arr
        self.grad: np.ndarray | None = None
        self.tape = tape

    @classmethod
    def _wrap(cls, arr: np.ndarray, tape: GradTape | None) -> "Tensor":
        # internal: op results skip the copy + finite check
        t = cls.__new__(cls)
        t.value = arr
        t.grad = None
        t.tape = tape
        return t

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.value.size != 1:
            raise ShapeError(f"item() needs a single-entry tensor, got {self.value.shape}")
        return float(self.value.reshape(-1)[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.value.shape}, tape={self.tape is not None})"


def reset_grads(tensors: Sequence[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _tape_of(*tensors: Tensor) -> GradTape | None:
    found: GradTape | None = None
    for t in tensors:
        if t.tape is None:
            continue
        if found is None:
            found = t.tape
        elif found is not t.tape:
            raise ValueError("operands belong to different tapes")
    return found


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard matrix product. a: (n, m), b: (m, p) -> (n, p)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.cols != b.rows:
        raise ShapeError(f"matmul mismatch: {a.shape} @ {b.shape}")
    tape = _tape_of(a, b)
    out = Tensor._wrap(a.value @ b.value, tape)
    if tape is not None:
        av, bv = a.value, b.value

        def vjp(g: np.ndarray):
            return g @ bv.T, av.T @ g

        tape.record(out, (a, b), vjp)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add. ``b`` may be (1, m) and broadcasts across rows."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape and not (b.rows == 1 and b.cols == a.cols):
        raise ShapeError(f"add mismatch: {a.shape} + {b.shape}")
    tape = _tape_of(a, b)
    out = Tensor._wrap(a.value + b.value, tape)
    if tape is not None:
        row_broadcast = b.shape != a.shape

        def vjp(g: np.ndarray):
            gb = g.sum(axis=0, keepdims=True) if row_broadcast else g
            return g, gb

        tape.record(out, (a, b), vjp)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product. ``b`` may be (n, 1) and broadcasts across columns."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape and not (b.cols == 1 and b.rows == a.rows):
        raise ShapeError(f"mul mismatch: {a.shape} * {b.shape}")
    tape = _tape_of(a, b)
    out = Tensor._wrap(a.value * b.value, tape)
    if tape is not None:
        col_broadcast = b.shape != a.shape
        av, bv = a.value, b.value

        def vjp(g: np.ndarray):
            gb = (g * av).sum(axis=1, keepdims=True) if col_broadcast else g * av
            return g * bv, gb

        tape.record(out, (a, b), vjp)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    tape = a.tape
    out = Tensor._wrap(a.value * float(c), tape)
    if tape is not None:
        tape.record(out, (a,), lambda g: (g * float(c),))
    return out


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu(x: np.ndarray, slope: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Smooth GELU (tanh form) of ``x`` and, when ``slope`` is set, its derivative."""
    th = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    out = 0.5 * x * (1.0 + th)
    if not slope:
        return out, None
    sech2 = 1.0 - th**2
    return out, 0.5 * (1.0 + th) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3 * 0.044715 * x**2)


def gelu(a: Tensor) -> Tensor:
    """Smooth GELU (tanh form), used as the feed-forward activation."""
    a = _as_tensor(a)
    value, d = _gelu(a.value, a.tape is not None)
    out = Tensor._wrap(value, a.tape)
    if a.tape is not None:
        a.tape.record(out, (a,), lambda g: (g * d,))
    return out


def softmax(v: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of a 1-D vector (max subtraction)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"softmax needs a non-empty 1-D vector, got shape {v.shape}")
    shifted = v - v.max()
    e = np.exp(shifted)
    return e / e.sum()


def _row_softmax_value(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def row_softmax(a: Tensor) -> Tensor:
    """Softmax along each row, with max subtraction per row."""
    a = _as_tensor(a)
    if a.cols == 0:
        raise ShapeError("row_softmax needs at least one column")
    return _softmax_node(a, _row_softmax_value(a.value))


def _softmax_node(a: Tensor, s: np.ndarray) -> Tensor:
    """Tape node for ``s``, the row softmax of ``a`` already computed by the
    caller (``arch.forward_layer`` passes ``top_k_gate``'s bitwise-equal probs)."""
    out = Tensor._wrap(s, a.tape)
    if a.tape is not None:

        def vjp(g: np.ndarray):
            dot = (g * s).sum(axis=1, keepdims=True)
            return (s * (g - dot),)

        a.tape.record(out, (a,), vjp)
    return out


def take_elems(a: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Pick ``a[rows[i], cols[i]]`` into a column vector of shape (len(rows), 1)."""
    a = _as_tensor(a)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ShapeError("take_elems needs matching 1-D index arrays")
    if rows.size and (rows.min() < 0 or rows.max() >= a.rows):
        raise IndexError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= a.cols):
        raise IndexError("column index out of range")
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
    a = _as_tensor(a)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1:
        raise ShapeError("gather_rows needs a 1-D index array")
    if rows.size and (rows.min() < 0 or rows.max() >= a.rows):
        raise IndexError("row index out of range")
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
    src = _as_tensor(src)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or rows.shape[0] != src.rows:
        raise ShapeError("scatter_rows needs one row index per source row")
    if rows.size and (rows.min() < 0 or rows.max() >= num_rows):
        raise IndexError("row index out of range")
    acc = np.zeros((num_rows, src.cols))
    np.add.at(acc, rows, src.value)
    out = Tensor._wrap(acc, src.tape)
    if src.tape is not None:
        src.tape.record(out, (src,), lambda g: (g[rows],))
    return out


# ---------------------------------------------------------------------------
# loss kernels
# ---------------------------------------------------------------------------


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under row softmax.

    logits: (n, C); labels: (n,) ints in [0, C). Non-negative by construction.
    """
    logits = _as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.shape[0] != logits.rows:
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    if logits.rows == 0:
        raise ShapeError("cross_entropy of an empty batch")
    if labels.min() < 0 or labels.max() >= logits.cols:
        raise IndexError("label out of range")
    logp = _log_softmax(logits.value)
    n = logits.rows
    loss = -logp[np.arange(n), labels].mean()
    out = Tensor._wrap(np.array([[loss]]), logits.tape)
    if logits.tape is not None:
        probs = np.exp(logp)

        def vjp(g: np.ndarray):
            grad = probs.copy()
            grad[np.arange(n), labels] -= 1.0
            return (grad * (g[0, 0] / n),)

        logits.tape.record(out, (logits,), vjp)
    return out


def kl_divergence(p_logits: Tensor, q_logits: Tensor) -> Tensor:
    """Mean over rows of KL(softmax(p) || softmax(q)). Non-negative.

    Differentiable in both arguments; pass the reference distribution as a
    plain tensor (no tape) to treat it as a constant.
    """
    p_logits, q_logits = _as_tensor(p_logits), _as_tensor(q_logits)
    if p_logits.shape != q_logits.shape:
        raise ShapeError(f"kl_divergence mismatch: {p_logits.shape} vs {q_logits.shape}")
    if p_logits.rows == 0:
        raise ShapeError("kl_divergence of an empty batch")
    logp = _log_softmax(p_logits.value)
    logq = _log_softmax(q_logits.value)
    p = np.exp(logp)
    n = p_logits.rows
    per_row = (p * (logp - logq)).sum(axis=1)
    out = Tensor._wrap(np.array([[per_row.mean()]]), _tape_of(p_logits, q_logits))
    if out.tape is not None:
        q = np.exp(logq)

        def vjp(g: np.ndarray):
            s = g[0, 0] / n
            gq = (q - p) * s
            gp = p * ((logp - logq) - per_row[:, None]) * s
            return gp, gq

        out.tape.record(out, (p_logits, q_logits), vjp)
    return out
