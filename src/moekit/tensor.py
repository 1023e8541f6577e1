"""Dense float64 matrices with a minimal reverse-mode gradient tape.

Everything in this package that needs gradients runs through the small op set
below: matrix product, row-broadcast add, a smooth GELU, and the two loss
kernels (cross-entropy, and ``kd_loss``: cross-entropy plus a KL divergence
from a constant teacher, as one node). That is deliberately the whole surface,
the ops the library records; this is not a general autodiff system.

Conventions:
  * A ``Tensor`` is always a 2-D float64 array. Scalars are ``(1, 1)``.
  * Ops record onto the tape carried by any of their inputs. Attach a tape to
    the graph entry point (for example the input batch); parameters created
    without a tape still receive gradients because they participate as op
    inputs.
  * ``GradTape.backward`` walks records in reverse creation order,
    accumulates gradients additively into ``Tensor.grad``, and releases each
    record once its vjp has run; ``len(tape)`` still counts the ops recorded.
  * ``arch`` records a routed layer (gate, experts, combine and skip add) as
    one node of its own; it shares ``_gelu`` so the formula lives here once.
  * ``Tensor(...)`` rejects a complex, string or object value with ``ShapeError`` and
    NaN or inf entries with ``NonFiniteError``; op results skip those checks.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ._contract import _number_in, _real_array

__all__ = [
    "ShapeError",
    "NonFiniteError",
    "GradTape",
    "Tensor",
    "matmul",
    "add",
    "gelu",
    "cross_entropy",
    "kd_loss",
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
        shape = loss.value.shape if isinstance(loss, Tensor) else type(loss).__name__
        if shape != (1, 1):
            raise ShapeError(f"backward needs a (1, 1) scalar loss, got {shape}")
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
        arr = _real_array("Tensor value", value, ShapeError).astype(np.float64)
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
    return x if isinstance(x, Tensor) else Tensor(x)


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


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu(x: np.ndarray, slope: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Smooth GELU (tanh form) of ``x`` and, when ``slope`` is set, its derivative.
    In-place temporaries that share x * x, 0.5 * x and 1 + th, with the same roundings
    as the one-expression formulas of ``tests/tape_oracle.py``."""
    x2 = x * x
    th = x2 * x
    th *= 0.044715
    th += x
    th *= _GELU_C
    np.tanh(th, out=th)
    half_x = 0.5 * x
    one_th = th + 1.0
    out = half_x * one_th
    if not slope:
        return out, None
    half_x *= np.subtract(1.0, np.square(th, out=th), out=th)  # sech^2
    half_x *= _GELU_C
    x2 *= 3 * 0.044715
    x2 += 1.0
    half_x *= x2
    one_th *= 0.5
    one_th += half_x
    return out, one_th


def gelu(a: Tensor) -> Tensor:
    """Smooth GELU (tanh form), used as the feed-forward activation."""
    a = _as_tensor(a)
    value, d = _gelu(a.value, a.tape is not None)
    out = Tensor._wrap(value, a.tape)
    if a.tape is not None:
        a.tape.record(out, (a,), lambda g: (g * d,))
    return out


# ---------------------------------------------------------------------------
# loss kernels
# ---------------------------------------------------------------------------


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _nll(logits: Tensor, labels) -> tuple[np.ndarray, np.ndarray, np.float64]:
    """(labels, row log-softmax, mean NLL), once labels are ints in [0, C), one per row, n > 0."""
    labels = _real_array("labels", labels, ShapeError)
    if labels.dtype.kind not in "iu":
        raise ShapeError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.ndim != 1 or labels.shape[0] != logits.rows:
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    if logits.rows == 0:
        raise ShapeError("cross_entropy of an empty batch")
    if labels.min() < 0 or labels.max() >= logits.cols:
        raise ShapeError(f"labels must lie in [0, {logits.cols}), got [{labels.min()}, {labels.max()}]")
    logp = _log_softmax(logits.value)
    n = logits.rows
    return labels, logp, -(np.add.reduce(logp[np.arange(n), labels]) / n)  # the mean, bit for bit


def _ce_grad(probs: np.ndarray, labels: np.ndarray, g: np.ndarray) -> np.ndarray:
    grad = probs.copy()
    grad[np.arange(probs.shape[0]), labels] -= 1.0
    grad *= g[0, 0] / probs.shape[0]
    return grad


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under row softmax.

    logits: (n, C); labels: (n,) of an integer dtype, in [0, C). Non-negative by construction.
    """
    logits = _as_tensor(logits)
    labels, logp, loss = _nll(logits, labels)
    out = Tensor._wrap(np.array([[loss]]), logits.tape)
    if logits.tape is not None:
        probs = np.exp(logp)
        logits.tape.record(out, (logits,), lambda g: (_ce_grad(probs, labels, g),))
    return out


def kd_loss(
    student_logits: Tensor, teacher_logits, labels: np.ndarray, alpha: float, temperature: float = 1.0
) -> tuple[Tensor, float, float]:
    """(CE(student, labels) + alpha T^2 KL(softmax(teacher / T) || softmax(student / T)) as one
    tape node that feeds the student alone, CE value, KD value), bitwise the per-op chain's.
    Checks alpha >= 0 and T > 0, then the labels as ``cross_entropy`` does, then that the teacher
    logits are real, 2-D and, over T, finite (else ``NonFiniteError``) and of the student's shape."""
    _number_in("alpha", alpha, error=ShapeError)
    t = _number_in("temperature", temperature, positive=True, error=ShapeError)
    student = _as_tensor(student_logits)
    labels, logq, ce = _nll(student, labels)
    t_vals = _real_array("teacher logits", teacher_logits, ShapeError)
    teacher = Tensor(t_vals if t == 1.0 else t_vals / t).value
    if teacher.shape != student.shape:
        raise ShapeError(f"teacher logits {teacher.shape} do not match student logits {student.shape}")
    n, inv_t, weight = student.rows, float(1.0 / t), float(alpha * t * t)
    logq_t = logq if t == 1.0 else _log_softmax(student.value * inv_t)
    logp = _log_softmax(teacher)
    p = np.exp(logp)
    kd = np.add.reduce(np.add.reduce(p * (logp - logq_t), axis=1)) / n * weight
    out = Tensor._wrap(np.array([[ce + kd]]), student.tape)
    if student.tape is not None:
        q = np.exp(logq)
        q_t = q if t == 1.0 else np.exp(logq_t)

        def vjp(g: np.ndarray):
            grad = (q_t - p) * (g[0, 0] * weight / n)
            if t != 1.0:
                grad *= inv_t
            return (grad + _ce_grad(q, labels, g),)

        student.tape.record(out, (student,), vjp)
    return out, float(ce), float(kd)
