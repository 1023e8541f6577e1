"""Numeric kernel tests: independent oracles for every op plus gradient checks."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from moekit import tensor as tk
from moekit.gating import GatingConfig, top_k_gate
from moekit.tensor import (
    GradTape,
    ShapeError,
    Tensor,
    add,
    cross_entropy,
    gelu,
    matmul,
)
from tape_oracle import (
    gather_rows,
    gelu_reference,
    kl_divergence,
    mul,
    row_softmax,
    scale,
    scatter_rows,
    take_elems,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive triple loop, the reference semantics for the matrix product."""
    n, m = a.shape
    m2, p = b.shape
    assert m == m2
    out = np.zeros((n, p))
    for i in range(n):
        for j in range(p):
            acc = 0.0
            for k in range(m):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def softmax_oracle(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - np.max(v))
    return e / e.sum()


def ce_oracle(logits: np.ndarray, labels: np.ndarray) -> float:
    total = 0.0
    for row, lab in zip(logits, labels):
        p = softmax_oracle(row)
        total += -np.log(p[lab])
    return total / len(labels)


def kl_oracle(p_logits: np.ndarray, q_logits: np.ndarray) -> float:
    total = 0.0
    for pr, qr in zip(p_logits, q_logits):
        p = softmax_oracle(pr)
        q = softmax_oracle(qr)
        total += float(np.sum(p * (np.log(p) - np.log(q))))
    return total / len(p_logits)


def fd_gradient(f, params: list[Tensor], h: float = 1e-5) -> list[np.ndarray]:
    """Central finite differences of scalar f() w.r.t. each parameter tensor."""
    grads = []
    for p in params:
        g = np.zeros_like(p.value)
        flat = p.value.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = f()
            flat[i] = keep - h
            down = f()
            flat[i] = keep
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def assert_grads_close(ad: list[np.ndarray], fd: list[np.ndarray], tol: float = 1e-4):
    for a, f in zip(ad, fd):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
        rel = np.abs(a - f) / denom
        assert rel.max() < tol, f"gradient mismatch: max rel err {rel.max():.3e}"


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


class TestMatmul:
    def test_identity_bitwise(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((5, 5))
        out = matmul(Tensor(a), Tensor(np.eye(5))).value
        assert np.array_equal(out, a)

    def test_small_example(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]])).value
        assert np.array_equal(out, [[2.0], [4.0]])

    def test_random_8x8_vs_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        got = matmul(Tensor(a), Tensor(b)).value
        want = matmul_oracle(a, b)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_associativity_with_identity_bitwise(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((4, 3))
        ai = matmul(Tensor(a), Tensor(np.eye(4))).value
        left = ai @ b
        right = a @ b
        assert np.array_equal(left, right)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_fixed_seed_rerun_bitwise(self):
        def run():
            rng = np.random.default_rng(11)
            a = rng.standard_normal((16, 16))
            b = rng.standard_normal((16, 16))
            return (a @ b).tobytes()

        assert run() == run()


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def softmax(v) -> np.ndarray:
    """The gate softmax of the vector v as one row: the softmax the library
    runs, which test_arch pins bitwise to ``tape_oracle.row_softmax``."""
    return top_k_gate(v[None], GatingConfig(len(v))).probs[0]


class TestSoftmax:
    def test_two_zeros(self):
        assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)

    def test_large_values_no_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) < 1e-12

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.standard_normal(9) * 3
            assert np.max(np.abs(softmax(v) - softmax_oracle(v))) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(7)
        assert np.max(np.abs(softmax(v) - softmax(v + 123.0))) <= 1e-12

    def test_sums_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            v = rng.standard_normal(rng.integers(1, 12)) * rng.uniform(0.1, 50)
            out = softmax(v)
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.all(out >= 0)

    def test_row_softmax_matches_vector(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 5))
        rows = top_k_gate(x, GatingConfig(5)).probs
        for i in range(6):
            assert np.max(np.abs(rows[i] - softmax_oracle(x[i]))) <= 1e-15


# ---------------------------------------------------------------------------
# cross-entropy
# ---------------------------------------------------------------------------


class TestCrossEntropy:
    def test_confident_correct_near_zero(self):
        logits = np.zeros((3, 4))
        labels = np.array([1, 2, 0])
        logits[np.arange(3), labels] = 200.0
        loss = cross_entropy(Tensor(logits), labels).item()
        assert 0.0 <= loss < 1e-10

    def test_uniform_gives_log_c(self):
        for c in (2, 5, 17):
            loss = cross_entropy(Tensor(np.zeros((4, c))), np.zeros(4, dtype=int)).item()
            assert abs(loss - np.log(c)) < 1e-12

    def test_random_vs_direct_formula(self):
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((4, 5)) * 2
        labels = rng.integers(0, 5, size=4)
        got = cross_entropy(Tensor(logits), labels).item()
        assert abs(got - ce_oracle(logits, labels)) <= 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            logits = rng.standard_normal((6, 8)) * rng.uniform(0.1, 10)
            labels = rng.integers(0, 8, size=6)
            assert cross_entropy(Tensor(logits), labels).item() >= 0.0

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, 0]))

    @pytest.mark.parametrize("labels", [[0.5, 2.9], np.array([0.0, 1.0]), [True, False]])
    def test_non_integer_labels_rejected(self, labels):
        # a cast would truncate 0.5 -> 0 and 2.9 -> 2, or read bools as 1 and 0
        with pytest.raises(ShapeError, match="labels must be integers"):
            cross_entropy(Tensor(np.zeros((2, 3))), labels)


# ---------------------------------------------------------------------------
# KL divergence
# ---------------------------------------------------------------------------


class TestKl:
    def test_identical_logits_zero(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((5, 6))
        assert kl_divergence(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_known_value(self):
        # reference distribution (0.75, 0.25) against a uniform model
        p_logits = np.log(np.array([[0.75, 0.25]]))
        q_logits = np.zeros((1, 2))
        got = kl_divergence(Tensor(p_logits), Tensor(q_logits)).item()
        want = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
        assert abs(got - want) <= 1e-12
        assert abs(got - 0.130812035941137) <= 1e-12

    def test_random_vs_direct_formula(self):
        rng = np.random.default_rng(15)
        p = rng.standard_normal((6, 7))
        q = rng.standard_normal((6, 7))
        assert abs(kl_divergence(Tensor(p), Tensor(q)).item() - kl_oracle(p, q)) <= 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            p = rng.standard_normal((4, 5)) * rng.uniform(0.1, 5)
            q = rng.standard_normal((4, 5)) * rng.uniform(0.1, 5)
            assert kl_divergence(Tensor(p), Tensor(q)).item() >= -1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            kl_divergence(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


# ---------------------------------------------------------------------------
# gradient tape
# ---------------------------------------------------------------------------


def sum_loss(a: Tensor) -> Tensor:
    """The sum of ``a``'s entries as a (1, 1) tape loss: a ones row times ``a``
    times a ones column, so the gradient reaching ``a`` is all ones."""
    return matmul(matmul(Tensor(np.ones((1, a.rows))), a), Tensor(np.ones((a.cols, 1))))


class TestBackward:
    def test_linear_ce_matches_fd(self):
        rng = np.random.default_rng(21)
        x_val = rng.standard_normal((4, 6))
        w = Tensor(rng.standard_normal((6, 5)) * 0.5)
        b = Tensor(rng.standard_normal((1, 5)) * 0.1)
        labels = rng.integers(0, 5, size=4)

        def loss_value() -> float:
            logits = x_val @ w.value + b.value
            return ce_oracle(logits, labels)

        tape = GradTape()
        x = Tensor(x_val, tape)
        loss = cross_entropy(add(matmul(x, w), b), labels)
        tape.backward(loss)
        assert_grads_close([w.grad, b.grad], fd_gradient(loss_value, [w, b]))

    def test_composite_kd_style_loss_matches_fd(self):
        rng = np.random.default_rng(22)
        x_val = rng.standard_normal((5, 8))
        teacher = rng.standard_normal((5, 6))
        w = Tensor(rng.standard_normal((8, 6)) * 0.4)
        labels = rng.integers(0, 6, size=5)
        alpha = 0.7

        def loss_value() -> float:
            logits = x_val @ w.value
            return ce_oracle(logits, labels) + alpha * kl_oracle(teacher, logits)

        tape = GradTape()
        x = Tensor(x_val, tape)
        logits = matmul(x, w)
        loss = add(cross_entropy(logits, labels), scale(kl_divergence(Tensor(teacher), logits), alpha))
        tape.backward(loss)
        assert_grads_close([w.grad], fd_gradient(loss_value, [w]))

    def test_gather_scatter_take_mul_path_matches_fd(self):
        # exercises the dispatch-shaped ops: gather rows, per-element pick,
        # column-broadcast scale, scatter-add back
        rng = np.random.default_rng(23)
        x_val = rng.standard_normal((6, 4))
        w = Tensor(rng.standard_normal((4, 4)) * 0.5)
        gate_w = Tensor(rng.standard_normal((4, 3)) * 0.5)
        rows = np.array([0, 2, 2, 5, 1])
        cols = np.array([1, 0, 2, 1, 1])
        labels = rng.integers(0, 4, size=6)

        def loss_value() -> float:
            probs = np.stack([softmax_oracle(r) for r in x_val @ gate_w.value])
            sel = probs[rows, cols][:, None]
            y = (x_val[rows] @ w.value) * sel
            out = np.zeros((6, 4))
            np.add.at(out, rows, y)
            return ce_oracle(x_val + out, labels)

        tape = GradTape()
        x = Tensor(x_val, tape)
        probs = row_softmax(matmul(x, gate_w))
        sel = take_elems(probs, rows, cols)
        y = mul(matmul(gather_rows(x, rows), w), sel)
        loss = cross_entropy(add(x, scatter_rows(y, rows, 6)), labels)
        tape.backward(loss)
        assert_grads_close([w.grad, gate_w.grad], fd_gradient(loss_value, [w, gate_w]))

    def test_randomized_small_models_match_fd(self):
        # randomized two-layer nets with gelu, dims <= 16
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            n, d, h, c = (int(rng.integers(2, 9)) for _ in range(4))
            h, c = h + 1, c + 1
            x_val = rng.standard_normal((n, d))
            w1 = Tensor(rng.standard_normal((d, h)) * 0.6)
            b1 = Tensor(rng.standard_normal((1, h)) * 0.1)
            w2 = Tensor(rng.standard_normal((h, c)) * 0.6)
            labels = rng.integers(0, c, size=n)

            def loss_value() -> float:
                pre = x_val @ w1.value + b1.value
                inner = np.sqrt(2 / np.pi) * (pre + 0.044715 * pre**3)
                act = 0.5 * pre * (1 + np.tanh(inner))
                return ce_oracle(act @ w2.value, labels)

            tape = GradTape()
            x = Tensor(x_val, tape)
            loss = cross_entropy(matmul(gelu(add(matmul(x, w1), b1)), w2), labels)
            tape.backward(loss)
            assert_grads_close([w1.grad, b1.grad, w2.grad], fd_gradient(loss_value, [w1, b1, w2]))

    def test_grad_accumulates_over_reuse(self):
        tape = GradTape()
        a = Tensor([[2.0, 3.0]], tape)
        loss = sum_loss(add(a, a))
        tape.backward(loss)
        assert np.array_equal(a.grad, 2 * np.ones((1, 2)))

    def test_backward_requires_scalar(self):
        tape = GradTape()
        a = Tensor(np.ones((2, 2)), tape)
        out = add(a, a)
        with pytest.raises(ShapeError):
            tape.backward(out)

    def test_backward_frees_the_step_without_cyclic_gc(self):
        def step():
            tape = GradTape()
            x = Tensor(np.ones((3, 4)), tape)
            hidden = gelu(x)  # the first matmul's vjp captures hidden.value
            loss = matmul(matmul(Tensor(np.ones((1, 3))), hidden), Tensor(np.full((4, 1), 0.5)))
            tape.backward(loss)
            return tape, weakref.ref(hidden.value)

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            tape, captured = step()
            assert captured() is None
        finally:
            if was_enabled:
                gc.enable()
        assert len(tape) == 3  # still counts the ops recorded before the sweep

    def test_second_backward_on_a_swept_tape_raises(self):
        tape = GradTape()
        loss = sum_loss(Tensor(np.ones((2, 2)), tape))
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="already swept"):
            tape.backward(loss)


def test_gelu_value_and_slope_equal_the_written_formula_bitwise():
    tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
    edges = [0.0, tiny, 1e-310, 1e-3, 1.0, 30.0, 1e3]
    x = np.array(edges + [-v for v in edges])
    x = np.concatenate([x, np.random.default_rng(40).standard_normal(4000) * np.logspace(-3, 1.5, 4000)])
    want_value, want_slope = gelu_reference(x)
    for slope in (False, True):
        value, d = tk._gelu(x, slope)
        assert value.tobytes() == want_value.tobytes()
        assert d is None if not slope else d.tobytes() == want_slope.tobytes()


class TestTensorBasics:
    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Tensor(np.array([[np.inf, 0.0]]))

    def test_item_on_non_scalar(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2))).item()
