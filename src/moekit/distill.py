"""Staged knowledge distillation and depth-reduced student models.

Two ideas live here:

  * ``derive_student`` shrinks a teacher stack by removing whole blocks.
    It removes blocks from the shallow end of the stack, starting at the
    first routed layer, which trims the narrow stages of a pyramid schedule
    first and always preserves the two deepest routed layers (the widest
    ones).

  * ``kd_objective`` blends the usual label loss with a teacher-matching
    term:  CE(student, labels) + alpha_eff * KL(teacher || student).
    The blend weight follows a hard stage schedule: alpha before
    ``stage_boundary`` steps, exactly zero at and after it. Stopping the
    teacher term partway through training lets the student finish on the
    labels alone instead of inheriting the teacher's residual errors.

``train_toy`` runs the objective end to end on a synthetic classification
stream with a deliberately imperfect teacher, using the gradient tape for
optimization, and evaluates the student on a fixed held-out set once, after
the last step. It exists so schedule variants can be compared empirically:
``staged_vs_constant`` trains a staged and a constant-blend student per seed
(the runs behind ``moekit kd-demo``). The two runs agree up to the stage
boundary, so it trains those steps once and branches each run from a copy.
"""

from __future__ import annotations

import copy
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as tk
from .arch import (
    LayerSpec,
    MoeModelConfig,
    ValidationError,
    forward_layer,
    init_layer_params,
)
from .gating import GatingConfig, _is_finite, _is_int
from .tensor import GradTape, NonFiniteError, Tensor

__all__ = [
    "KDConfig",
    "StudentPlan",
    "TrainingError",
    "derive_student",
    "kd_objective",
    "SyntheticStream",
    "ToyModel",
    "ToyTrainConfig",
    "StepRecord",
    "train_toy",
    "staged_vs_constant",
]


class TrainingError(RuntimeError):
    """Raised when the toy optimizer hits a non-finite loss or activation."""

    def __init__(self, step: int, message: str):
        super().__init__(step, message)  # both in args, so copies of the error rebuild it
        self.step = step
        self.message = message

    def __str__(self) -> str:
        return f"step {self.step}: {self.message}"


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KDConfig:
    """Distillation blend: weight, hard stop boundary, softmax temperature.

    temperature rescales both logit sets before the KL term (with the
    customary T^2 correction); the default of 1.0 leaves logits untouched.
    """

    alpha: float = 1.0
    stage_boundary: int | None = None  # None: never stop
    temperature: float = 1.0

    def __post_init__(self) -> None:
        alpha, t, boundary = self.alpha, self.temperature, self.stage_boundary
        if not _is_finite(alpha) or alpha < 0:
            raise ValidationError(f"alpha must be finite and >= 0, got {alpha!r}")
        if not _is_finite(t) or t <= 0:
            raise ValidationError(f"temperature must be positive and finite, got {t!r}")
        if boundary is not None and (not _is_int(boundary) or boundary < 0):
            raise ValidationError(f"stage_boundary must be None or an int >= 0, got {boundary!r}")

    def effective_alpha(self, step: int) -> float:
        if self.stage_boundary is not None and step >= self.stage_boundary:
            return 0.0
        return self.alpha


def kd_objective(
    student_logits: Tensor,
    teacher_logits: np.ndarray,
    labels: np.ndarray,
    cfg: KDConfig,
    step: int,
) -> tuple[Tensor, float, float]:
    """Blended loss at a given step; returns (loss, ce_value, kd_value).

    The teacher term is skipped entirely (not just weighted by zero) once the
    stage boundary has passed, so the late-stage loss graph is exactly the
    label-only one.
    """
    ce = tk.cross_entropy(student_logits, labels)
    alpha = cfg.effective_alpha(step)
    if alpha == 0.0:
        return ce, ce.item(), 0.0
    t_vals = np.asarray(teacher_logits)
    t = cfg.temperature
    if t != 1.0:
        kl = tk.kl_divergence(Tensor(t_vals / t), tk.scale(student_logits, 1.0 / t))
        kd = tk.scale(kl, alpha * t * t)
    else:
        kd = tk.scale(tk.kl_divergence(Tensor(t_vals), student_logits), alpha)
    loss = tk.add(ce, kd)
    return loss, ce.item(), kd.item()


# ---------------------------------------------------------------------------
# student derivation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudentPlan:
    teacher: MoeModelConfig
    student: MoeModelConfig
    removed_layers: tuple[int, ...]  # teacher block indices, ascending


def derive_student(teacher: MoeModelConfig, target_depth: int) -> StudentPlan:
    """Drop whole blocks from the teacher stack until target_depth remains.

    Blocks are removed in stack order from the first routed layer (index 1),
    skipping the two deepest routed layers, so the shallowest routed layers
    and their dense neighbours go first. A target depth that would need a
    skipped layer removed raises ValidationError.
    """
    depth = teacher.num_layers
    if not _is_int(target_depth) or not 0 < target_depth < depth:
        raise ValidationError(
            f"target depth {target_depth!r} must be an int above 0 and below teacher depth {depth}"
        )
    removal = depth - target_depth
    protected = set(teacher.moe_layer_indices[-2:])  # keep the widest (deepest) routed layers
    candidates = [i for i in range(1, depth) if i not in protected]
    if removal > len(candidates):
        raise ValidationError("target depth removes protected layers")
    removed = tuple(candidates[:removal])

    kept = tuple(spec for i, spec in enumerate(teacher.layers) if i not in set(removed))
    student = replace(teacher, layers=kept)
    return StudentPlan(teacher=teacher, student=student, removed_layers=removed)


# ---------------------------------------------------------------------------
# synthetic task and toy models
# ---------------------------------------------------------------------------


@dataclass
class SyntheticStream:
    """Seeded classification stream with an imperfect teacher.

    Inputs are standard normal; true labels come from a hidden linear map.
    The teacher scores with a noisy copy of that map, so its soft labels are
    informative early but systematically wrong in the tail - matching them
    forever caps how well a student can fit the labels.
    """

    hidden: int
    vocab: int
    batch: int
    seed: int = 42
    teacher_noise: float = 0.8

    def __post_init__(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.true_map = rng.standard_normal((self.hidden, self.vocab))
        self.teacher_map = self.true_map + self.teacher_noise * rng.standard_normal(
            (self.hidden, self.vocab)
        )
        self._rng = np.random.default_rng(self.seed + 1)
        holdout_rng = np.random.default_rng(self.seed + 2)
        self.holdout_x = holdout_rng.standard_normal((4 * self.batch, self.hidden))
        self.holdout_labels = np.argmax(self.holdout_x @ self.true_map, axis=1)

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        x = self._rng.standard_normal((self.batch, self.hidden))
        return x, np.argmax(x @ self.true_map, axis=1)

    def teacher_logits(self, x: np.ndarray) -> np.ndarray:
        return x @ self.teacher_map


@dataclass
class ToyModel:
    """A small routed stack plus a classification head."""

    specs: tuple[LayerSpec, ...]
    layer_params: list
    head: Tensor

    @classmethod
    def create(
        cls,
        hidden: int,
        vocab: int,
        experts: int = 4,
        seed: int = 0,
        capacity_factor: float = 2.0,
    ) -> "ToyModel":
        """One top-1 routed layer plus the head (``specs`` and ``layer_params``
        hold one entry each; ``logits`` walks them as a stack)."""
        rng = np.random.default_rng(seed)
        spec = LayerSpec(
            kind="moe",
            hidden=hidden,
            experts=experts,
            gating=GatingConfig(num_experts=experts, k=1, capacity_factor=capacity_factor),
        )
        params = [init_layer_params(spec, rng, scale=0.3)]
        head = Tensor(rng.standard_normal((hidden, vocab)) * 0.3)
        return cls(specs=(spec,), layer_params=params, head=head)

    def leaves(self) -> list[Tensor]:
        out: list[Tensor] = []
        for p in self.layer_params:
            out.extend(p.leaves())
        out.append(self.head)
        return out

    def logits(self, x: np.ndarray, tape: GradTape | None = None) -> Tensor:
        h = Tensor(x, tape)
        for spec, params in zip(self.specs, self.layer_params):
            h = forward_layer(h, spec, params)
        return tk.matmul(h, self.head)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KDTrainResult:
    records: list["StepRecord"]
    final_heldout_ce: float  # after the last step


@dataclass(frozen=True)
class StepRecord:
    step: int
    ce: float
    kd: float
    total: float


@dataclass(frozen=True)
class ToyTrainConfig:
    kd: KDConfig
    steps: int = 200
    lr: float = 0.05

    def __post_init__(self) -> None:
        steps, lr = self.steps, self.lr
        if not _is_int(steps) or steps < 1:
            raise ValidationError(f"steps must be an int >= 1, got {steps!r}")
        if not _is_finite(lr) or lr <= 0:
            raise ValidationError(f"lr must be positive and finite, got {lr!r}")


def train_toy(
    student: ToyModel,
    stream: SyntheticStream,
    cfg: ToyTrainConfig,
) -> KDTrainResult:
    """Plain gradient descent on the blended objective.

    One batch per step; the stream's fixed held-out set is evaluated once,
    after the last update. Raises TrainingError with the failing step index if
    the loss stops being finite, or if a non-finite gate logit, activation or
    teacher logit is rejected in the forward pass or the held-out eval. Every
    earlier step checks the held-out gate logits too, so a step whose update
    breaks the held-out eval raises at that step.
    """
    records = _train_steps(student, stream, cfg, range(cfg.steps))
    return KDTrainResult(records=records, final_heldout_ce=_heldout_ce(student, stream, cfg))


def _train_steps(
    student: ToyModel, stream: SyntheticStream, cfg: ToyTrainConfig, steps: range
) -> list[StepRecord]:
    """``train_toy``'s updates for the given steps of a ``cfg.steps``-step run."""
    records: list[StepRecord] = []
    leaves = student.leaves()
    # the eval can only raise at the routed layer's gate logits (ToyModel.create
    # builds one routed layer), so that is what a skipped eval checks
    gate_w = student.layer_params[0].gate_w
    for step in steps:
        x, labels = stream.next_batch()
        tape = GradTape()
        try:
            logits = student.logits(x, tape)
            loss, ce_val, kd_val = kd_objective(
                logits, stream.teacher_logits(x), labels, cfg.kd, step
            )
        except NonFiniteError as e:
            raise TrainingError(step, f"forward pass: {e}") from e
        total = loss.item()
        if not np.isfinite(total):
            raise TrainingError(step, f"non-finite loss {total}")
        tk.reset_grads(leaves)
        tape.backward(loss)
        for leaf in leaves:
            if leaf.grad is not None:
                leaf.value -= cfg.lr * leaf.grad
        if step < cfg.steps - 1 and not np.isfinite(stream.holdout_x @ gate_w.value).all():
            raise TrainingError(step, "held-out eval: gate logits contain NaN or inf")
        records.append(StepRecord(step=step, ce=ce_val, kd=kd_val, total=total))
    return records


def _heldout_ce(student: ToyModel, stream: SyntheticStream, cfg: ToyTrainConfig) -> float:
    """CE on the stream's held-out set, as the last step of a ``cfg`` run leaves it."""
    try:
        heldout_logits = student.logits(stream.holdout_x)
    except NonFiniteError as e:
        raise TrainingError(cfg.steps - 1, f"held-out eval: {e}") from e
    return tk.cross_entropy(heldout_logits, stream.holdout_labels).item()


# ---------------------------------------------------------------------------
# staged vs constant
# ---------------------------------------------------------------------------


def _finish_run(
    model: ToyModel, stream: SyntheticStream, cfg: ToyTrainConfig, start: int
) -> float:
    """Train steps ``start .. cfg.steps - 1`` of a run, then its final held-out CE."""
    _train_steps(model, stream, cfg, range(start, cfg.steps))
    return _heldout_ce(model, stream, cfg)


def staged_vs_constant(
    seeds: Iterable[int],
    steps: int = 200,
    alpha: float = 2.0,
    boundary: int | None = 100,
    teacher_noise: float = 1.2,
    lr: float = 0.05,
) -> list[tuple[float, float]]:
    """(staged, constant) final held-out CE of the toy KD runs, one pair per seed.

    Each seed trains two students (hidden 16, vocab 16, batch 32, four
    experts, capacity factor 2.0) on its own ``SyntheticStream``: the staged
    run stops the teacher term at step ``boundary`` (None: never), the
    constant run never does. Before the boundary the two runs are the same
    computation, so the steps before ``min(boundary, steps)`` (every step when
    ``boundary`` is None) are trained once; the staged and constant runs each
    continue from a copy of that model and stream, staged run first. Each
    result is bitwise the one a separate ``train_toy`` run gives, and a
    failure raises at the step and in the run order that separate runs would.
    The defaults are ``moekit kd-demo``'s.
    """
    staged = ToyTrainConfig(kd=KDConfig(alpha, stage_boundary=boundary), steps=steps, lr=lr)
    constant = replace(staged, kd=KDConfig(alpha))
    shared = steps if boundary is None else min(boundary, steps)
    finals = []
    for seed in seeds:
        stream = SyntheticStream(
            hidden=16, vocab=16, batch=32, seed=seed, teacher_noise=teacher_noise
        )
        model = ToyModel.create(hidden=16, vocab=16, experts=4, seed=seed, capacity_factor=2.0)
        _train_steps(model, stream, staged, range(shared))
        # copy the leaves, not the ToyModel: deep-copying an instance caches
        # __slotnames__ on its class, which perfbench's tracer reports as a
        # binding it did not restore (the specs are frozen and shared)
        params, head, branch_stream = copy.deepcopy((model.layer_params, model.head, stream))
        branch = replace(model, layer_params=params, head=head)
        finals.append(
            (
                _finish_run(model, stream, staged, shared),
                _finish_run(branch, branch_stream, constant, shared),
            )
        )
    return finals
