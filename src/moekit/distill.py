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
optimization. It exists so schedule variants can be compared empirically:
``staged_vs_constant`` trains a staged and a constant-blend student per seed
(the runs behind ``moekit kd-demo``), spreading the independent runs over one
forked process per usable CPU.
"""

from __future__ import annotations

import numbers
import os
import pickle
import signal
import sys
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import gating
from . import tensor as tk
from .arch import (
    LayerSpec,
    MoeModelConfig,
    ValidationError,
    forward_layer,
    init_layer_params,
)
from .gating import GatingConfig
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
        # both in args, so the error survives the pickling that brings it back
        # from a forked training part
        super().__init__(step, message)
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
        if self.alpha < 0:
            raise ValidationError("alpha must be >= 0")
        if self.temperature <= 0:
            raise ValidationError("temperature must be positive")
        if self.stage_boundary is not None and self.stage_boundary < 0:
            raise ValidationError("stage_boundary must be >= 0")

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
    if not (0 < target_depth < depth):
        raise ValidationError(
            f"target depth {target_depth} must be positive and below teacher depth {depth}"
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

    @property
    def final_heldout_ce(self) -> float:
        return self.records[-1].heldout_ce


@dataclass(frozen=True)
class StepRecord:
    step: int
    ce: float
    kd: float
    total: float
    heldout_ce: float


@dataclass(frozen=True)
class ToyTrainConfig:
    kd: KDConfig
    steps: int = 200
    lr: float = 0.05

    def __post_init__(self) -> None:
        steps, lr = self.steps, self.lr
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
            raise ValidationError(f"steps must be an int >= 1, got {steps!r}")
        # the upper bound also rejects an int too large for a float
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real) or not (
            0 < lr <= sys.float_info.max
        ):
            raise ValidationError(f"lr must be positive and finite, got {lr!r}")


def train_toy(
    student: ToyModel,
    stream: SyntheticStream,
    cfg: ToyTrainConfig,
) -> KDTrainResult:
    """Plain gradient descent on the blended objective.

    One batch per step, evaluated against the stream's fixed held-out set
    after the update. Raises TrainingError with the failing step index if the
    loss stops being finite, or if a non-finite gate logit, activation or
    teacher logit is rejected in the forward pass or the held-out eval.
    """
    records: list[StepRecord] = []
    leaves = student.leaves()
    for step in range(cfg.steps):
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
        try:
            heldout_logits = student.logits(stream.holdout_x)
        except NonFiniteError as e:
            raise TrainingError(step, f"held-out eval: {e}") from e
        heldout = tk.cross_entropy(heldout_logits, stream.holdout_labels).item()
        records.append(
            StepRecord(step=step, ce=ce_val, kd=kd_val, total=total, heldout_ce=heldout)
        )
    return KDTrainResult(records=records)


# ---------------------------------------------------------------------------
# staged vs constant, one process per part
# ---------------------------------------------------------------------------

# staged_vs_constant splits its runs only when every part holds at least this
# many training steps. On a 2-vCPU VM a fork plus the pipe back cost about as
# much as 5 steps (one seed: 15.1 ms serial vs 15.3 ms split at 5 steps per
# run, medians of 21), and 20 steps per run split in 41 ms against 54 ms.
_MIN_PART_STEPS = 20


def staged_vs_constant(
    seeds: Iterable[int],
    steps: int = 200,
    alpha: float = 2.0,
    boundary: int | None = 100,
    teacher_noise: float = 1.2,
    lr: float = 0.05,
) -> list[tuple[float, float]]:
    """(staged, constant) final held-out CE of the toy KD runs, one pair per seed.

    Each seed trains two fresh students (hidden 16, vocab 16, batch 32, four
    experts, capacity factor 2.0) on its own ``SyntheticStream``: the staged
    run stops the teacher term at step ``boundary`` (None: never), the
    constant run never does. The defaults are ``moekit kd-demo``'s.

    The runs are independent, so they are cut into one contiguous part per
    usable CPU (``gating._WORKERS``), in run order: seed by seed, staged
    before constant. This process trains the first part and a forked child
    each other part; training is almost all interpreter time, so threads
    would serialise on the interpreter lock. A call splits only where
    ``os.fork`` exists and every part holds at least ``_MIN_PART_STEPS``
    steps. Each run does the same float operations in a child as here, so
    the results are bitwise equal to one process's.

    Raises the error of the earliest failing run in run order, as one loop
    over the runs would (a ``TrainingError`` when training diverges), and
    ``MemoryError`` when a child ends without sending its results, which is
    what the kernel's out-of-memory killer leaves.
    """
    staged = ToyTrainConfig(kd=KDConfig(alpha, stage_boundary=boundary), steps=steps, lr=lr)
    constant = replace(staged, kd=KDConfig(alpha))
    runs = [(seed, cfg) for seed in seeds for cfg in (staged, constant)]
    parts = 1
    if hasattr(os, "fork"):
        runs_per_part = -(-_MIN_PART_STEPS // steps)
        parts = max(1, min(gating._WORKERS, len(runs) // runs_per_part))
    cut = [runs[r] for r in gating._row_ranges(len(runs), parts)]
    finals = [ce for part in _run_forked(_train_runs, cut, teacher_noise) for ce in part]
    return list(zip(finals[::2], finals[1::2]))


def _train_runs(teacher_noise: float, runs: list) -> list[float]:
    """Final held-out CE of each (seed, config) run, in order."""
    finals = []
    for seed, cfg in runs:
        stream = SyntheticStream(
            hidden=16, vocab=16, batch=32, seed=seed, teacher_noise=teacher_noise
        )
        model = ToyModel.create(hidden=16, vocab=16, experts=4, seed=seed, capacity_factor=2.0)
        finals.append(train_toy(model, stream, cfg).final_heldout_ce)
    return finals


def _run_forked(fn, parts: list, *args) -> list:
    """fn(*args, part) for every part, the first in this process and each other
    in a child made with ``os.fork``. Returns the results in part order, or
    raises the error of the earliest failing part.

    Every child is reaped before this returns or raises. When this process's
    own part fails, its error comes first, so the children are killed instead
    of waited out.
    """
    children = []  # (pid, read end of the pipe the child answers on)
    try:
        for part in parts[1:]:
            children.append(_fork_part(fn, *args, part))
        results = [fn(*args, parts[0])]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        replies = [_wait_reply(pid, read) for pid, read in children]
    for pid, data, status in replies:
        try:
            ok, value = pickle.loads(data)
        except (pickle.UnpicklingError, EOFError):  # no reply, or a cut-off one
            ended = f"exited with status {status}" if status >= 0 else f"killed by signal {-status}"
            raise MemoryError(f"training process {pid} {ended} before sending its results")
        if not ok:
            raise value
        results.append(value)
    return results


def _fork_part(fn, *args) -> tuple[int, int]:
    """Fork a child that sends pickled (True, fn(*args)), or (False, the error
    it raised), down a pipe. Returns the child's pid and the pipe's read end."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    # the child leaves only through os._exit, so it runs none of the parent's
    # exit handlers and flushes none of the stdio buffers it copied
    code = 1
    try:
        os.close(read)
        try:
            reply = (True, fn(*args))
        except BaseException as e:  # sent to the parent, which raises it
            reply = (False, e)
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(reply))
        code = 0
    finally:
        os._exit(code)


def _wait_reply(pid: int, read: int) -> tuple[int, bytes, int]:
    """(pid, everything the child wrote to its pipe, its exit code), once the
    child has ended; the exit code is minus the signal that killed it."""
    with open(read, "rb") as pipe:
        data = pipe.read()
    return pid, data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
