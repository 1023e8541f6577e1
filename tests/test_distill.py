"""Tests for student derivation and the staged distillation objective."""

import pickle

import numpy as np
import pytest

from moekit import tensor as tk
from moekit.arch import ValidationError, count_params
from moekit.distill import (
    KDConfig,
    SyntheticStream,
    ToyModel,
    ToyTrainConfig,
    TrainingError,
    derive_student,
    kd_objective,
    staged_vs_constant,
    train_toy,
)
from moekit.presets import get_preset
from moekit.tensor import GradTape, Tensor

# frozen toy-task calibration: with a noisy teacher and a strong blend weight,
# stopping the teacher term halfway reliably beats keeping it on
TOY_NOISE = 1.2
TOY_ALPHA = 2.0
TOY_STEPS = 200
TOY_BOUNDARY = 100


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def softmax_rows(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def ce_oracle(logits, labels):
    p = softmax_rows(logits)
    return -np.mean(np.log(p[np.arange(len(labels)), labels]))


def kl_oracle(p_logits, q_logits):
    p = softmax_rows(p_logits)
    q = softmax_rows(q_logits)
    return np.mean(np.sum(p * (np.log(p) - np.log(q)), axis=1))


def kd_oracle(student, teacher, labels, alpha, temperature=1.0):
    kl = kl_oracle(teacher / temperature, student / temperature)
    return ce_oracle(student, labels) + alpha * temperature**2 * kl


# ---------------------------------------------------------------------------
# student derivation
# ---------------------------------------------------------------------------


def test_student_hits_small_target():
    teacher = get_preset("350M+PR-MoE-32/64").config
    plan = derive_student(teacher, 21)
    total = count_params(plan.student).total
    assert abs(total - 3.5e9) / 3.5e9 < 0.10
    assert total == 3_541_668_224


def test_student_hits_large_target():
    teacher = get_preset("1.3B+PR-MoE-64/128").config
    plan = derive_student(teacher, 21)
    total = count_params(plan.student).total
    assert abs(total - 27e9) / 27e9 < 0.10
    assert total == 26_943_890_176


def test_default_policy_removes_shallow_blocks():
    teacher = get_preset("1.3B+PR-MoE-64/128").config
    plan = derive_student(teacher, 21)
    assert plan.removed_layers == (1, 2, 3)
    assert plan.student.num_layers == 21
    assert len(plan.student.layers) == 21


def test_widest_routed_layers_survive():
    teacher = get_preset("350M+PR-MoE-32/64").config
    plan = derive_student(teacher, 21)
    routed = [s.experts for s in plan.student.layers if s.kind == "moe"]
    assert routed[-2:] == [64, 64]
    assert routed == [32] * 8 + [64, 64]


def test_protected_layers_block_extreme_shrink():
    teacher = get_preset("350M+PR-MoE-32/64").config
    # depth 2 would have to delete one of the two protected routed layers
    with pytest.raises(ValidationError):
        derive_student(teacher, 2)


def test_target_depth_bounds():
    teacher = get_preset("350M+PR-MoE-32/64").config
    with pytest.raises(ValidationError):
        derive_student(teacher, 0)
    with pytest.raises(ValidationError):
        derive_student(teacher, 24)
    with pytest.raises(ValidationError):
        derive_student(teacher, 30)


@pytest.mark.parametrize("depth", [5.5, 21.0, True, "21", None])
def test_target_depth_must_be_an_int(depth):
    teacher = get_preset("350M+PR-MoE-32/64").config
    with pytest.raises(ValidationError, match="target depth"):
        derive_student(teacher, depth)


def test_student_keeps_teacher_dims():
    teacher = get_preset("1.3B+PR-MoE-64/128").config
    student = derive_student(teacher, 21).student
    assert student.hidden == teacher.hidden
    assert student.heads == teacher.heads
    assert student.vocab == teacher.vocab
    assert student.context == teacher.context


# ---------------------------------------------------------------------------
# objective values and schedule
# ---------------------------------------------------------------------------


def _random_case(seed, n=6, c=5):
    rng = np.random.default_rng(seed)
    student = rng.standard_normal((n, c))
    teacher = rng.standard_normal((n, c))
    labels = rng.integers(0, c, size=n)
    return student, teacher, labels


def test_blended_value_matches_oracle():
    s, t, labels = _random_case(0)
    cfg = KDConfig(alpha=0.7, stage_boundary=50)
    loss, ce_val, kd_val = kd_objective(Tensor(s), t, labels, cfg, step=0)
    assert loss.item() == pytest.approx(kd_oracle(s, t, labels, 0.7), rel=1e-12)
    assert ce_val == pytest.approx(ce_oracle(s, labels), rel=1e-12)
    assert kd_val == pytest.approx(0.7 * kl_oracle(t, s), rel=1e-12)


def test_temperature_scaling_matches_oracle():
    s, t, labels = _random_case(1)
    cfg = KDConfig(alpha=1.3, temperature=2.5)
    loss, _, _ = kd_objective(Tensor(s), t, labels, cfg, step=0)
    assert loss.item() == pytest.approx(
        kd_oracle(s, t, labels, 1.3, temperature=2.5), rel=1e-12
    )


def test_boundary_switches_to_pure_label_loss():
    s, t, labels = _random_case(2)
    cfg = KDConfig(alpha=1.0, stage_boundary=10)
    before, _, kd_before = kd_objective(Tensor(s), t, labels, cfg, step=9)
    after, _, kd_after = kd_objective(Tensor(s), t, labels, cfg, step=10)
    assert kd_before > 0.0
    assert kd_after == 0.0
    # past the boundary the loss is literally the label loss, same float
    assert after.item() == ce_oracle(s, labels) or after.item() == pytest.approx(
        ce_oracle(s, labels), rel=1e-15
    )
    assert before.item() > after.item()


def test_boundary_none_never_stops():
    s, t, labels = _random_case(3)
    cfg = KDConfig(alpha=1.0, stage_boundary=None)
    _, _, kd_val = kd_objective(Tensor(s), t, labels, cfg, step=10**6)
    assert kd_val > 0.0


def test_effective_alpha_schedule():
    cfg = KDConfig(alpha=0.5, stage_boundary=3)
    assert [cfg.effective_alpha(i) for i in range(5)] == [0.5, 0.5, 0.5, 0.0, 0.0]
    assert KDConfig(alpha=0.5).effective_alpha(10**9) == 0.5
    assert KDConfig(alpha=0.5, stage_boundary=0).effective_alpha(0) == 0.0


def test_loss_monotone_in_alpha():
    s, t, labels = _random_case(4)
    vals = [
        kd_objective(Tensor(s), t, labels, KDConfig(alpha=a), step=0)[0].item()
        for a in (0.0, 0.5, 1.0, 2.0)
    ]
    assert vals == sorted(vals)
    assert vals[0] < vals[-1]


def test_config_validation():
    with pytest.raises(ValidationError):
        KDConfig(alpha=-0.1)
    with pytest.raises(ValidationError):
        KDConfig(temperature=0.0)
    with pytest.raises(ValidationError):
        KDConfig(stage_boundary=-1)


@pytest.mark.parametrize(
    "field,value",
    [
        ("alpha", float("nan")),
        ("alpha", float("inf")),
        ("alpha", "1.0"),
        ("alpha", True),
        pytest.param("alpha", 10**400, id="alpha-int-past-float"),
        ("temperature", float("nan")),
        ("temperature", float("inf")),
        ("temperature", None),
        ("stage_boundary", 2.5),
        ("stage_boundary", True),
        ("stage_boundary", "3"),
    ],
)
def test_config_rejects_non_finite_or_mistyped_fields(field, value):
    with pytest.raises(ValidationError, match=field):
        KDConfig(**{field: value})


def test_config_accepts_numpy_scalars():
    cfg = KDConfig(alpha=np.float64(0.5), stage_boundary=np.int64(3), temperature=np.float32(2))
    assert cfg.effective_alpha(2) == 0.5 and cfg.effective_alpha(3) == 0.0


# ---------------------------------------------------------------------------
# objective gradients
# ---------------------------------------------------------------------------


def _fd_loss_grad(make_loss, leaf, h=1e-6):
    grad = np.zeros_like(leaf.value)
    it = np.nditer(leaf.value, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = leaf.value[idx]
        leaf.value[idx] = orig + h
        hi = make_loss()
        leaf.value[idx] = orig - h
        lo = make_loss()
        leaf.value[idx] = orig
        grad[idx] = (hi - lo) / (2 * h)
        it.iternext()
    return grad


@pytest.mark.parametrize("temperature", [1.0, 2.5])
def test_objective_gradient_matches_fd(temperature):
    s, t, labels = _random_case(5)
    cfg = KDConfig(alpha=0.9, temperature=temperature)
    tape = GradTape()
    leaf = Tensor(s.copy(), tape)
    loss, _, _ = kd_objective(leaf, t, labels, cfg, step=0)
    tape.backward(loss)
    fd = _fd_loss_grad(
        lambda: kd_objective(Tensor(leaf.value), t, labels, cfg, step=0)[0].item(),
        leaf,
    )
    assert np.max(np.abs(leaf.grad - fd)) < 1e-7


def test_post_boundary_gradient_is_label_only():
    s, t, labels = _random_case(6)
    cfg = KDConfig(alpha=5.0, stage_boundary=1)

    tape = GradTape()
    leaf = Tensor(s.copy(), tape)
    loss, _, _ = kd_objective(leaf, t, labels, cfg, step=1)
    tape.backward(loss)

    tape2 = GradTape()
    leaf2 = Tensor(s.copy(), tape2)
    tape2.backward(tk.cross_entropy(leaf2, labels))
    assert np.array_equal(leaf.grad, leaf2.grad)


def test_toy_model_gradient_matches_fd():
    # FD through routing is only valid while the argmax stays put, so check
    # the gate margins are comfortably wider than the probe step first
    stream = SyntheticStream(hidden=8, vocab=6, batch=8, seed=3, teacher_noise=0.5)
    model = ToyModel.create(hidden=8, vocab=6, experts=4, seed=3, capacity_factor=2.0)
    x, labels = stream.next_batch()
    t_logits = stream.teacher_logits(x)
    cfg = KDConfig(alpha=0.8)

    gate_logits = x @ model.layer_params[0].gate_w.value
    top2 = np.sort(gate_logits, axis=1)[:, -2:]
    assert np.min(top2[:, 1] - top2[:, 0]) > 1e-3

    def loss_value():
        return kd_objective(model.logits(x), t_logits, labels, cfg, step=0)[0].item()

    tape = GradTape()
    loss, _, _ = kd_objective(model.logits(x, tape), t_logits, labels, cfg, step=0)
    leaves = model.leaves()
    tk.reset_grads(leaves)
    tape.backward(loss)

    p = model.layer_params[0]
    for leaf in (model.head, p.experts[0].w1, p.gate_w):
        rng = np.random.default_rng(hash(id(leaf)) % 2**32)
        flat = rng.choice(leaf.value.size, size=min(5, leaf.value.size), replace=False)
        for f in flat:
            idx = np.unravel_index(f, leaf.value.shape)
            orig = leaf.value[idx]
            h = 1e-6
            leaf.value[idx] = orig + h
            hi = loss_value()
            leaf.value[idx] = orig - h
            lo = loss_value()
            leaf.value[idx] = orig
            fd = (hi - lo) / (2 * h)
            got = 0.0 if leaf.grad is None else leaf.grad[idx]
            assert abs(got - fd) < 1e-5, (leaf.value.shape, idx, got, fd)


# ---------------------------------------------------------------------------
# toy training loop
# ---------------------------------------------------------------------------


def _toy_run(seed, boundary, alpha=TOY_ALPHA, steps=TOY_STEPS, noise=TOY_NOISE):
    stream = SyntheticStream(hidden=16, vocab=16, batch=32, seed=seed, teacher_noise=noise)
    model = ToyModel.create(hidden=16, vocab=16, experts=4, seed=seed, capacity_factor=2.0)
    cfg = ToyTrainConfig(kd=KDConfig(alpha=alpha, stage_boundary=boundary), steps=steps)
    return train_toy(model, stream, cfg)


def test_training_is_deterministic():
    a = _toy_run(0, boundary=10, steps=20)
    b = _toy_run(0, boundary=10, steps=20)
    assert a.records == b.records
    assert a.final_heldout_ce.hex() == b.final_heldout_ce.hex()


def test_boundary_zero_equals_no_distillation():
    with_boundary = _toy_run(1, boundary=0, steps=25)
    no_kd = _toy_run(1, boundary=None, alpha=0.0, steps=25)
    assert with_boundary.records == no_kd.records
    assert with_boundary.final_heldout_ce.hex() == no_kd.final_heldout_ce.hex()


def test_kd_component_stops_at_boundary():
    res = _toy_run(2, boundary=10, steps=20)
    assert all(r.kd > 0.0 for r in res.records[:10])
    assert all(r.kd == 0.0 for r in res.records[10:])
    assert all(r.total == r.ce for r in res.records[10:])


def test_training_reduces_heldout_loss():
    res = _toy_run(3, boundary=TOY_BOUNDARY)
    # the held-out CE after the first step, as the full run's first step leaves it
    start = _toy_run(3, boundary=TOY_BOUNDARY, steps=1).final_heldout_ce
    assert res.final_heldout_ce < 0.5 * start


def test_divergence_raises_with_step():
    stream = SyntheticStream(hidden=16, vocab=16, batch=32, seed=0, teacher_noise=0.5)
    model = ToyModel.create(hidden=16, vocab=16, experts=4, seed=0, capacity_factor=2.0)
    cfg = ToyTrainConfig(kd=KDConfig(alpha=1.0), steps=50, lr=1e8)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError) as exc:
            train_toy(model, stream, cfg)
    assert exc.value.step >= 1


def test_non_finite_gate_logit_in_forward_raises_with_step():
    stream = SyntheticStream(hidden=16, vocab=16, batch=32, seed=0)
    model = ToyModel.create(hidden=16, vocab=16, experts=4, seed=0)
    model.layer_params[0].gate_w.value[3, 1] = np.nan
    with pytest.raises(TrainingError, match="forward pass") as exc:
        train_toy(model, stream, ToyTrainConfig(kd=KDConfig(), steps=5))
    assert exc.value.step == 0


def test_non_finite_gate_logit_in_heldout_eval_raises_with_step():
    # step 0's forward pass is finite; its update overflows the weights, so
    # the held-out eval that follows meets non-finite gate logits
    stream = SyntheticStream(hidden=16, vocab=16, batch=32, seed=0)
    model = ToyModel.create(hidden=16, vocab=16, experts=4, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match="held-out eval") as exc:
            train_toy(model, stream, ToyTrainConfig(kd=KDConfig(), steps=5, lr=1e308))
    assert exc.value.step == 0


@pytest.mark.parametrize("steps", [1, 5])
def test_heldout_eval_error_matches_on_the_last_step(steps):
    # steps=1: the update of step 0 breaks the one full eval after the last step;
    # steps=5: it breaks the gate-logit check that stands in for step 0's eval
    stream = SyntheticStream(hidden=16, vocab=16, batch=32, seed=0)
    model = ToyModel.create(hidden=16, vocab=16, experts=4, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError) as exc:
            train_toy(model, stream, ToyTrainConfig(kd=KDConfig(), steps=steps, lr=1e308))
    assert (exc.value.step, exc.value.message) == (
        0,
        "held-out eval: gate logits contain NaN or inf",
    )


def test_non_finite_teacher_logits_raise_with_step():
    # the teacher map overflows to inf, so the KD term meets non-finite teacher logits
    with np.errstate(over="ignore", invalid="ignore"):
        stream = SyntheticStream(hidden=16, vocab=16, batch=32, seed=0, teacher_noise=1e308)
        model = ToyModel.create(hidden=16, vocab=16, experts=4, seed=0)
        with pytest.raises(TrainingError, match="forward pass") as exc:
            train_toy(model, stream, ToyTrainConfig(kd=KDConfig(alpha=1.0), steps=5))
    assert exc.value.step == 0


def test_train_config_needs_a_step():
    with pytest.raises(ValidationError, match="steps"):
        ToyTrainConfig(kd=KDConfig(), steps=0)


@pytest.mark.parametrize("steps", [2.5, True, "3", None])
def test_train_config_needs_an_int_step_count(steps):
    with pytest.raises(ValidationError, match="steps"):
        ToyTrainConfig(kd=KDConfig(), steps=steps)


@pytest.mark.parametrize(
    "lr",
    [
        0.0,
        -0.05,
        float("nan"),
        float("inf"),
        float("-inf"),
        "0.05",
        True,
        pytest.param(10**400, id="int-past-float"),
    ],
)
def test_train_config_needs_a_positive_finite_lr(lr):
    with pytest.raises(ValidationError, match="lr"):
        ToyTrainConfig(kd=KDConfig(), lr=lr)


def test_training_error_survives_pickling():
    err = pickle.loads(pickle.dumps(TrainingError(3, "non-finite loss nan")))
    assert type(err) is TrainingError
    assert (err.step, err.message) == (3, "non-finite loss nan")
    assert str(err) == "step 3: non-finite loss nan"


def test_staged_schedule_beats_constant_blend(kd_final_ces):
    # the fixture trains _toy_run(seed, TOY_BOUNDARY) and _toy_run(seed, None), seeds 0-9
    wins = sum(staged < constant for staged, constant in kd_final_ces)
    assert wins >= 6


# ---------------------------------------------------------------------------
# staged vs constant
# ---------------------------------------------------------------------------

SHORT_STEPS = 20


def finals_bits(finals):
    return [(staged.hex(), constant.hex()) for staged, constant in finals]


def test_one_part_matches_separate_runs():
    finals = staged_vs_constant(range(2), steps=SHORT_STEPS, boundary=SHORT_STEPS // 2)
    want = [
        (
            _toy_run(seed, SHORT_STEPS // 2, steps=SHORT_STEPS).final_heldout_ce,
            _toy_run(seed, None, steps=SHORT_STEPS).final_heldout_ce,
        )
        for seed in range(2)
    ]
    assert finals_bits(finals) == finals_bits(want)


def test_earliest_failing_run_is_raised(fail_in_training):
    trained = []

    def fail(seed):
        trained.append(seed)
        if seed > 0:
            raise TrainingError(seed, f"forced failure of seed {seed}")

    fail_in_training(fail)
    with pytest.raises(TrainingError, match="step 1: forced failure of seed 1") as exc:
        staged_vs_constant(range(3), steps=SHORT_STEPS)
    assert exc.value.step == 1
    assert trained == [0, 0, 1]  # seed 0's two runs, then seed 1's staged run fails


@pytest.mark.parametrize(
    "boundary",
    [None, 0, 1, SHORT_STEPS // 2, SHORT_STEPS - 1, SHORT_STEPS, 3 * SHORT_STEPS],
)
def test_shared_steps_match_separate_runs(boundary):
    # the steps before the boundary are trained once and both runs branch from a copy
    finals = staged_vs_constant(range(2), steps=SHORT_STEPS, boundary=boundary)
    want = [
        (
            _toy_run(seed, boundary, steps=SHORT_STEPS).final_heldout_ce,
            _toy_run(seed, None, steps=SHORT_STEPS).final_heldout_ce,
        )
        for seed in range(2)
    ]
    assert finals_bits(finals) == finals_bits(want)


HELDOUT_OVERFLOW = (0, "held-out eval: gate logits contain NaN or inf")


@pytest.mark.parametrize(
    "boundary, want",
    [(0, (1, "non-finite loss nan")), (1, HELDOUT_OVERFLOW), (None, HELDOUT_OVERFLOW)],
)
def test_failure_raises_as_the_staged_run(boundary, want, fail_in_training):
    # lr=1e308: step 0's update overflows the weights. With the teacher term
    # on, the held-out gate logits overflow at once; boundary 1 or None shares
    # that step, boundary 0 fails in the staged run's own steps.
    stream = SyntheticStream(hidden=16, vocab=16, batch=32, seed=0, teacher_noise=TOY_NOISE)
    model = ToyModel.create(hidden=16, vocab=16, experts=4, seed=0, capacity_factor=2.0)
    cfg = ToyTrainConfig(
        kd=KDConfig(alpha=TOY_ALPHA, stage_boundary=boundary), steps=SHORT_STEPS, lr=1e308
    )
    branched = []
    fail_in_training(branched.append)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError) as staged_run:
            train_toy(model, stream, cfg)
        with pytest.raises(TrainingError) as exc:
            staged_vs_constant(range(2), steps=SHORT_STEPS, boundary=boundary, lr=1e308)
    assert (staged_run.value.step, staged_run.value.message) == want
    assert (exc.value.step, exc.value.message) == want
    assert branched == ([0] if boundary == 0 else [])  # the constant run never starts


@pytest.mark.parametrize(
    "kwargs",
    [
        {"boundary": -1},
        {"boundary": 2.5},
        {"boundary": True},
        {"boundary": "3"},
        {"steps": 0},
    ],
    ids=repr,
)
def test_bad_boundary_or_steps_rejected_before_training(kwargs):
    started = []

    def seeds():
        started.append(True)
        yield 0

    with pytest.raises(ValidationError):
        staged_vs_constant(seeds(), **kwargs)
    assert started == []


def test_branching_adds_nothing_to_the_toy_model_class(monkeypatch):
    # perfbench's tracer checks that the ToyModel class holds the same attributes
    # after a traced run as before; copying an instance would cache __slotnames__
    monkeypatch.delattr(ToyModel, "__slotnames__", raising=False)
    before = dict(vars(ToyModel))
    staged_vs_constant(range(1), steps=2, boundary=1)
    assert dict(vars(ToyModel)) == before
