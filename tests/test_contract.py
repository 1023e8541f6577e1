"""Input contract of the public entry points: a malformed argument raises the
module's own error type, never an AttributeError, a TypeError or numpy's
ValueError from deeper down.

Each row is (callable, positional args, error type), and passes only on that
exact type: ``pytest.raises`` also accepts a subclass, and ``NonFiniteError``
is a ``ShapeError``.
"""

import ast
import importlib
import inspect
import math
import pickle
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moekit
from moekit import _contract, arch, cli, gating
from moekit.arch import (
    FfnParams,
    LayerSpec,
    MoeModelConfig,
    ValidationError,
    build_pr_moe,
    build_standard,
    count_flops_per_token,
    count_params,
    count_params_per_layer,
    dense_config,
    forward_ffn,
    forward_layer,
    init_layer_params,
    load_balance_loss,
)
from moekit.commsim import (
    CostModel,
    Item,
    ScheduleError,
    coordinated_all_to_all,
    estimate_latency,
    flat_all_to_all,
    hierarchical_all_to_all,
    synthetic_sends,
)
from moekit.distill import (
    KDConfig,
    SyntheticStream,
    ToyModel,
    ToyTrainConfig,
    derive_student,
    kd_objective,
    staged_vs_constant,
    train_toy,
)
from moekit.planner import ClusterTopology, LayerPlacement, LinkSpec, PlanError, memory_per_device, plan, validate
from moekit.tensor import GradTape, NonFiniteError, ShapeError, Tensor, add, cross_entropy, gelu, kd_loss

BASE = dense_config(num_layers=4, hidden=8, heads=2, vocab=16, context=8)
MODEL = build_standard(BASE, 4)
NO_LAYERS = dense_config(num_layers=0, hidden=8, heads=2)
TOPOLOGY = ClusterTopology(nodes=1, gpus_per_node=2)
STUDENT = Tensor(np.zeros((2, 3)))
TEACHER = np.ones((2, 3))
LABELS = np.array([0, 2])
NAN_TEACHER = np.array([[0.0, np.nan, 1.0], [0.0, 0.0, 0.0]])
GATE_CFG = gating.GatingConfig(1)
GATE = gating.top_k_gate(np.zeros((2, 1)), GATE_CFG)
DISPATCH = gating.build_dispatch_plan(GATE, GATE_CFG, 2)
FFN_4 = FfnParams(*(Tensor(np.zeros(shape)) for shape in ((4, 16), (1, 16), (16, 4), (1, 4))))
DENSE_4, MOE_4 = LayerSpec("dense", 4), LayerSpec("moe", 4, 1, gating=GATE_CFG)
MOE_PARAMS = init_layer_params(MOE_4, np.random.default_rng(0))
X_4 = Tensor(np.zeros((2, 4)))
TOY, STREAM, TRAIN = ToyModel.create(4, 4), SyntheticStream(4, 4, 2), ToyTrainConfig(KDConfig(), steps=1)

CASES = [
    # sizes numpy cannot address as one int64 array
    pytest.param(synthetic_sends, (2 * 10**18 * 8, 8), ScheduleError, id="sends-world-past-int64"),
    pytest.param(synthetic_sends, (2**63, 0), ScheduleError, id="sends-world-past-int64-no-items"),
    pytest.param(synthetic_sends, (4, 4 * 10**18), ScheduleError, id="sends-items-past-int64"),
    pytest.param(synthetic_sends, (4, 2 * 10**18), ScheduleError, id="sends-draw-past-array-size"),
    # a payload that is not per-rank lists, and a cost that is not a CostModel
    pytest.param(flat_all_to_all, ([5],), ScheduleError, id="flat-rank-int"),
    pytest.param(flat_all_to_all, ([None, []],), ScheduleError, id="flat-rank-none"),
    pytest.param(flat_all_to_all, ([iter([Item(0, 0, 0, 1)])],), ScheduleError, id="flat-rank-iterator"),
    pytest.param(coordinated_all_to_all, ([None, None], 2), ScheduleError, id="coordinated-ranks-none"),
    pytest.param(flat_all_to_all, (None,), ScheduleError, id="flat-sends-none"),
    pytest.param(hierarchical_all_to_all, (None, 1), ScheduleError, id="hierarchical-sends-none"),
    pytest.param(coordinated_all_to_all, (None, 1), ScheduleError, id="coordinated-sends-none"),
    pytest.param(flat_all_to_all, ([[]], 5), ScheduleError, id="flat-cost-int"),
    pytest.param(hierarchical_all_to_all, ([[]], 1, 5), ScheduleError, id="hierarchical-cost-int"),
    pytest.param(coordinated_all_to_all, ([[]], 1, 5), ScheduleError, id="coordinated-cost-int"),
    # a node size or tensor slice: an int >= 1 that divides the world
    pytest.param(hierarchical_all_to_all, ([[], []], 1.5), ScheduleError, id="hierarchical-gpus-float"),
    pytest.param(hierarchical_all_to_all, ([[], []], 0), ScheduleError, id="hierarchical-gpus-0"),
    pytest.param(coordinated_all_to_all, ([[], []], True), ScheduleError, id="coordinated-slice-bool"),
    # distillation stream, toy model and the kd-demo runs
    pytest.param(SyntheticStream, (0, 4, 2), ValidationError, id="stream-hidden-0"),
    pytest.param(SyntheticStream, (4, 0, 2), ValidationError, id="stream-vocab-0"),
    pytest.param(SyntheticStream, (4, 4, 2.5), ValidationError, id="stream-batch-float"),
    pytest.param(SyntheticStream, (4, 4, 2, -1), ValidationError, id="stream-seed-negative"),
    pytest.param(SyntheticStream, (4, 4, 2, 0, math.nan), ValidationError, id="stream-noise-nan"),
    pytest.param(SyntheticStream, (4, 4, 2, 0, -0.5), ValidationError, id="stream-noise-negative"),
    pytest.param(ToyModel.create, (4, 0), ValidationError, id="toy-vocab-0"),
    pytest.param(ToyModel.create, (4, 4, 4, -1), ValidationError, id="toy-seed-negative"),
    pytest.param(staged_vs_constant, ([-1],), ValidationError, id="kd-seed-negative"),
    pytest.param(staged_vs_constant, (["a"],), ValidationError, id="kd-seed-str"),
    pytest.param(staged_vs_constant, (5,), ValidationError, id="kd-seeds-int"),
    pytest.param(train_toy, (None, STREAM, TRAIN), ValidationError, id="train-no-model"),
    pytest.param(train_toy, (TOY, [], TRAIN), ValidationError, id="train-stream-list"),
    pytest.param(train_toy, (TOY, STREAM, KDConfig()), ValidationError, id="train-kd-config"),
    # None where a config, topology, plan or trace belongs
    pytest.param(plan, (None, TOPOLOGY), PlanError, id="plan-no-model"),
    pytest.param(plan, (MODEL, None), PlanError, id="plan-no-cluster"),
    pytest.param(ClusterTopology, (1, 2, None), PlanError, id="topology-intra-link-none"),
    pytest.param(ClusterTopology, (1, 2, LinkSpec(1e-6, 1e9), "x"), PlanError, id="topology-inter-link-str"),
    pytest.param(plan, (MODEL, TOPOLOGY, False, "2"), PlanError, id="plan-tensor-slice-str"),
    pytest.param(plan, (MODEL, TOPOLOGY, "no"), PlanError, id="plan-latency-mode-str"),
    pytest.param(memory_per_device, (None, MODEL), PlanError, id="memory-no-plan"),
    pytest.param(validate, (None,), PlanError, id="validate-no-plan"),
    pytest.param(init_layer_params, (None, np.random.default_rng(0)), ValidationError, id="init-no-spec"),
    pytest.param(GradTape().backward, (None,), ShapeError, id="backward-no-loss"),
    pytest.param(count_params, (None,), ValidationError, id="count-params-no-model"),
    pytest.param(derive_student, (None, 3), ValidationError, id="derive-student-no-teacher"),
    pytest.param(estimate_latency, (None, TOPOLOGY), ScheduleError, id="latency-no-trace"),
    # the routing config's own error
    pytest.param(gating.GatingConfig, (0,), ValidationError, id="gating-no-experts"),
    # a config, gate table, plan, spec or parameter record of another type
    pytest.param(LayerSpec, ("moe", 4, 1, False, "x"), ValidationError, id="layer-spec-gating-str"),
    pytest.param(gating.top_k_gate, (np.zeros((2, 1)), None), ValidationError, id="gate-no-config"),
    pytest.param(gating.build_dispatch_plan, (None, GATE_CFG, 2), ValidationError, id="plan-no-gates"),
    pytest.param(gating.build_dispatch_plan, (GATE, None, 2), ValidationError, id="plan-no-config"),
    pytest.param(gating.scatter_tokens, (np.zeros((2, 4)), None), ValidationError, id="scatter-no-plan"),
    pytest.param(
        gating.combine_tokens, (gating.ExpertBuffers(np.zeros((1, 2, 4))), None), ValidationError,
        id="combine-no-plan",
    ),
    pytest.param(load_balance_loss, (None, GATE.probs), ValidationError, id="balance-no-plan"),
    pytest.param(forward_layer, (np.zeros((2, 4)), DENSE_4, FFN_4), ValidationError, id="layer-ndarray-batch"),
    pytest.param(forward_layer, (X_4, None, FFN_4), ValidationError, id="layer-no-spec"),
    pytest.param(forward_layer, (X_4, DENSE_4, MOE_PARAMS), ValidationError, id="layer-dense-moe-params"),
    pytest.param(forward_layer, (X_4, MOE_4, FFN_4), ValidationError, id="layer-moe-ffn-params"),
    pytest.param(forward_ffn, (X_4, None), ValidationError, id="ffn-no-params"),
    pytest.param(kd_objective, (STUDENT, TEACHER, LABELS, None, 0), ValidationError, id="kd-no-config"),
    # arrays that are not real numbers: a complex one would lose its imaginary part
    pytest.param(Tensor, (np.array([[1 + 2j]]),), ShapeError, id="tensor-complex"),
    pytest.param(Tensor, ([["x"]],), ShapeError, id="tensor-str"),
    pytest.param(gelu, ("x",), ShapeError, id="gelu-str"),
    pytest.param(kd_loss, (STUDENT, TEACHER * 1j, LABELS, 1.0), ShapeError, id="kd-loss-teacher-complex"),
    pytest.param(load_balance_loss, (DISPATCH, GATE.probs * 1j), ShapeError, id="balance-probs-complex"),
    # ragged nested lists, which numpy refuses with a bare ValueError
    pytest.param(Tensor, ([[0.0], [1.0, 2.0]],), ShapeError, id="tensor-ragged"),
    pytest.param(gating.top_k_gate, ([[0.0], [1.0, 2.0]], GATE_CFG), ShapeError, id="gate-logits-ragged"),
    pytest.param(gating.scatter_tokens, ([[0.0], [1.0, 2.0]], DISPATCH), ShapeError, id="scatter-batch-ragged"),
    pytest.param(load_balance_loss, (DISPATCH, [[0.0], [1.0, 2.0]]), ShapeError, id="balance-probs-ragged"),
    pytest.param(cross_entropy, (Tensor(np.zeros((2, 3))), [[0], [1, 2]]), ShapeError, id="ce-labels-ragged"),
    # the blend weight and temperature of kd_loss, which kd_objective passes on
    pytest.param(kd_loss, (STUDENT, TEACHER, LABELS, math.nan), ShapeError, id="kd-loss-alpha-nan"),
    pytest.param(kd_loss, (STUDENT, TEACHER, LABELS, 1.0, 0.0), ShapeError, id="kd-loss-temperature-0"),
    pytest.param(kd_loss, (STUDENT, TEACHER, LABELS, 1.0, -1.0), ShapeError, id="kd-loss-temperature-negative"),
    # a stream whose held-out set is past numpy's array size
    pytest.param(SyntheticStream, (4, 4, 10**30), ValidationError, id="stream-batch-past-array-size"),
    pytest.param(ToyModel.create, (10**30, 4), ValidationError, id="toy-hidden-past-array-size"),
    # a stack deeper than dense_config builds, refused before any layer is built
    pytest.param(dense_config, (10**20, 8, 2), ValidationError, id="dense-layers-10e20"),
    pytest.param(dense_config, (arch.MAX_LAYERS + 1, 8, 2), ValidationError, id="dense-layers-past-bound"),
    pytest.param(dense_config, (-1, 8, 2), ValidationError, id="dense-layers-negative"),
    pytest.param(dense_config, (2.0, 8, 2), ValidationError, id="dense-layers-float"),
    # model sizes: ints >= 1, as the CLI's model table asks
    pytest.param(dense_config, (2, 8, 0), ValidationError, id="dense-heads-0"),
    pytest.param(dense_config, (2, 8, 2, -5), ValidationError, id="dense-vocab-negative"),
    pytest.param(dense_config, (2, 8, 2, 16, -3), ValidationError, id="dense-context-negative"),
    pytest.param(dense_config, (2, 8, 2, 16, None), ValidationError, id="dense-context-none"),
    pytest.param(dense_config, (0, 0, 2), ValidationError, id="dense-hidden-0-no-layers"),
    pytest.param(MoeModelConfig, (8, 2.0, 16, 8, ()), ValidationError, id="model-heads-float"),
    pytest.param(MoeModelConfig, (8, 2, 16, 8, (None,)), ValidationError, id="model-layer-none"),
    pytest.param(MoeModelConfig, (8, 2, 16, 8, 5), ValidationError, id="model-layers-int"),
    # the builders: a MoeModelConfig base and int expert counts >= 1
    pytest.param(build_standard, (BASE, "4"), ValidationError, id="standard-experts-str"),
    pytest.param(build_standard, (BASE, None), ValidationError, id="standard-experts-none"),
    pytest.param(build_standard, (dense_config(0, 8, 2), "4"), ValidationError, id="standard-experts-str-no-layers"),
    pytest.param(build_standard, (None, 4), ValidationError, id="standard-no-base"),
    pytest.param(build_pr_moe, (None, (1, 2)), ValidationError, id="pr-moe-no-base"),
    pytest.param(build_pr_moe, (BASE, (1, None)), ValidationError, id="pr-moe-entry-none"),
    pytest.param(build_pr_moe, (BASE, (2, "4")), ValidationError, id="pr-moe-entry-str"),
    pytest.param(build_pr_moe, (BASE, 5), ValidationError, id="pr-moe-schedule-int"),
    pytest.param(build_pr_moe, (BASE, (1, 2), "no"), ValidationError, id="pr-moe-residual-str"),
    # residual, k and capacity_factor, checked on a stack with no routed layer too
    pytest.param(build_pr_moe, (NO_LAYERS, (), "no"), ValidationError, id="pr-moe-residual-str-no-layers"),
    pytest.param(build_standard, (NO_LAYERS, 4, "x"), ValidationError, id="standard-k-str-no-layers"),
    pytest.param(build_standard, (NO_LAYERS, 4, 1, -1.0), ValidationError, id="standard-cf-negative-no-layers"),
    pytest.param(count_params_per_layer, (None,), ValidationError, id="per-layer-no-model"),
    pytest.param(count_flops_per_token, (None,), ValidationError, id="flops-no-model"),
    # a dispatch plan's token count, checked before the gate table
    pytest.param(gating.build_dispatch_plan, (GATE, GATE_CFG, 2.0), ValidationError, id="plan-tokens-float"),
    pytest.param(gating.build_dispatch_plan, (GATE, GATE_CFG, "2"), ValidationError, id="plan-tokens-str"),
    pytest.param(gating.build_dispatch_plan, (GATE, GATE_CFG, -1), ValidationError, id="plan-tokens-negative"),
    # an expert-parallel rank: an int in [0, ep_degree)
    pytest.param(LayerPlacement(1, 4, 2, 1).expert_block, ("1",), PlanError, id="expert-block-str"),
    pytest.param(LayerPlacement(1, 4, 2, 1).expert_block, (2,), PlanError, id="expert-block-past-degree"),
    # tape ops: operand shapes and finite values
    pytest.param(add, (np.zeros((2, 3)), np.zeros((2, 4))), ShapeError, id="add-shape"),
    pytest.param(gelu, (np.array([[0.0, np.nan]]),), NonFiniteError, id="gelu-nan"),
    pytest.param(forward_ffn, (Tensor(np.zeros((2, 3))), FFN_4), ShapeError, id="ffn-width"),
    pytest.param(kd_loss, (STUDENT, NAN_TEACHER, LABELS, 1.0), NonFiniteError, id="kd-loss-teacher-nan"),
    # a label outside the vocab
    pytest.param(cross_entropy, (Tensor(np.zeros((2, 3))), np.array([0, 3])), ShapeError, id="ce-label-past-vocab"),
    pytest.param(cross_entropy, (Tensor(np.zeros((2, 3))), np.array([-1, 0])), ShapeError, id="ce-label-negative"),
    # the blended distillation loss, at T = 1 and at T = 2
    *(
        pytest.param(kd_objective, args + (kd, 0), error, id=f"kd-{name}-t{kd.temperature:g}")
        for kd in (KDConfig(), KDConfig(temperature=2.0))
        for name, args, error in (
            ("teacher-nan", (STUDENT, NAN_TEACHER, LABELS), NonFiniteError),
            ("teacher-inf", (STUDENT, TEACHER * np.inf, LABELS), NonFiniteError),
            ("teacher-shape", (STUDENT, np.ones((2, 4)), LABELS), ShapeError),
            ("teacher-1d", (STUDENT, np.ones(3), LABELS), ShapeError),
            ("label-past-vocab", (STUDENT, TEACHER, np.array([0, 3])), ShapeError),
            ("label-negative", (STUDENT, TEACHER, np.array([-1, 0])), ShapeError),
            ("label-float", (STUDENT, TEACHER, np.array([0.0, 2.0])), ShapeError),
            ("empty-batch", (Tensor(np.zeros((0, 3))), np.ones((0, 3)), np.array([], int)), ShapeError),
        )
    ),
]


@pytest.mark.parametrize("fn, args, error", CASES)
def test_malformed_input_raises_module_error(fn, args, error):
    with pytest.raises(error) as exc:
        fn(*args)
    assert type(exc.value) is error


@pytest.mark.parametrize("temperature", [1.0, 2.0])
def test_kd_labels_are_checked_before_the_teacher(temperature):
    # a bad label and a NaN teacher: the label error, not NonFiniteError
    kd = KDConfig(temperature=temperature)
    with pytest.raises(ShapeError, match="labels must lie in") as exc:
        kd_objective(STUDENT, NAN_TEACHER, np.array([0, 3]), kd, 0)
    assert type(exc.value) is ShapeError


class Index:
    """An int only by the index protocol: no arithmetic, no comparisons."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


INT_TWINS = [
    pytest.param(lambda i: gating.GatingConfig(i(4)), id="gating-experts"),
    pytest.param(lambda i: gating.GatingConfig(4, k=i(1)), id="gating-k"),
    pytest.param(lambda i: arch.LayerSpec("dense", i(4)), id="layer-spec"),
    pytest.param(lambda i: dense_config(i(4), 8, 2), id="dense-config"),
    pytest.param(lambda i: dense_config(0, i(8), i(2), i(16), i(8)), id="model-sizes"),
    pytest.param(lambda i: gating.build_dispatch_plan(GATE, GATE_CFG, i(2)), id="plan-tokens"),
    pytest.param(lambda i: LayerPlacement(1, 4, 2, 1).expert_block(i(1)), id="expert-block"),
    pytest.param(lambda i: ClusterTopology(i(1), i(2)), id="topology"),
    pytest.param(lambda i: plan(MODEL, TOPOLOGY, tensor_slice=i(1)), id="plan-tensor-slice"),
    pytest.param(lambda i: synthetic_sends(i(2), 2), id="sends"),
    pytest.param(lambda i: hierarchical_all_to_all([[], []], i(2)), id="hierarchical"),
    pytest.param(lambda i: coordinated_all_to_all([[], []], i(2)), id="coordinated"),
    pytest.param(lambda i: SyntheticStream(i(4), 4, 2), id="stream"),
    pytest.param(lambda i: ToyModel.create(4, i(4)), id="toy-model"),
    pytest.param(lambda i: derive_student(MODEL, i(3)), id="derive-student"),
    pytest.param(lambda i: KDConfig(stage_boundary=i(2)), id="kd-boundary"),
    pytest.param(lambda i: ToyTrainConfig(KDConfig(), steps=i(3)), id="train-steps"),
]


@pytest.mark.parametrize("make", INT_TWINS)
def test_index_protocol_int_behaves_like_its_plain_int_twin(make):
    # pickled, an object shows every value it holds, so a kept Index differs from an int
    assert pickle.dumps(make(Index)) == pickle.dumps(make(int))


RULES = (
    "ValidationError", "_is_int", "_as_int", "_int_in", "_int_or_null", "_ints", "_is_finite", "_number_in",
    "_instance", "_one_of", "_real_array", "_divisor", "_array_size", "_checked", "_uint",
)


def test_one_validation_error_class():
    assert arch.ValidationError is gating.ValidationError is _contract.ValidationError
    assert issubclass(gating.ValidationError, ValueError)
    # a module binds each contract rule it uses from _contract, so a re-added copy fails here
    copies = []
    for info in pkgutil.iter_modules(moekit.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        mod = importlib.import_module(f"moekit.{info.name}")
        for rule in RULES:
            if getattr(mod, rule, getattr(_contract, rule)) is not getattr(_contract, rule):
                copies.append(f"{mod.__name__}.{rule}")
    assert copies == []


def test_finite_rule_is_named_only_by_the_number_rule():
    # every other site checks a number through _number_in, so its message has one form
    named = []
    for path in sorted(Path(moekit.__file__).parent.glob("*.py")):
        if path.name == "_contract.py":
            continue
        named += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if "_is_finite" in (getattr(node, "id", None), getattr(node, "attr", None))
        ]
    assert named == []


def test_every_cli_option_row_is_a_contract_rule():
    # a config value meets the rule a library call applies, so the CLI keeps no second copy
    rules = {getattr(_contract, name) for name in RULES if name not in ("ValidationError", "_checked")}
    tables = {name: table for name, table in vars(cli).items() if name.endswith("_TABLE")}
    assert len(tables) == 8  # config, model, cluster and one per verb that takes options
    bad = [
        f"{name}.{key}"
        for name, table in tables.items()
        for key, row in table.items()
        if not (isinstance(row, tuple) and len(row) >= 2 and row[0] in rules)
    ]
    assert bad == []


PLACEMENT = plan(MODEL, TOPOLOGY)

# Every number check in moekit: (call with the value, the name it reports, > 0 or >= 0, error)
NUMBER_SITES = [
    pytest.param(lambda v: gating.GatingConfig(2, 1, v), "capacity_factor", True, ValidationError, id="gating-cf"),
    pytest.param(lambda v: CostModel(c1=v), "c1", False, ScheduleError, id="cost-c1"),
    pytest.param(lambda v: CostModel(c2=v), "c2", False, ScheduleError, id="cost-c2"),
    pytest.param(lambda v: LinkSpec(v, 1e9), "latency_s", False, PlanError, id="link-latency"),
    pytest.param(lambda v: LinkSpec(1e-6, v), "bandwidth_bytes_per_s", True, PlanError, id="link-bandwidth"),
    pytest.param(lambda v: memory_per_device(PLACEMENT, MODEL, v), "bytes_per_param", True, PlanError, id="memory"),
    pytest.param(lambda v: KDConfig(alpha=v), "alpha", False, ValidationError, id="kd-alpha"),
    pytest.param(lambda v: KDConfig(temperature=v), "temperature", True, ValidationError, id="kd-temperature"),
    pytest.param(lambda v: SyntheticStream(4, 4, 2, 0, v), "teacher_noise", False, ValidationError, id="stream-noise"),
    pytest.param(lambda v: ToyTrainConfig(KDConfig(), lr=v), "lr", True, ValidationError, id="train-lr"),
    pytest.param(lambda v: kd_loss(STUDENT, TEACHER, LABELS, v), "alpha", False, ShapeError, id="kd-loss-alpha"),
    pytest.param(
        lambda v: kd_loss(STUDENT, TEACHER, LABELS, 1.0, v), "temperature", True, ShapeError, id="kd-loss-temperature"
    ),
]

# (value, passes as a number >= 0, passes as a number > 0)
NUMBER_EDGES = [
    pytest.param(0, True, False, id="0"),
    pytest.param(-0.0, True, False, id="minus-0.0"),
    pytest.param(-1e-300, False, False, id="minus-1e-300"),
    pytest.param(math.nan, False, False, id="nan"),
    pytest.param(math.inf, False, False, id="inf"),
    pytest.param(True, False, False, id="bool"),
    pytest.param("1", False, False, id="str"),
    pytest.param(None, False, False, id="none"),
    pytest.param(10**400, False, False, id="int-past-float"),
    pytest.param(np.float32(1), True, True, id="float32"),
]


@pytest.mark.parametrize("value, passes_ge0, passes_gt0", NUMBER_EDGES)
@pytest.mark.parametrize("make, name, positive, error", NUMBER_SITES)
def test_every_number_check_is_the_one_number_rule(make, name, positive, error, value, passes_ge0, passes_gt0):
    if passes_gt0 if positive else passes_ge0:
        make(value)
        return
    bound = "> 0" if positive else ">= 0"
    with pytest.raises(error, match=re.escape(f"{name} must be a finite number {bound}, got {value!r}")) as exc:
        make(value)
    assert type(exc.value) is error


# Every public name is accounted for: a row in CASES above, a malformed-input
# test in another file (ELSEWHERE), or a one-line reason it needs none (EXEMPT).
MODULES = ("tensor", "gating", "arch", "presets", "distill", "planner", "commsim", "cli")

ELSEWHERE = {
    "tensor.matmul": "test_tensor.py::TestMatmul::test_shape_mismatch",
    "presets.get_preset": "test_cli.py::test_params_unknown_preset_is_config_error",
    "distill.KDConfig": "test_distill.py::test_config_rejects_non_finite_or_mistyped_fields",
    "distill.ToyTrainConfig": "test_distill.py::test_train_config_needs_an_int_step_count",
    "planner.LinkSpec": "test_planner.py::test_link_needs_finite_numbers",
    "planner.ParallelPlan": "test_planner.py::test_validate_flags_bad_degree_product",
    "commsim.CostModel": "test_commsim.py::test_cost_model_needs_finite_numbers",
    "cli.main": "test_cli.py::test_malformed_config_is_config_error",
}

ERROR_CLASS = "an error class: raised, not called with data"
RESULT = "a result record, built by the function that checked its inputs"
EXEMPT = {
    **dict.fromkeys(
        ("tensor.ShapeError", "tensor.NonFiniteError", "gating.ValidationError", "gating.NonFiniteError",
         "arch.ValidationError", "distill.TrainingError", "planner.PlanError", "commsim.ScheduleError",
         "commsim.ReplicaMismatchError", "cli.ConfigError"),
        ERROR_CLASS,
    ),
    **dict.fromkeys(("gating.DROPPED", "arch.FFN_MULT", "arch.MAX_LAYERS", "presets.PRESETS"), "a constant"),
    **dict.fromkeys(
        ("gating.TopKGate", "gating.DispatchPlan", "gating.ExpertBuffers", "arch.ParamCount",
         "presets.ModelPreset", "distill.StudentPlan", "distill.StepRecord", "planner.MemoryEstimate",
         "commsim.CommTrace"),
        RESULT,
    ),
    **dict.fromkeys(("arch.FfnParams", "arch.MoeLayerParams"), "parameter records init_layer_params builds"),
    "tensor.reset_grads": "runs on every training step over the 17 leaves the library built; reads no value",
    "gating.OpCounter": "a plain counter the routing stages add their operation counts to",
    "gating.sparse_dispatch_oracle": "a reference path, fed the gate that the checked table path routes",
    "gating.sparse_combine_oracle": "a reference path, fed the gate that the checked table path routes",
    "presets.preset_names": "takes no arguments",
    "commsim.Item": "a named tuple of any values; every schedule checks each field it reads",
    "commsim.payload_multiset": "counts whatever items it is given, for conservation checks",
    "cli.entrypoint": "runs main on the process arguments",
}


def _row_target(fn):
    """The public object a CASES row calls: a bound method stands for its class."""
    owner = getattr(fn, "__self__", fn)
    return owner if isinstance(owner, type) or owner is fn else type(owner)


def _defined_tests(file: str) -> set[str]:
    """``file::test`` and ``file::Class::test`` for every test function a test file defines."""
    tree = ast.parse((Path(__file__).parent / file).read_text())
    found = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found.add(f"{file}::{node.name}")
        elif isinstance(node, ast.ClassDef):
            found.update(f"{file}::{node.name}::{f.name}" for f in node.body if isinstance(f, ast.FunctionDef))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_accounted_for(module):
    mod = importlib.import_module(f"moekit.{module}")
    targets = [_row_target(case.values[0]) for case in CASES]
    problems = []
    for name in mod.__all__:
        key, obj = f"{module}.{name}", getattr(mod, name)
        ways = [any(obj is t for t in targets), key in ELSEWHERE, key in EXEMPT]
        if ways.count(True) != 1:
            problems.append(f"{key}: row, elsewhere, exempt = {ways}")
        elif key in ELSEWHERE and ELSEWHERE[key] not in _defined_tests(ELSEWHERE[key].split("::")[0]):
            problems.append(f"{key}: no test {ELSEWHERE[key]}")
    assert problems == []


def test_account_tables_name_public_entries():
    public = {f"{m}.{name}" for m in MODULES for name in importlib.import_module(f"moekit.{m}").__all__}
    assert (ELSEWHERE.keys() | EXEMPT.keys()) - public == set()


# Every row of the CLI's option tables is one of two kinds. A key that feeds a library
# parameter (FEEDS, written out here) has that parameter's declared rule and args, and its
# default: the library's, or the CLI's own (OWN_DEFAULTS) only where the library has none.
# A link key's library default is its field of the topology's default link (the third
# entry). A key that no declaration fits is on CLI_ONLY, with the reason.
DEFAULT_TOPOLOGY = ClusterTopology(1, 1)
FEEDS = {
    "model hidden": (dense_config, "hidden"),
    "model heads": (dense_config, "heads"),
    "model vocab": (dense_config, "vocab"),
    "model context": (dense_config, "context"),
    "model experts": (build_standard, "num_experts"),
    "model expert_schedule": (build_pr_moe, "expert_schedule"),
    "model residual": (build_pr_moe, "residual"),
    "model k": (build_pr_moe, "k"),
    "model capacity_factor": (build_pr_moe, "capacity_factor"),
    "cluster nodes": (ClusterTopology, "nodes"),
    "cluster gpus_per_node": (ClusterTopology, "gpus_per_node"),
    "cluster intra_latency_s": (LinkSpec, "latency_s", DEFAULT_TOPOLOGY.intra_link),
    "cluster intra_bandwidth_bytes_per_s": (LinkSpec, "bandwidth_bytes_per_s", DEFAULT_TOPOLOGY.intra_link),
    "cluster inter_latency_s": (LinkSpec, "latency_s", DEFAULT_TOPOLOGY.inter_link),
    "cluster inter_bandwidth_bytes_per_s": (LinkSpec, "bandwidth_bytes_per_s", DEFAULT_TOPOLOGY.inter_link),
    "route-bench tokens": (gating.build_dispatch_plan, "num_tokens"),
    "route-bench experts": (gating.GatingConfig, "num_experts"),
    "route-bench k": (gating.GatingConfig, "k"),
    "route-bench capacity_factor": (gating.GatingConfig, "capacity_factor"),
    "simulate tokens_per_rank": (synthetic_sends, "per_rank"),
    "simulate nbytes": (synthetic_sends, "nbytes"),
    "simulate c1": (CostModel, "c1"),
    "simulate c2": (CostModel, "c2"),
    "plan latency_mode": (plan, "latency_mode"),
    "plan bytes_per_param": (memory_per_device, "bytes_per_param"),
    "kd-demo steps": (staged_vs_constant, "steps"),
    "kd-demo alpha": (staged_vs_constant, "alpha"),
    "kd-demo teacher_noise": (staged_vs_constant, "teacher_noise"),
    "kd-demo lr": (staged_vs_constant, "lr"),
}

OWN_DEFAULTS = {
    "model hidden": 1024,
    "model heads": 16,
    "model experts": None,  # no experts and no schedule: a dense model
    "model expert_schedule": None,
    "cluster nodes": 16,
    "cluster gpus_per_node": 8,
    "route-bench tokens": 256,
    "route-bench experts": 8,
    "simulate tokens_per_rank": 8,
}

CLI_ONLY = {
    **dict.fromkeys(("config model", "config cluster", "config options"), "a config section"),
    "config seed": "the run's seed, which --seed also sets",
    "model preset": "a preset name, which the CLI looks up",
    "route-bench instances": "how many seeded batches route-bench draws",
    "simulate schedule": "which schedules simulate runs",
    "simulate emit": "summary rows or one schedule's event trace",
    "kd-demo seeds": "how many seeds, from --seed on, kd-demo runs",
    "model num_layers": "the CLI refuses 0, which dense_config allows, and the fuzz SPEC expects exit 2",
    "distill target_depth": "its upper bound is the teacher's depth",
    **dict.fromkeys(
        ("simulate tensor_slice", "plan tensor_slice"), "the call checks it as a divisor, with exit 3"
    ),
    "kd-demo boundary": "its default is steps // 2",
}


def _library_default(owner, name):
    return inspect.signature(owner).parameters[name].default


def test_every_cli_row_reads_its_library_declaration():
    tables = [("config", cli.CONFIG_TABLE), ("model", cli.MODEL_TABLE), ("cluster", cli.CLUSTER_TABLE)]
    tables += [(verb, table) for verb, (_, table) in cli._VERBS.items()]
    assert len(tables) == 9  # config, model, cluster and one per verb
    rows = {f"{where} {key}": row for where, table in tables for key, row in table.items()}
    assert not FEEDS.keys() & CLI_ONLY.keys()
    assert rows.keys() == FEEDS.keys() | CLI_ONLY.keys()
    for label, (owner, name, *link) in FEEDS.items():
        rule, default, *args = rows[label]
        assert (rule, *args) == owner._declared[name], label
        want = getattr(link[0], name) if link else _library_default(owner, name)
        if want is inspect.Parameter.empty:
            want = OWN_DEFAULTS[label]
        else:
            assert label not in OWN_DEFAULTS, label
        assert (type(default), default) == (type(want), want), label
    # CLI-only rows still read what the library has: plan's tensor_slice default, boundary's rule
    assert rows["plan tensor_slice"][1] == _library_default(plan, "tensor_slice")
    rule, _, *args = rows["kd-demo boundary"]
    assert (rule, *args) == staged_vs_constant._declared["boundary"]


# A valid call of every owner of declared rules; the property below changes one argument.
VALID_CALLS = {
    gating.GatingConfig: dict(num_experts=2),
    gating.build_dispatch_plan: dict(gates=GATE, cfg=GATE_CFG, num_tokens=2),
    LayerSpec: dict(kind="dense", hidden=4),
    MoeModelConfig: dict(hidden=8, heads=2, vocab=16, context=8, layers=()),
    dense_config: dict(num_layers=2, hidden=8, heads=2),
    build_standard: dict(base=BASE, num_experts=4),
    build_pr_moe: dict(base=BASE, expert_schedule=(2, 4)),
    KDConfig: {},
    SyntheticStream: dict(hidden=4, vocab=4, batch=2),
    ToyTrainConfig: dict(kd=KDConfig()),
    staged_vs_constant: dict(seeds=[]),
    LinkSpec: dict(latency_s=1e-6, bandwidth_bytes_per_s=1e9),
    ClusterTopology: dict(nodes=1, gpus_per_node=2),
    plan: dict(cfg=MODEL, cluster=TOPOLOGY),
    memory_per_device: dict(built=PLACEMENT, cfg=MODEL),
    CostModel: {},
    synthetic_sends: dict(world=2, per_rank=2),
}
MODULE_ERROR = {
    "moekit.gating": ValidationError,
    "moekit.arch": ValidationError,
    "moekit.distill": ValidationError,
    "moekit.planner": PlanError,
    "moekit.commsim": ScheduleError,
}
DECLARED = [(owner, name) for owner in VALID_CALLS for name in getattr(owner, "_declared", ())]


def test_valid_calls_cover_every_declaration():
    owners = set()
    for module in MODULES:
        mod = importlib.import_module(f"moekit.{module}")
        owners |= {v for v in vars(mod).values() if hasattr(v, "_declared") and v.__module__ == mod.__name__}
    assert owners == set(VALID_CALLS)  # a new declaration needs a valid call here
    for owner, kwargs in VALID_CALLS.items():
        owner(**kwargs)


def outside(rule, *args):
    """Values just outside a declared rule: the low bound minus 1, the high bound plus 1,
    a bool, NaN, a str and None, less those the rule takes (None for an int-or-null, a
    value of the type for a type rule)."""
    others = [True, math.nan, "x", None]
    if rule is _contract._int_in:
        low, high = (*args, None)[:2]
        near = [st.just(low - 1), st.integers(max_value=low - 1)]
        near += [] if high is None else [st.just(high + 1), st.integers(min_value=high + 1)]
    elif rule is _contract._int_or_null:
        near, others = [st.integers(max_value=args[0] - 1)], others[:-1]
    elif rule is _contract._number_in:
        near = [st.sampled_from([-1, 0] if args and args[0] else [-1])]
    elif rule is _contract._ints:
        near = [st.builds(lambda v: [v], st.integers(max_value=args[0] - 1))]
    else:
        assert rule in (_contract._instance, _contract._one_of), rule
        near = []
        if rule is _contract._instance:
            others = [v for v in others if not isinstance(v, args[0])]
    return st.one_of(*near, st.sampled_from(others))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_every_declared_parameter_refuses_values_outside_its_rule(data):
    owner, name = data.draw(st.sampled_from(DECLARED))
    value = data.draw(outside(*owner._declared[name]))
    error = MODULE_ERROR[owner.__module__]
    with pytest.raises(error) as exc:
        owner(**{**VALID_CALLS[owner], name: value})
    assert type(exc.value) is error
