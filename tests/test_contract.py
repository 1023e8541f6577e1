"""Input contract of the public entry points: a malformed argument raises the
module's own error type, never an AttributeError, a TypeError or numpy's
ValueError from deeper down.

Each row is (callable, positional args, error type). ``pytest.raises`` also
accepts a subclass, but no module's error type derives from another's, so a
row passes only on its own module's error.
"""

import math
import pickle

import numpy as np
import pytest

from moekit import arch, gating
from moekit.arch import ValidationError, build_standard, count_params, dense_config
from moekit.commsim import (
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
)
from moekit.planner import ClusterTopology, PlanError, memory_per_device, plan
from moekit.tensor import NonFiniteError, ShapeError, Tensor, cross_entropy

MODEL = build_standard(dense_config(num_layers=4, hidden=8, heads=2, vocab=16, context=8), 4)
TOPOLOGY = ClusterTopology(nodes=1, gpus_per_node=2)
STUDENT = Tensor(np.zeros((2, 3)))
TEACHER = np.ones((2, 3))
LABELS = np.array([0, 2])
NAN_TEACHER = np.array([[0.0, np.nan, 1.0], [0.0, 0.0, 0.0]])

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
    # None where a config, topology, plan or trace belongs
    pytest.param(plan, (None, TOPOLOGY), PlanError, id="plan-no-model"),
    pytest.param(plan, (MODEL, None), PlanError, id="plan-no-cluster"),
    pytest.param(plan, (MODEL, TOPOLOGY, False, "2"), PlanError, id="plan-tensor-slice-str"),
    pytest.param(memory_per_device, (None, MODEL), PlanError, id="memory-no-plan"),
    pytest.param(count_params, (None,), ValidationError, id="count-params-no-model"),
    pytest.param(derive_student, (None, 3), ValidationError, id="derive-student-no-teacher"),
    pytest.param(estimate_latency, (None, TOPOLOGY), ScheduleError, id="latency-no-trace"),
    # the routing config's own error
    pytest.param(gating.GatingConfig, (0,), ValidationError, id="gating-no-experts"),
    # a stack deeper than dense_config builds, refused before any layer is built
    pytest.param(dense_config, (10**20, 8, 2), ValidationError, id="dense-layers-10e20"),
    pytest.param(dense_config, (arch.MAX_LAYERS + 1, 8, 2), ValidationError, id="dense-layers-past-bound"),
    pytest.param(dense_config, (-1, 8, 2), ValidationError, id="dense-layers-negative"),
    pytest.param(dense_config, (2.0, 8, 2), ValidationError, id="dense-layers-float"),
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
    with pytest.raises(error):
        fn(*args)


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


def test_one_validation_error_class():
    assert arch.ValidationError is gating.ValidationError
    assert issubclass(gating.ValidationError, ValueError)
