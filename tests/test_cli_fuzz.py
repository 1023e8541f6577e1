"""Property tests for the CLI's config checks.

One malformed value in any config section exits 2 with ``config error:``, and
no drawn config, malformed or not, exits with anything but 0, 2, 3 or 4.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from moekit.cli import main

# The documented kind and lower bound of every config key, written out here
# rather than read from cli.py so that the tables there are checked against it.
# ("int", lo): an int >= lo, bools rejected; ("int|null", lo): that or null;
# ("num", ">0" or ">=0"): a finite number; ("one of", values); "bool", "str",
# "ints" (a list of ints >= 1) and "object".
SPEC = {
    "config": {"seed": ("int", 0), "model": "object", "cluster": "object", "options": "object"},
    "model": {
        "preset": "str",
        "num_layers": ("int", 1),
        "hidden": ("int", 1),
        "heads": ("int", 1),
        "vocab": ("int", 1),
        "context": ("int", 1),
        "experts": ("int", 1),
        "expert_schedule": "ints",
        "residual": "bool",
        "k": ("one of", (1, 2)),
        "capacity_factor": ("num", ">0"),
    },
    "cluster": {
        "nodes": ("int", 1),
        "gpus_per_node": ("int", 1),
        "intra_latency_s": ("num", ">=0"),
        "intra_bandwidth_bytes_per_s": ("num", ">0"),
        "inter_latency_s": ("num", ">=0"),
        "inter_bandwidth_bytes_per_s": ("num", ">0"),
    },
    "params": {},
    "route-bench": {
        "tokens": ("int", 0),
        "experts": ("int", 1),
        "k": ("one of", (1, 2)),
        "capacity_factor": ("num", ">0"),
        "instances": ("int", 0),
    },
    "simulate": {
        "schedule": ("one of", ("flat", "hierarchical", "coordinated", "all")),
        "tensor_slice": ("int", 1),
        "tokens_per_rank": ("int", 0),
        "nbytes": ("int", 0),
        "c1": ("num", ">=0"),
        "c2": ("num", ">=0"),
        "emit": ("one of", ("summary", "trace")),
    },
    "plan": {
        "latency_mode": "bool",
        "tensor_slice": ("int", 1),
        "bytes_per_param": ("num", ">0"),
    },
    "distill": {"target_depth": ("int", 1)},
    "kd-demo": {
        "seeds": ("int", 0),
        "steps": ("int", 1),
        "alpha": ("num", ">=0"),
        "boundary": ("int|null", 0),
        "teacher_noise": ("num", ">=0"),
        "lr": ("num", ">0"),
    },
}
VERBS = ("params", "route-bench", "simulate", "plan", "distill", "kd-demo")

# A small valid config per verb; each case changes it in one or more keys.
SMALL_CLUSTER = {"nodes": 2, "gpus_per_node": 2}
BASE = {
    "params": {},
    "route-bench": {"options": {"tokens": 16, "instances": 1}},
    "simulate": {"cluster": SMALL_CLUSTER, "options": {"tokens_per_rank": 2}},
    "plan": {"model": {"preset": "1.3B+MoE-128"}, "cluster": SMALL_CLUSTER},
    "distill": {"model": {"preset": "1.3B+PR-MoE-64/128"}},
    "kd-demo": {"options": {"seeds": 1, "steps": 2}},
}

TEXT = st.text(max_size=4)
JUNK = st.one_of(
    st.none(),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


def malformed(kind):
    """Values that do not fit ``kind``: other types, NaN/inf, or below the bound."""
    if kind == "object":
        not_dicts = st.lists(st.integers(), max_size=2)
        return st.one_of(TEXT, st.integers(), st.floats(), st.booleans(), st.none(), not_dicts)
    if kind == "str":
        return st.one_of(st.integers(), st.floats(), st.booleans(), JUNK)
    if kind == "bool":
        return st.one_of(TEXT, st.integers(), st.floats(), JUNK)
    if kind == "ints":
        bad_entry = st.one_of(TEXT, st.floats(), st.booleans(), st.none(), st.integers(max_value=0))
        # twelve entries, as the default 24-layer stack needs, so only one entry is wrong
        bad_list = st.builds(lambda bad: [8] * 11 + [bad], bad_entry)
        return st.one_of(TEXT, st.integers(), st.floats(), st.booleans(), st.none(), bad_list)
    name, arg = kind
    if name == "int|null":
        below = [st.just(arg - 1), st.integers(max_value=arg - 1)]
        return st.one_of(TEXT, st.floats(), st.booleans(), st.lists(st.integers(), max_size=2), *below)
    if name == "one of":
        return st.one_of(
            TEXT.filter(lambda v: v not in arg),
            st.integers().filter(lambda v: v not in arg),
            st.floats(),
            st.booleans(),
            JUNK,
        )
    if name == "int":
        below = [st.just(arg - 1), st.integers(max_value=arg - 1)]
        return st.one_of(TEXT, st.floats(), st.booleans(), JUNK, *below)
    if arg == ">0":
        below = [st.sampled_from([0, 0.0, -0.0]), st.floats(max_value=0.0)]
    else:
        below = [st.sampled_from([-1, -5e-324]), st.floats(max_value=-1e-300)]
    return st.one_of(
        TEXT,
        st.booleans(),
        JUNK,
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.just(10**400),  # an int past the largest float
        st.integers(max_value=0 if arg == ">0" else -1),
        *below,
    )


def valid(key, kind):
    """Small valid values: the work each verb does grows with sizes and counts."""
    if kind == "bool":
        return st.booleans()
    if kind == "str":
        return st.sampled_from(["1.3B+MoE-128", "dense-350M", "nonesuch"])
    if kind == "ints":
        return st.lists(st.integers(1, 8), max_size=13)
    name, arg = kind
    if name == "int|null":
        return st.one_of(st.none(), st.integers(arg, 3))
    if name == "one of":
        return st.sampled_from(arg)
    if name == "int":
        return st.integers(arg, 3)
    low = 5e-324 if arg == ">0" else 0.0
    return st.one_of(st.integers(1, 3), st.floats(low, 1e308))


def set_value(config, verb, section, key, value):
    """Set ``key`` of ``section`` in ``config``; the verb's own section is "options"."""
    if section == "config":
        config[key] = value
    else:
        config.setdefault("options" if section == verb else section, {})[key] = value


def run(verb, config):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "cfg.json")
        with open(path, "w") as f:
            json.dump(config, f)  # NaN and inf go out as JSON's NaN/Infinity extension
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with np.errstate(all="ignore"):
                code = main([verb, "--config", path])
    return code, err.getvalue()


# (verb that reads the section, section, key)
KEYS = (
    [("params", "config", key) for key in SPEC["config"]]
    + [("params", "model", key) for key in SPEC["model"]]
    + [("simulate", "cluster", key) for key in SPEC["cluster"]]
    + [(verb, verb, key) for verb in VERBS for key in SPEC[verb]]
)


@st.composite
def one_malformed_key(draw):
    verb, section, key = draw(st.sampled_from(KEYS))
    config = copy.deepcopy(BASE[verb])
    set_value(config, verb, section, key, draw(malformed(SPEC[section][key])))
    return verb, config


@settings(max_examples=200, deadline=None)
@given(one_malformed_key())
def test_one_malformed_value_is_config_error(case):
    verb, config = case
    code, err = run(verb, config)
    assert code == 2, (config, err)
    assert "config error:" in err


@st.composite
def any_config(draw):
    verb = draw(st.sampled_from(VERBS))
    config = copy.deepcopy(BASE[verb])
    sections = [verb]
    if draw(st.booleans()):
        config["model"] = {}  # a spelled-out model, in place of any preset
        sections.append("model")
    if draw(st.booleans()):
        sections.append("cluster")
    if draw(st.booleans()):
        sections.append("config")  # last: a malformed section replaces what was drawn into it
    for section in sections:
        for key, kind in SPEC[section].items():
            choice = draw(st.sampled_from(["keep", "keep", "valid", "malformed"]))
            if choice == "malformed":
                set_value(config, verb, section, key, draw(malformed(kind)))
            elif choice == "valid" and kind != "object":  # sections are drawn key by key above
                set_value(config, verb, section, key, draw(valid(key, kind)))
    return verb, config


@settings(max_examples=150, deadline=None)
@given(any_config())
def test_no_config_exits_with_a_traceback(case):
    verb, config = case
    code, err = run(verb, config)
    assert code in (0, 2, 3, 4), (config, err)
