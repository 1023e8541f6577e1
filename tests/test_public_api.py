"""Every module's ``__all__`` names only attributes it has, each once.

``from moekit.<module> import *`` and perfbench's tracer, which looks up
every entry with ``getattr``, both fail on an entry whose definition was
deleted.
"""

import importlib

import pytest

MODULES = ("tensor", "gating", "arch", "presets", "distill", "planner", "commsim", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_once(name):
    mod = importlib.import_module(f"moekit.{name}")
    for attr in mod.__all__:
        getattr(mod, attr)  # AttributeError names a stale entry
    assert sorted(set(mod.__all__)) == sorted(mod.__all__)
