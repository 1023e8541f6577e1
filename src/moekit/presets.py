"""Named model configurations mirroring the published GPT-family sizes.

Each preset names a model description that the CLI's ``model.preset`` key
and the accounting tests look up. Expert variants put experts on every other
feed-forward layer; pyramid variants use more experts in the two deepest
routed layers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arch import MoeModelConfig, build_pr_moe, build_standard, dense_config

__all__ = ["ModelPreset", "PRESETS", "get_preset", "preset_names"]


@dataclass(frozen=True)
class ModelPreset:
    config: MoeModelConfig


def _pyramid(schedule_low: int, schedule_high: int, routed: int) -> tuple[int, ...]:
    # last two routed layers carry the wider expert pool
    return (schedule_low,) * (routed - 2) + (schedule_high, schedule_high)


def _build() -> dict[str, ModelPreset]:
    d350 = dense_config(num_layers=24, hidden=1024, heads=16)
    d1_3 = dense_config(num_layers=24, hidden=2048, heads=16)
    d6_7 = dense_config(num_layers=32, hidden=4096, heads=32)

    presets: dict[str, ModelPreset] = {
        "dense-350M": ModelPreset(d350),
        "dense-1.3B": ModelPreset(d1_3),
        "dense-6.7B": ModelPreset(d6_7),
        "350M+MoE-128": ModelPreset(build_standard(d350, 128)),
        "1.3B+MoE-128": ModelPreset(build_standard(d1_3, 128)),
        "350M+PR-MoE-32/64": ModelPreset(build_pr_moe(d350, _pyramid(32, 64, 12))),
        "1.3B+PR-MoE-64/128": ModelPreset(build_pr_moe(d1_3, _pyramid(64, 128, 12))),
    }

    # larger inference-oriented family (hidden widths and depths as deployed)
    presets["2.4B+MoE-128"] = ModelPreset(
        build_standard(dense_config(num_layers=16, hidden=3584, heads=28), 128)
    )
    presets["8B+MoE-128"] = ModelPreset(
        build_standard(dense_config(num_layers=30, hidden=4096, heads=32), 128)
    )
    presets["24B+MoE-128"] = ModelPreset(
        build_standard(dense_config(num_layers=40, hidden=8192, heads=64), 128)
    )
    presets["47B+MoE-128"] = ModelPreset(
        build_standard(dense_config(num_layers=58, hidden=8192, heads=64), 128)
    )
    return presets


PRESETS: dict[str, ModelPreset] = _build()


def preset_names() -> list[str]:
    return list(PRESETS)


def get_preset(name: str) -> ModelPreset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; known presets: {known}") from None
