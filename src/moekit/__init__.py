"""moekit: desk-scale mixture-of-experts systems toolkit.

Subpackages by capability:
  tensor   - float64 matrices + reverse-mode gradient tape
  gating   - top-k gating, sort-ranked dispatch tables, scatter/combine
  arch     - layer stacks, parameter and FLOP accounting, pyramid/residual builds
  distill  - staged knowledge distillation and depth-reduced students
  planner  - per-layer expert/data/tensor parallelism placement
  commsim  - deterministic all-to-all schedule simulator with cost models
  cli      - command-line front end over all of the above
"""

from __future__ import annotations

__version__ = "0.1.0"
