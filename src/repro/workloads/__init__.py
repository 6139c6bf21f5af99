"""Workload generators.

* :mod:`repro.workloads.bimodal` -- bimodal positive-count draws for the
  Sec VI probabilistic model (Figs 9-11).
* :mod:`repro.workloads.scenarios` -- intrusion-detection scenario
  generation (sensing-disc detections plus false-positive noise) and the
  parameter sweeps the figure harness iterates over.
"""

from repro.workloads.bimodal import BimodalDraw, BimodalWorkload
from repro.workloads.scenarios import (
    IntrusionScenario,
    IntrusionField,
    x_sweep,
)

__all__ = [
    "BimodalDraw",
    "BimodalWorkload",
    "IntrusionField",
    "IntrusionScenario",
    "x_sweep",
]
