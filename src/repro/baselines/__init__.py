"""Baseline systems the paper compares against (§2, §8).

Each baseline exposes the same estimator interface — ``latency(M, N)``,
``user_bandwidth(M, N)`` and ``user_compute(M, N)`` — calibrated against the
numbers the paper itself reports (the paper likewise compares against
extrapolated estimates for these systems, e.g. single-machine Pung runs
scaled to N servers).
"""

from repro.baselines.atom import AtomModel
from repro.baselines.common import BaselineEstimate, SystemModel
from repro.baselines.pung import PungModel
from repro.baselines.stadium import StadiumModel
from repro.baselines.xrd_model import XRDModel

__all__ = [
    "AtomModel",
    "BaselineEstimate",
    "PungModel",
    "StadiumModel",
    "SystemModel",
    "XRDModel",
]
