"""Experiment configuration objects.

The paper's full protocol (§V-A) is 3 families × 5 instances × sizes
{30, 60, 90} × 4 sigma ratios × ~11 budgets × 25 repetitions. Configs make
that declarative and let tests/benches run a scaled-down version of the
*same* pipeline; :meth:`ExperimentConfig.paper_scale` reproduces the paper's
numbers, :meth:`ExperimentConfig.smoke` keeps CI fast.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from ..platform.cloud import PAPER_PLATFORM, CloudPlatform

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one sweep.

    ``budgets_per_workflow`` points are placed between each workflow's own
    ``B_min`` and high budget (the paper's budget axis is per-workflow too —
    its x axes differ between subfigures).
    """

    families: Tuple[str, ...] = ("cybershake", "ligo", "montage")
    n_tasks: int = 90
    n_instances: int = 5
    sigma_ratio: float = 0.5
    budgets_per_workflow: int = 8
    n_reps: int = 25
    seed: int = 2018
    platform: CloudPlatform = PAPER_PLATFORM
    algorithms: Tuple[str, ...] = (
        "minmin", "heft", "minmin_budg", "heft_budg",
    )

    @classmethod
    def paper_scale(cls, **overrides) -> "ExperimentConfig":
        """The §V-A protocol (minutes of CPU per figure)."""
        return replace(cls(), **overrides)

    @classmethod
    def smoke(cls, **overrides) -> "ExperimentConfig":
        """Down-scaled sweep for tests and quick looks (seconds of CPU)."""
        base = cls(
            n_tasks=30,
            n_instances=2,
            budgets_per_workflow=4,
            n_reps=5,
        )
        return replace(base, **overrides)
