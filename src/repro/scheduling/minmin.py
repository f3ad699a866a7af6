"""MIN-MIN and MIN-MINBUDG (Algorithm 3).

MIN-MIN [6], [14] repeatedly considers every *ready* task, computes its best
(smallest-EFT) host, and schedules the (task, host) pair with the global
minimum EFT. MIN-MINBUDG constrains each task's host choice by its budget
share ``B_T`` plus the shared ``pot`` (Algorithm 2). The baseline is the
infinite-budget special case. The loop itself is the batch-mode loop
MIN-MIN shares with MAX-MIN and SUFFERAGE
(:mod:`repro.scheduling.ready_set`); MIN-MIN's selection key is
``(EFT, cost)``.
"""

from __future__ import annotations

from .list_base import InfiniteBudgetScheduler
from .ready_set import _ReadySetBudgScheduler

__all__ = ["MinMinScheduler", "MinMinBudgScheduler"]


class MinMinBudgScheduler(_ReadySetBudgScheduler):
    """Budget-aware MIN-MIN (Algorithm 3)."""

    name = "minmin_budg"

    def _selection_key(self, row, best):
        """MIN-MIN key: the task's best EFT, then that host's cost."""
        return (best.eft, best.cost)


class MinMinScheduler(InfiniteBudgetScheduler):
    """Classical MIN-MIN: the infinite-budget special case of MIN-MINBUDG."""

    name = "minmin"
    budgeted = MinMinBudgScheduler
