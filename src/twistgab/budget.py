"""Enumeration budgets.

Every brute-force routine checks its workload against a cap before starting.
Exceeding a cap raises :class:`~twistgab.errors.BudgetExceededError` instead of
silently sampling.  Caps can be overridden per call, via :class:`Budgets`, or
globally through the ``TWISTGAB_BUDGET_*`` environment variables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import BudgetExceededError

DEFAULT_SUBSPACES = 1 << 24
DEFAULT_CODEWORDS = 1 << 24
DEFAULT_AMBIENT = 1 << 24


@dataclass(frozen=True)
class Budgets:
    """Caps for the three enumeration axes.

    subspaces: RREF representatives / column subsets visited by structural checks.
               It is shared: the same cap also bounds the k-subset count of
               every ``KSubsetTable`` (the table behind ``omega_one``,
               ``omega_one_prime``, ``omega_witness``, ``omega_two_materialize``
               and the Hamming route), the k- plus (k+1)-subset count of
               ``hamming_class``, the eta-pair count of
               ``omega_two_materialize`` and the tuple count of
               ``sum_product_free_test``; each count is checked on its own.
    codewords: message classes visited by distance enumeration.
    ambient:   full-space vectors visited by covering-radius scans.
    """

    subspaces: int = DEFAULT_SUBSPACES
    codewords: int = DEFAULT_CODEWORDS
    ambient: int = DEFAULT_AMBIENT

    def __post_init__(self):
        for name in ("subspaces", "codewords", "ambient"):
            if getattr(self, name) < 1:
                raise ValueError(f"budget {name!r} must be positive")


def default_budgets() -> Budgets:
    """Budgets from the environment (``TWISTGAB_BUDGET_SUBSPACES`` etc.)."""
    def _env(name, fallback):
        raw = os.environ.get(f"TWISTGAB_BUDGET_{name}")
        return int(raw) if raw else fallback

    return Budgets(
        subspaces=_env("SUBSPACES", DEFAULT_SUBSPACES),
        codewords=_env("CODEWORDS", DEFAULT_CODEWORDS),
        ambient=_env("AMBIENT", DEFAULT_AMBIENT),
    )


def check_budget(kind: str, needed: int, cap: int) -> None:
    """Raise if `needed` enumeration steps exceed `cap`."""
    if needed > cap:
        raise BudgetExceededError(
            f"{kind} enumeration needs {needed} steps, exceeding the budget of {cap}; "
            "too large for brute force"
        )
