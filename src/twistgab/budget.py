"""Enumeration budgets.

Every brute-force routine checks its workload against a cap before starting.
Exceeding a cap raises :class:`~twistgab.errors.BudgetExceededError` instead of
silently sampling.  A cap travels one way only: each enumerating routine takes
a ``budgets: Budgets`` argument (defaults ``DEFAULT_*``) and reads its own axis;
the CLI builds that object from its ``--budget-*`` flags.  Nothing reads the
environment.
"""

from __future__ import annotations

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
               every ``KSubsetTable`` (the table of every Omega route), the
               k- plus (k+1)-subset count of ``hamming_class_many`` and the
               eta-pair count of ``omega_two_materialize``; each count is
               checked on its own.
    codewords: message classes visited by distance enumeration.
    ambient:   vectors of rank <= w, for the covering-radius walk's layers 0..w
               in increasing rank weight; layer w forms a.B for every w-tuple
               a, dependent or not, fewer than 3.47 times its rank-w count.
               It also bounds the walk's memory: the walk keeps a table of
               its layer-1 vectors, 16 bytes each, built once the cap admits
               layer 1.  Checked on its own: the coset count q^(m(n-k)).
    """

    subspaces: int = DEFAULT_SUBSPACES
    codewords: int = DEFAULT_CODEWORDS
    ambient: int = DEFAULT_AMBIENT

    def __post_init__(self):
        for name in ("subspaces", "codewords", "ambient"):
            if getattr(self, name) < 1:
                raise ValueError(f"budget {name!r} must be positive")


def check_budget(kind: str, needed: int, cap: int) -> None:
    """Raise if `needed` enumeration steps exceed `cap`."""
    if needed > cap:
        raise BudgetExceededError(
            f"{kind} enumeration needs {needed} steps, exceeding the budget of {cap}; "
            "too large for brute force"
        )
