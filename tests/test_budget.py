import pytest

from twistgab.budget import Budgets, check_budget
from twistgab.errors import BudgetExceededError


def test_defaults():
    b = Budgets()
    assert b.subspaces == b.codewords == b.ambient == 1 << 24


def test_positive_required():
    with pytest.raises(ValueError):
        Budgets(subspaces=0)


def test_check_budget_message():
    with pytest.raises(BudgetExceededError, match="too large for brute force"):
        check_budget("codeword", 100, 10)
    check_budget("codeword", 10, 10)  # boundary is allowed


def test_explicit_budget_ignores_environment(monkeypatch, f16, alpha4):
    from twistgab.codes import CodeSpec, min_rank_distance

    monkeypatch.setenv("TWISTGAB_BUDGET_SUBSPACES", "abc")
    monkeypatch.setenv("TWISTGAB_BUDGET_CODEWORDS", "3")
    spec = CodeSpec(f16, alpha4, 2)
    assert min_rank_distance(spec).d_rank == 3
    assert min_rank_distance(spec, Budgets(codewords=1000)).d_hamming == 3
