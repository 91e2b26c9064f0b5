import pytest

from twistgab.budget import Budgets, check_budget, default_budgets
from twistgab.errors import BudgetExceededError


def test_defaults():
    b = default_budgets()
    assert b.subspaces == b.codewords == b.ambient == 1 << 24


def test_env_overrides(monkeypatch):
    monkeypatch.setenv("TWISTGAB_BUDGET_SUBSPACES", "123")
    monkeypatch.setenv("TWISTGAB_BUDGET_AMBIENT", "456")
    b = default_budgets()
    assert b.subspaces == 123
    assert b.codewords == 1 << 24
    assert b.ambient == 456


def test_positive_required():
    with pytest.raises(ValueError):
        Budgets(subspaces=0)


def test_check_budget_message():
    with pytest.raises(BudgetExceededError, match="too large for brute force"):
        check_budget("codeword", 100, 10)
    check_budget("codeword", 10, 10)  # boundary is allowed


def test_env_budget_reaches_enumeration(monkeypatch, f16, alpha4):
    from twistgab.codes import CodeSpec, min_rank_distance

    monkeypatch.setenv("TWISTGAB_BUDGET_CODEWORDS", "3")
    with pytest.raises(BudgetExceededError):
        min_rank_distance(CodeSpec(f16, alpha4, 2))


def test_explicit_budget_ignores_environment(monkeypatch, f16, alpha4):
    from twistgab.codes import CodeSpec, min_hamming_distance, min_rank_distance

    monkeypatch.setenv("TWISTGAB_BUDGET_SUBSPACES", "abc")
    monkeypatch.setenv("TWISTGAB_BUDGET_CODEWORDS", "abc")
    spec = CodeSpec(f16, alpha4, 2)
    assert min_rank_distance(spec, budget=1000).d_rank == 3
    assert min_hamming_distance(spec, budget=1000) == 3
