"""Enumeration budgets; AUTOEXP_BUDGET overrides the default."""

import os

DEFAULT_BUDGET = 10 ** 8


class BudgetError(RuntimeError):
    """An enumeration would exceed the configured resource budget."""


def enumeration_budget() -> int:
    raw = os.environ.get("AUTOEXP_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError("AUTOEXP_BUDGET must be a positive integer")
    return value


def require_budget(cost: int, what: str) -> None:
    """Raise BudgetError before enumerating cost elements beyond the budget."""
    budget = enumeration_budget()
    if cost > budget:
        raise BudgetError(f"{what} ({cost}) exceeds the enumeration budget ({budget})")
