"""Exceptions shared across modules."""


class SearchBudgetExceeded(RuntimeError):
    """A search or listing exceeded its node budget."""
