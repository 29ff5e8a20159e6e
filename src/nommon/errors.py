"""Shared exception types and the cooperative work budget."""


class NommonError(Exception):
    """Base class for library errors."""


class InvalidInput(NommonError):
    """Malformed value handed to a constructor or operation."""


class CapExceeded(NommonError):
    """A structural cap (group order, orbit count, dimension) was hit."""


class BudgetExhausted(NommonError):
    """A search ran out of its work budget before finishing."""


class Budget:
    """Counts work units; enumeration loops tick it and bail out honestly.

    A single Budget may be shared by nested searches. ``None`` budgets
    in the API mean "use a fresh default budget".
    """

    def __init__(self, limit=2_000_000):
        self.limit = limit
        self.used = 0

    def tick(self, n=1):
        """Charge n units at once, stopping where n single ticks would:
        at the first unit past the limit."""
        self.used += n
        if self.used > self.limit and n:
            self.used = max(self.used - n, self.limit) + 1
            raise BudgetExhausted(f"work budget of {self.limit} exhausted")


def ensure_budget(budget):
    return budget if budget is not None else Budget()
