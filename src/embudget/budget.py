"""Cumulative emissions allowance with a spend ledger and no-front-loading accounting."""

from __future__ import annotations

_OVERDRAFT_EPS = 1e-12


class BudgetError(ValueError):
    pass


class BudgetViolationError(BudgetError):
    """An emission was recorded past the hard cap; indicates a policy bug."""


class HorizonError(BudgetError):
    pass


class EmissionsBudget:
    """Tracks cumulative spend against a total allowance over a fixed horizon.

    Spend accumulation uses Kahan compensated summation so the surplus and
    front-loading invariants hold to ~1e-9 g over a week of 1 s steps. The
    running compensated sum is part of the accounting contract.
    """

    __slots__ = ("total", "horizon", "base_rate", "_spent", "_comp")

    def __init__(self, total: float, horizon: float) -> None:
        if not total > 0:
            raise BudgetError(f"budget total must be positive, got {total}")
        if not horizon > 0:
            raise BudgetError(f"horizon must be positive, got {horizon}")
        self.total = total
        self.horizon = horizon
        self.base_rate = total / horizon
        self._spent = 0.0
        self._comp = 0.0

    @property
    def spent(self) -> float:
        return self._spent

    @property
    def remaining(self) -> float:
        return self.total - self._spent

    def record_emission(self, grams: float) -> None:
        """Add one step's emission to the ledger. Overdrafts raise, never clamp."""
        if not grams >= 0:
            raise BudgetError(f"negative emission {grams}")
        if self._spent + grams > self.total + _OVERDRAFT_EPS:
            raise BudgetViolationError(
                f"overdraft: spent {self._spent} + {grams} exceeds total {self.total}"
            )
        y = grams - self._comp
        t = self._spent + y
        self._comp = (t - self._spent) - y
        self._spent = t

    def greedy_allowance(self, now: float) -> float:
        """Grams spendable this second: the base allocation plus all banked surplus.

        Never permits spend past base_rate * (now + 1), so front-loading is
        impossible, and by construction never past the total.
        """
        if not 0 <= now < self.horizon:
            raise HorizonError(f"now={now} outside [0, {self.horizon})")
        allowance = self.base_rate * (now + 1.0) - self._spent
        return allowance if allowance > 0.0 else 0.0
