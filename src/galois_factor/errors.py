"""Exception types shared across the package."""

from __future__ import annotations


class ContextFormatError(ValueError):
    """Raised when an input file cannot be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CrossContextError(ValueError):
    """A subset built against one context was used with another."""


class NotNormalizedError(ValueError):
    """An operation that presupposes a normalized context got a raw one."""


class FrameArrangementError(ValueError):
    """The frame's adjoint triple does not have the domains an operator needs."""


class AdjointnessError(ValueError):
    """A conjunctor admits no residua, or a claimed triple fails adjointness.

    ``witness`` holds the offending (x, y, z) grades when available.
    """

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class BudgetExceededError(RuntimeError):
    """Work beyond a budget; ``unit`` names what was counted.

    The NextClosure scans in ``order`` count closure evaluations and stop
    before evaluation budget + 1: ``count`` is the evaluations done and
    ``found`` the closed sets yielded.  The ``lattice``, ``fn`` and ``check``
    commands set that budget with ``--budget``, and ``factor --emit dot``
    one budget for all its block scans.  A cn lattice beyond its
    atom cutoff counts pairs, the brute-force oracles subsets or grid
    points; there ``count`` is what would be needed and ``found`` is None.
    """

    def __init__(self, count: int, budget: int, unit="closure evaluations", found=None):
        self.count, self.budget, self.unit, self.found = count, budget, unit, found
        if found is None:
            super().__init__(f"needs {count} {unit} but the budget is {budget}")
        else:
            super().__init__(f"the budget of {budget} {unit} ran out, {found} closed sets found")
