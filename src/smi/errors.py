"""Exception types shared across the pipeline.

Two failure families matter to callers: bad input data (reject the run,
exit code 1) and numerical breakdown (exit code 2). InputError covers
every input problem, DegenerateColumnError (a constant column) among
them; everything else is a plain programming error and raises the usual
builtins.
"""

from __future__ import annotations


class InputError(ValueError):
    """Invalid input data or configuration.

    Carries the full list of problems found, not just the first, so a CLI
    run can report everything wrong with a file in one pass.
    """

    def __init__(self, errors: list[str] | str):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = errors
        super().__init__("; ".join(errors))


class DegenerateColumnError(InputError):
    """A constant indicator column, for which min-max scaling is undefined."""

    def __init__(self, indicator: str):
        self.indicator = indicator
        super().__init__(f"indicator {indicator!r} is constant (max == min), cannot rescale")


class NumericalError(RuntimeError):
    """Numerical failure: eigensolver non-convergence, zero total weight."""

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
