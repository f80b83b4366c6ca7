"""Exception types shared across the pipeline.

Two failure families matter to callers: bad input data (reject the run,
exit code 1) and numerical breakdown (exit code 2). InputError covers
every input problem, a constant indicator column among them (one rule,
dataset.validate_matrix); everything else is a plain programming error
and raises the usual builtins.
"""

from __future__ import annotations


class InputError(ValueError):
    """Invalid input data or configuration.

    Carries the full list of problems found, not just the first, so a CLI
    run can report everything wrong with a file in one pass. Given the
    file's path, it makes the "<path>: " prefix of each problem itself.
    """

    def __init__(self, errors: list[str] | str, path=None):
        if isinstance(errors, str):
            errors = [errors]
        if path:
            errors = [f"{path}: {error}" for error in errors]
        self.errors = errors
        super().__init__("; ".join(errors))


class NumericalError(RuntimeError):
    """Numerical failure: eigensolver non-convergence, zero total weight."""

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
