"""Per-iteration solver bookkeeping."""

from dataclasses import dataclass, field

__all__ = ["SolverTrace", "NumericalError"]


class NumericalError(RuntimeError):
    """Raised when a computation leaves the finite float range.

    Solvers raise it for a non-finite objective or weight, an overflowed
    ridge system or a floating-point fault inside a feature fit; view
    normalization raises it when a view's scale overflows, and
    ``procrustes_rmse`` when the RMSE is not finite.  The CLI maps it to
    exit code 3.
    """


@dataclass
class SolverTrace:
    """Objective values recorded once per outer iteration.

    ``objective`` has exactly one entry per recorded iteration (every
    iteration, except that a correntropy embedding records only its ascent
    iterations and not its L1 warm start);
    ``converged`` tells whether the run stopped on its tolerance rather than
    on the iteration cap, with ``reason`` naming the stop condition.
    """

    objective: list = field(default_factory=list)
    converged: bool = False
    reason: str = ""

    @property
    def iterations_run(self) -> int:
        """Number of recorded iterations, ``len(objective)``."""
        return len(self.objective)

    @property
    def final_objective(self):
        """The last recorded objective, or None when nothing was recorded."""
        return self.objective[-1] if self.objective else None

    def record(self, value: float):
        self.objective.append(float(value))

    def finish(self, converged: bool, reason: str):
        self.converged = converged
        self.reason = reason
