"""Package exception types.

Every error renders as one machine-parsable line ``Name{key=value,...}`` so the
CLI can print it to stderr without formatting logic. ``exit_code`` drives the
process exit status: 1 usage, 2 data/contract.
"""

from __future__ import annotations


class DukeError(Exception):
    exit_code = 2

    def __init__(self, **details):
        self.details = dict(details)
        super().__init__(self._render())

    def _render(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.details.items())
        return f"{type(self).__name__}{{{inner}}}"


class UsageError(DukeError):
    """Bad command-line arguments or flag combinations."""

    exit_code = 1


# data ingestion
class RaggedRow(DukeError):
    """A CSV row whose arity differs from the first row."""


class MalformedValue(DukeError):
    """A token that does not parse as a float."""


class NonFiniteValue(DukeError):
    """NaN or infinity in loaded data."""


class TruncatedInput(DukeError):
    """raw-float32 payload not a whole number of rows."""


class EmptyInput(DukeError):
    """No data rows in the input."""


class MissingFile(DukeError):
    """Input path does not exist or cannot be read."""


class SizeMismatch(DukeError):
    """Companion file row count differs from the embedding file."""


# dataset semantics
class TooFewClasses(DukeError):
    """Margin weights need at least two probability columns."""


class ProbabilityOutOfRange(DukeError):
    """Probability entry outside [0, 1]."""


class RowSumError(DukeError):
    """Probability row does not sum to 1 within tolerance."""


class ZeroVectorCosine(DukeError):
    """Cosine distance is undefined for an all-zero row."""


class NormOutOfRange(DukeError):
    """A row norm outside the range where every distance is finite."""


class UnknownMetric(DukeError):
    """Metric name not in the supported set."""


# selection
class EmptyCenters(DukeError):
    """Cost of an empty center set is undefined."""


class BudgetExceedsGroundSet(DukeError):
    """k outside [1, n]."""


class TooManyWorkers(DukeError):
    """Partition count outside [1, n]."""


class InstanceTooLarge(DukeError):
    """C(n, k) exceeds the enumeration cap, the oracle's distance matrix
    exceeds its memory budget, or a kNN graph exceeds its work budget.

    The CLI also reports a ``MemoryError`` as this error
    (``memory=exhausted``), so an input whose arrays the process cannot
    allocate exits 2 with one line rather than a traceback. That is a
    backstop: it is raised only once an allocation has failed, not from a
    budget checked before anything is allocated."""


class InvalidArgument(DukeError):
    """Generic precondition violation without a dedicated name."""
