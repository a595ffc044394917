"""Statistics collected during fixed point evaluation.

Table 2 of the paper compares Naive and Delta not only by wall-clock time
but also by the *total number of nodes fed back* into the recursion body and
by the *recursion depth*.  Both are properties of the iteration itself, so
the algorithms record them here as they run.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class IterationRecord:
    """One round of the fixed point iteration.

    Attributes
    ----------
    iteration:
        Zero-based iteration number (iteration 0 is the seed application).
    fed_back:
        Number of items handed to the recursion body in this round.
    produced:
        Number of items the body returned (before de-duplication).
    new_nodes:
        Number of items that were new with respect to the accumulated
        result after this round.
    result_size:
        Size of the accumulated result after this round.
    """

    iteration: int
    fed_back: int
    produced: int
    new_nodes: int
    result_size: int


@dataclass
class FixpointStatistics:
    """Aggregated statistics for one IFP evaluation."""

    algorithm: str = "naive"
    iterations: list[IterationRecord] = field(default_factory=list)

    def record(self, iteration: int, fed_back: int, produced: int,
               new_nodes: int, result_size: int) -> None:
        self.iterations.append(
            IterationRecord(iteration, fed_back, produced, new_nodes, result_size)
        )

    # -- the quantities reported in Table 2 ----------------------------------

    @property
    def total_nodes_fed_back(self) -> int:
        """Total number of items fed into the recursion body, summed over rounds."""
        return sum(record.fed_back for record in self.iterations)

    @property
    def recursion_depth(self) -> int:
        """Number of body invocations until the fixed point was reached."""
        return len(self.iterations)

    @property
    def result_size(self) -> int:
        return self.iterations[-1].result_size if self.iterations else 0

    def summary(self) -> dict:
        """A plain-dict summary convenient for reports and JSON output."""
        return {
            "algorithm": self.algorithm,
            "iterations": self.recursion_depth,
            "total_nodes_fed_back": self.total_nodes_fed_back,
            "result_size": self.result_size,
        }


class StatisticsCollector:
    """Aggregates the statistics of every IFP evaluated during one query.

    An instance can be installed as ``DynamicContext.statistics``; the
    evaluator calls :meth:`record_ifp` after every ``with … recurse``
    evaluation.  The bidder-network benchmark evaluates one IFP per person,
    so a single query may contribute thousands of records.
    """

    def __init__(self) -> None:
        self.runs: list[FixpointStatistics] = []
        self.traces: list[tuple[str, list]] = []

    def record_ifp(self, statistics: FixpointStatistics) -> None:
        self.runs.append(statistics)

    def trace(self, label: str, value: list) -> None:
        self.traces.append((label, value))

    @property
    def total_nodes_fed_back(self) -> int:
        return sum(run.total_nodes_fed_back for run in self.runs)

    @property
    def max_recursion_depth(self) -> int:
        return max((run.recursion_depth for run in self.runs), default=0)

    @property
    def ifp_evaluations(self) -> int:
        return len(self.runs)

    def summary(self) -> dict:
        return {
            "ifp_evaluations": self.ifp_evaluations,
            "total_nodes_fed_back": self.total_nodes_fed_back,
            "max_recursion_depth": self.max_recursion_depth,
        }
