"""The paper's contribution: the delinearization algorithm and theorem."""

from .cache import (
    CachedOutcome,
    CacheStats,
    ProblemCache,
    cached_delinearize,
    clear_all,
    default_cache,
)
from .delinearize import (
    DelinearizationResult,
    TraceRow,
    delinearize,
)
from .groups import GroupSolution, solve_group
from .theorem import (
    SplitCandidate,
    condition_holds,
    head_extremes,
    make_candidate,
    split_equation,
)

__all__ = [
    "CacheStats",
    "CachedOutcome",
    "DelinearizationResult",
    "GroupSolution",
    "ProblemCache",
    "cached_delinearize",
    "clear_all",
    "default_cache",
    "SplitCandidate",
    "TraceRow",
    "condition_holds",
    "delinearize",
    "head_extremes",
    "make_candidate",
    "solve_group",
    "split_equation",
]
