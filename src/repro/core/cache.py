"""The problem cache: memoized delinearization verdicts.

:func:`cached_delinearize` is a drop-in front end for
:func:`repro.core.delinearize.delinearize`: it keys the problem as written
(:func:`problem_key`), looks the key up in a :class:`ProblemCache`, and on a
hit rebuilds the stored verdict, direction vectors and distances.  The pairs
of one loop nest produce literally identical dependence equations, so this
plain key hits as often as any normal form would.  On a miss the problem
itself is solved, so the solving path is byte-identical with the cache on,
off, cold or warm.

An audited solve passes the soundness auditor as ``audit=``; the layers
stay split because the auditor is only a callable here and its findings are
opaque.  The findings are a pure function of the problem (their
``statement`` and ``span`` are labels), so one entry holds the verdict
*and* the findings without labels, and an audited hit hands them to the
auditor on the rebuilt result to relabel instead of re-auditing.  The
Figure-5 trace the audit reads is never stored.  An entry stored by an
unaudited solve has no findings: an audited lookup counts it as a miss,
re-solves with a trace, audits and upgrades the entry.

Below the problem key sits the Figure-4 scan's split-case memo.  Problems
that differ only in their constant form one *equation family* (one scan
order in one context), and a case tree depends on the constant only
through what keys the memo, so the family shares one memo
(:meth:`ProblemCache.family`).  It changes no answer, hit or miss (a
member that reuses cases charges its budget less, as a hit does); it is
bounded, cleared and bypassed with the problem entries, and a solve that
raises takes back what it added.

Two safety rules keep cached answers indistinguishable from fresh ones:

* a result is stored only after a fully successful solve and audit —
  nothing is cached when the solver or the auditor raises (including
  budget exhaustion, where a partial answer would otherwise be replayed as
  if it were complete);
* the cache is bypassed entirely when the chaos harness is active
  (replaying a cached answer would skip injection sites and perturb every
  downstream hit counter, breaking seeded determinism).

:func:`clear_all` resets the two process-lifetime memos of the package
(the default problem cache with its family memos, and ``poly_gcd``'s LRU)
so long-lived worker
processes can be wrung dry between corpora.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..deptests.problem import DependenceProblem, Verdict
from ..dirvec.vectors import DirVec
from ..symbolic import Poly
from ..symbolic.poly import _poly_gcd_cached
from . import chaos
from .delinearize import CaseMemo, DelinearizationResult, delinearize

#: Default capacity of the in-memory LRU.  Entries are small (a verdict, a
#: handful of direction vectors, a few distance polynomials); real corpora
#: produce far fewer distinct problems than this.
DEFAULT_MAXSIZE = 8192


@dataclass(frozen=True)
class CachedOutcome:
    """The cacheable portion of a :class:`DelinearizationResult`.

    Direction vectors and distances are kept in the problem's own level
    order.  ``findings`` are the soundness audit's findings without their
    labels, or None when the entry was stored by an unaudited solve.
    Groups and the Figure-5 trace are deliberately not cached: the auditor
    reads the trace only on a miss, and the ``delinearize`` CLI trace calls
    the solver directly.
    """

    verdict: str
    dirvecs: frozenset[DirVec]
    distances: tuple[tuple[int, Poly], ...]
    dimensions: int
    findings: tuple | None = None

    @classmethod
    def of(
        cls, result: DelinearizationResult, findings=None
    ) -> "CachedOutcome":
        if findings is not None:
            findings = tuple(findings)
        if result.verdict is Verdict.INDEPENDENT:
            # Early-independence returns may leave partial direction/distance
            # state behind; normalize it away so equal keys store equal entries.
            return cls(
                result.verdict.value,
                frozenset(),
                (),
                result.dimensions_found,
                findings,
            )
        return cls(
            result.verdict.value,
            frozenset(result.direction_vectors),
            tuple(sorted(result.distances.items())),
            result.dimensions_found,
            findings,
        )

    def to_result(self) -> DelinearizationResult:
        verdict = Verdict(self.verdict)
        result = DelinearizationResult(
            verdict=verdict,
            dimensions_found=self.dimensions,
            findings=self.findings,
        )
        if verdict is not Verdict.INDEPENDENT:
            result.direction_vectors = set(self.dirvecs)
            result.distances = dict(self.distances)
        return result


def problem_key(problem: DependenceProblem) -> tuple:
    """The cache key of ``problem``: the problem as written, as plain tuples.

    Holds each equation's coefficients in insertion order plus its constant,
    each variable as ``(name, upper, level, side)``, the common level count
    and ``(symbol, lower, upper)`` for every symbol the problem mentions.

    * Coefficient order stays in the key: ``LinExpr`` equality ignores it,
      but the Figure-4 scan's stable sort breaks ties by it, so two problems
      equal as ``LinExpr`` can find different ``dimensions_found``.
    * Every polynomial appears as its sorted terms tuple, never as a
      :class:`Poly`, so the key is plain tuples of strings and ints whose
      equality and hash agree (a ``Poly`` equals the int it holds but
      hashes differently).
    * Only the intervals of mentioned symbols enter the key, so a verdict
      never crosses assumption contexts and unrelated facts cost no hits.
    """
    symbols: set[str] = set()
    equations = []
    for eq in problem.equations:
        coeffs = eq.coeffs
        equations.append(
            (
                tuple((name, _poly_key(coeff)) for name, coeff in coeffs.items()),
                _poly_key(eq.const),
            )
        )
        symbols |= eq.const.symbols()
        for coeff in coeffs.values():
            symbols |= coeff.symbols()
    variables = []
    for var in problem.variables.values():
        variables.append((var.name, _poly_key(var.upper), var.level, var.side))
        symbols |= var.upper.symbols()
    intervals = tuple(
        (symbol, *problem.assumptions.interval(symbol)) for symbol in sorted(symbols)
    )
    return tuple(equations), tuple(variables), problem.common_levels, intervals


def _poly_key(p: Poly) -> tuple:
    return tuple(sorted(p.terms.items()))


@dataclass
class CacheStats:
    """Counters exposed through ``GraphPerf`` and the benchmarks."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0


class ProblemCache:
    """An LRU of :func:`problem_key` keys -> :class:`CachedOutcome` with
    counters, and beside it an LRU of the same size holding each equation
    family's split-case memo (:meth:`family`)."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._data: OrderedDict[tuple, CachedOutcome] = OrderedDict()
        self._families: OrderedDict[tuple, CaseMemo] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def lookup(
        self, key: tuple, *, audited: bool = False
    ) -> CachedOutcome | None:
        """The entry for ``key``; an ``audited`` lookup counts an entry
        without findings as a miss."""
        entry = self._data.get(key)
        if entry is None or (audited and entry.findings is None):
            self.stats.misses += 1
            return None
        self._data.move_to_end(key)
        self.stats.hits += 1
        return entry

    def store(self, key: tuple, entry: CachedOutcome) -> None:
        """Store ``entry``, replacing any entry for ``key`` (an audited
        solve upgrades an unaudited entry)."""
        self._data[key] = entry
        self._data.move_to_end(key)
        self.stats.stores += 1
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def family(self, context: tuple, order: list) -> CaseMemo:
        """The case memo shared by every problem whose scan runs in
        ``order`` (its ``(name, coeff, upper)`` entries) in ``context``:
        the problem key without its equations, and whether a trace is
        kept.  Outside :attr:`stats`: the memo sits below the problem key
        and changes no hit or miss."""
        key = (context, tuple(_order_key(order)))
        memo = self._families.get(key)
        if memo is None:
            memo = self._families[key] = CaseMemo()
            if len(self._families) > self.maxsize:
                self._families.popitem(last=False)
        else:
            self._families.move_to_end(key)
        return memo

    def clear(self) -> None:
        self._data.clear()
        self._families.clear()
        self.stats = CacheStats()


def _order_key(order: list):
    """A scan order as plain tuples: an int scan's entries as they are,
    a symbolic scan's polynomials as their terms."""
    for entry in order:
        name, coeff, upper = entry
        if isinstance(coeff, int):
            yield entry
        else:
            yield name, _poly_key(coeff), _poly_key(upper)


# -- process-wide memos ---------------------------------------------------

_DEFAULT_CACHE = ProblemCache()


def default_cache() -> ProblemCache:
    """The shared in-process cache used when callers don't pass their own."""
    return _DEFAULT_CACHE


def clear_all() -> None:
    """Reset every process-lifetime memo in the package: the default
    problem cache (family case memos included) and ``poly_gcd``'s bounded
    LRU.  Long-lived worker
    processes call this between corpora so memory stays flat."""
    _DEFAULT_CACHE.clear()
    _poly_gcd_cached.cache_clear()


# -- the memoized solver entry point ---------------------------------------


def cached_delinearize(
    problem,
    *,
    cache: ProblemCache | None = None,
    budget=None,
    audit: Callable[[DependenceProblem, DelinearizationResult], list]
    | None = None,
):
    """Solve ``problem``, consulting/filling ``cache`` when it is safe to.

    Exactly equivalent to ``delinearize(problem, budget=...)`` — the
    differential tests in ``tests/core/test_cache.py`` hold this to
    byte-for-byte equality of verdicts, direction vectors and distances.

    ``audit(problem, result)`` is the soundness auditor, called exactly once
    per call.  On a miss it gets the solved result with its Figure-5 trace
    and returns the findings to store with the verdict, without labels.  On
    a hit it gets the rebuilt result, whose ``findings`` hold the stored
    findings to relabel; there is no trace to audit.
    """
    key = families = None
    keep_trace = audit is not None
    if cache is not None and chaos.active_state() is None:
        key = problem_key(problem)
        entry = cache.lookup(key, audited=keep_trace)
        if entry is not None:
            result = entry.to_result()
            if audit is not None:
                audit(problem, result)
            return result
        families = partial(cache.family, (key[1:], keep_trace))
    result = delinearize(
        problem, keep_trace=keep_trace, budget=budget, families=families
    )
    findings = None if audit is None else audit(problem, result)
    if key is not None:
        cache.store(key, CachedOutcome.of(result, findings))
    return result
