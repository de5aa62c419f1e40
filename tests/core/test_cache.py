"""The problem cache: its key, LRU behaviour, its safety bypasses, and
byte-identical dependence graphs with the cache on, off, cold or warm."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import delinearize
from repro.core.cache import (
    CachedOutcome,
    ProblemCache,
    cached_delinearize,
    clear_all,
    default_cache,
    problem_key,
)
from repro.core.chaos import chaos
from repro.core.resilience import Budget, BudgetExhausted
from repro.depgraph import analyze_dependences
from repro.deptests import BoundedVar, DependenceProblem
from repro.frontend import parse_fortran
from repro.symbolic import Assumptions, LinExpr, Poly
from repro.symbolic.poly import _poly_gcd_cached, poly_gcd

PAIR_ORDER = ("i1", "i2", "j1", "j2")


def two_level(
    ci=1, cj=10, const=0, zi=4, zj=9, assumptions=None, order=PAIR_ORDER
):
    """A 2-D pair problem ``ci*(i1-i2) + cj*(j1-j2) + const = 0``.

    ``order`` is the coefficient insertion order, which is part of the key.
    """
    coeffs = {"i1": ci, "i2": -ci, "j1": cj, "j2": -cj}
    eq = LinExpr({name: coeffs[name] for name in order}, const)
    variables = [
        BoundedVar.make("i1", zi, 1, 0),
        BoundedVar.make("i2", zi, 1, 1),
        BoundedVar.make("j1", zj, 2, 0),
        BoundedVar.make("j2", zj, 2, 1),
    ]
    return DependenceProblem(
        [eq], variables, common_levels=2, assumptions=assumptions
    )


def tie_break(order):
    """``3*a0 - 6*a1 + 6*b0 - 6*b1 + 30 = 0``, every variable in ``[0, 4]``:
    the scan finds 2 dimensions with coefficients inserted in the order
    ``a0, a1, b0, b1`` and 1 in the order ``b0, a0, b1, a1``."""
    coeffs = {"a0": 3, "a1": -6, "b0": 6, "b1": -6}
    variables = [
        BoundedVar.make("a0", 4, 1, 0),
        BoundedVar.make("a1", 4, 1, 1),
        BoundedVar.make("b0", 4, 2, 0),
        BoundedVar.make("b1", 4, 2, 1),
    ]
    eq = LinExpr({name: coeffs[name] for name in order}, 30)
    return DependenceProblem([eq], variables, common_levels=2)


def result_tuple(result):
    """The observable answer: everything a cache replay must reproduce."""
    return (
        result.verdict,
        frozenset(result.direction_vectors),
        dict(result.distances),
        result.dimensions_found,
    )


def entry_for(problem):
    return problem_key(problem), CachedOutcome.of(delinearize(problem))


def leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from leaves(item)
    else:
        yield value


class TestKey:
    def test_different_constants_differ(self):
        assert problem_key(two_level(const=1)) != problem_key(two_level(const=2))

    def test_assumption_fingerprint_discriminates(self):
        n = Poly.symbol("n")
        tight = Assumptions.empty().with_interval("n", 0, 3)
        loose = Assumptions.empty().with_interval("n", 0, 30)
        a = two_level(const=n, assumptions=tight)
        b = two_level(const=n, assumptions=loose)
        assert problem_key(a) != problem_key(b)

    def test_unmentioned_symbols_do_not_pollute_the_key(self):
        base = Assumptions.empty().with_interval("n", 0, 3)
        extra = base.with_interval("unrelated", 1, 2)
        n = Poly.symbol("n")
        a = two_level(const=n, assumptions=base)
        b = two_level(const=n, assumptions=extra)
        assert problem_key(a) == problem_key(b)

    def test_key_holds_only_plain_values(self):
        # A Poly equals the int it holds but hashes differently, so a key
        # holding one could disagree with itself.  None marks an absent
        # level, side or interval bound.
        n = Poly.symbol("n")
        problem = two_level(
            const=n + 3, assumptions=Assumptions.empty().with_bound("n", 1)
        )
        assert {type(leaf) for leaf in leaves(problem_key(problem))} <= {
            int,
            str,
            type(None),
        }

    def test_coefficient_order_is_part_of_the_key(self):
        # LinExpr equality ignores insertion order; the scan's tie-break
        # does not.
        first = tie_break(("a0", "a1", "b0", "b1"))
        second = tie_break(("b0", "a0", "b1", "a1"))
        assert first.equations == second.equations
        assert problem_key(first) != problem_key(second)
        cache = ProblemCache()
        cached_delinearize(first, cache=cache)
        fresh = delinearize(second)
        warm = cached_delinearize(second, cache=cache)
        assert (delinearize(first).dimensions_found, fresh.dimensions_found) == (2, 1)
        assert result_tuple(warm) == result_tuple(fresh)
        assert cache.stats.hits == 0


@st.composite
def problems_with_twins(draw):
    """A random problem plus a twin: the same problem, with its coefficients
    inserted in the same or in another order."""
    ci = draw(st.integers(-6, 6))
    cj = draw(st.integers(-12, 12))
    zi = draw(st.integers(0, 6))
    zj = draw(st.integers(1, 8))
    if draw(st.booleans()):
        lower = draw(st.integers(0, 4))
        upper = lower + draw(st.integers(0, 6))
        const = Poly.symbol("n") + draw(st.integers(-10, 10))
        assumptions = Assumptions.empty().with_interval("n", lower, upper)
    else:
        const = Poly.const(draw(st.integers(-30, 30)))
        assumptions = None
    base = two_level(ci, cj, const, zi, zj, assumptions)
    order = draw(st.one_of(st.just(PAIR_ORDER), st.permutations(PAIR_ORDER)))
    twin = two_level(ci, cj, const, zi, zj, assumptions, tuple(order))
    return base, twin


@given(problems_with_twins())
@settings(max_examples=150, deadline=None)
def test_cache_replay_equals_fresh_solve(case):
    """Warm answer == fresh answer: whether the twin's lookup hits or
    misses, its verdict, direction vectors, distances and dimensions equal
    a fresh, cache-free solve of the twin."""
    base, twin = case
    fresh = delinearize(twin)
    cache = ProblemCache()
    cached_delinearize(base, cache=cache)
    warm = cached_delinearize(twin, cache=cache)
    assert result_tuple(warm) == result_tuple(fresh)
    assert cache.stats.hits == (problem_key(base) == problem_key(twin))


@given(problems_with_twins())
@settings(max_examples=100, deadline=None)
def test_self_replay_is_identity(case):
    """Storing then immediately replaying the same problem is exact."""
    base, _ = case
    fresh = delinearize(base)
    cache = ProblemCache()
    cached_delinearize(base, cache=cache)
    warm = cached_delinearize(base, cache=cache)
    assert cache.stats.hits == 1
    assert result_tuple(warm) == result_tuple(fresh)


class TestLRU:
    def test_eviction_in_insertion_order(self):
        cache = ProblemCache(maxsize=2)
        keys = []
        for const in (1, 2, 3):
            key, outcome = entry_for(two_level(const=const))
            cache.store(key, outcome)
            keys.append(key)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.lookup(keys[0]) is None  # the oldest was evicted
        assert cache.lookup(keys[2]) is not None

    def test_lookup_refreshes_recency(self):
        cache = ProblemCache(maxsize=2)
        keys = []
        for const in (1, 2):
            key, outcome = entry_for(two_level(const=const))
            cache.store(key, outcome)
            keys.append(key)
        cache.lookup(keys[0])  # now key[1] is the LRU entry
        key3, outcome3 = entry_for(two_level(const=3))
        cache.store(key3, outcome3)
        assert cache.lookup(keys[0]) is not None
        assert cache.lookup(keys[1]) is None

    def test_counters(self):
        cache = ProblemCache()
        key, outcome = entry_for(two_level(const=7))
        assert cache.lookup(key) is None
        cache.store(key, outcome)
        cache.lookup(key)
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (
            1,
            1,
            1,
        )

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            ProblemCache(maxsize=0)

    def test_evicted_entries_are_released(self):
        # maxsize must bound memory, not just lookups: once evicted, an
        # entry is referenced by nothing the cache owns.
        cache = ProblemCache(maxsize=2)
        first = None
        for const in range(1, 6):
            key, outcome = entry_for(two_level(const=const))
            cache.store(key, outcome)
            if first is None:
                first = weakref.ref(outcome)
        del key, outcome
        gc.collect()
        assert cache.stats.evictions == 3
        assert first() is None


class TestClearAll:
    def test_resets_default_cache_and_poly_gcd_lru(self):
        cached_delinearize(two_level(const=-12), cache=default_cache())
        poly_gcd(6, 4)
        assert len(default_cache()) > 0
        assert _poly_gcd_cached.cache_info().currsize > 0
        clear_all()
        assert len(default_cache()) == 0
        assert _poly_gcd_cached.cache_info().currsize == 0


class TestBypasses:
    def test_chaos_active_bypasses_the_cache(self):
        cache = ProblemCache()
        problem = two_level(const=-12)
        with chaos(1, rate=0.0):
            cached_delinearize(problem, cache=cache)
        assert len(cache) == 0
        assert cache.stats.misses == 0  # never even consulted

    def test_keep_trace_bypasses_and_keeps_the_trace(self):
        cache = ProblemCache()
        problem = two_level(const=-12)
        cached_delinearize(problem, cache=cache)  # warm the entry
        result = cached_delinearize(problem, cache=cache, keep_trace=True)
        assert result.trace  # a replay could not have produced this
        assert cache.stats.hits == 0

    def test_no_cache_is_plain_delinearize(self):
        problem = two_level(const=-12)
        assert result_tuple(cached_delinearize(problem)) == result_tuple(
            delinearize(problem)
        )

    def test_exhausted_budget_stores_nothing(self):
        cache = ProblemCache()
        with pytest.raises(BudgetExhausted):
            cached_delinearize(
                two_level(const=-12), cache=cache, budget=Budget(steps=1)
            )
        assert len(cache) == 0

    def test_warm_hit_ignores_budget_pressure(self):
        # A cached answer is complete; replaying it must not re-charge the
        # solver's budget.
        cache = ProblemCache()
        problem = two_level(const=-12)
        fresh = cached_delinearize(problem, cache=cache)
        warm = cached_delinearize(problem, cache=cache, budget=Budget(steps=1))
        assert cache.stats.hits == 1
        assert result_tuple(warm) == result_tuple(fresh)


FIGURE3 = """
REAL X(200), Y(200), B(100)
REAL A(100,100), C(100,100)
DO 30 i = 1, 100
X(i) = Y(i) + 10
DO 20 j = 1, 99
B(j) = A(j,20)
DO 10 k = 1, 100
A(j+1,k) = B(j) + C(j,k)
10 CONTINUE
Y(i+j) = A(j+1,20)
20 CONTINUE
30 CONTINUE
"""


def fingerprint(graph):
    """Everything observable about a graph, rendered deterministically."""
    return (
        graph.format_table(),
        [str(e) for e in graph.edges],
        [str(d) for d in graph.degradations],
        [str(d) for d in graph.audit_diagnostics],
    )


class TestGraphByteIdentity:
    """The cache is invisible: a graph is the same, byte for byte, with the
    cache on or off, cold or warm."""

    def test_cache_off_matches_cache_on(self):
        # Unaudited: an audited build selects no cache, so both legs would
        # solve every pair from scratch.
        with_cache = analyze_dependences(
            parse_fortran(FIGURE3), cache=ProblemCache()
        )
        without = analyze_dependences(parse_fortran(FIGURE3), use_cache=False)
        assert with_cache.perf.cache_hits > 0
        assert fingerprint(with_cache) == fingerprint(without)

    def test_warm_cache_matches_cold(self):
        # audit=False: the auditor needs the Figure-5 trace, which replaying
        # a cached outcome cannot provide, so audit runs bypass the cache.
        cache = ProblemCache()
        program = parse_fortran(FIGURE3)
        cold = analyze_dependences(program, cache=cache)
        warm = analyze_dependences(program, cache=cache)
        assert fingerprint(cold) == fingerprint(warm)
        assert warm.perf.cache_misses == 0
        # Every cacheable pair hits the second time — including pairs that
        # already hit intra-run the first time (pairs of one nest produce
        # identical equations).
        assert warm.perf.cache_hits == cold.perf.cache_hits + cold.perf.cache_misses
