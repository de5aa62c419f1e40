"""The problem cache: memoized delinearization verdicts.

:func:`cached_delinearize` is a drop-in front end for
:func:`repro.core.delinearize.delinearize`: it keys the problem as written
(:func:`problem_key`), looks the key up in a :class:`ProblemCache`, and on a
hit rebuilds the stored verdict, direction vectors and distances.  The pairs
of one loop nest produce literally identical dependence equations, so this
plain key hits as often as any normal form would.  On a miss the problem
itself is solved, so the solving path is byte-identical with the cache on,
off, cold or warm.

Two safety rules keep cached answers indistinguishable from fresh ones:

* a result is stored only after a fully successful solve — nothing is
  cached when the solver raises (including budget exhaustion, where a
  partial answer would otherwise be replayed as if it were complete);
* the cache is bypassed entirely when a trace is requested (the auditor
  needs groups/trace in the original variable space) and when the chaos
  harness is active (replaying a cached answer would skip injection sites
  and perturb every downstream hit counter, breaking seeded determinism).

The optional persistent layer pickles entries to
``<cache_dir>/depcache-<schema>.pkl`` where ``<schema>`` hashes the source
of every module that influences verdicts; editing any of them orphans old
files rather than replaying stale answers.

This module is also the registry behind :func:`clear_all`, which resets
every process-lifetime cache in the package (this one, ``poly_gcd``'s LRU,
and any memo registered via :func:`register_cache`) so long-lived worker
processes can be wrung dry between corpora.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

try:  # POSIX only; on other platforms the cache runs lock-free.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from ..deptests.problem import DependenceProblem, Verdict
from ..dirvec.vectors import DirVec
from ..symbolic import Poly
from . import chaos
from .delinearize import DelinearizationResult, delinearize

#: Default capacity of the in-memory LRU.  Entries are small (a verdict, a
#: handful of direction vectors, a few distance polynomials); real corpora
#: produce far fewer distinct problems than this.
DEFAULT_MAXSIZE = 8192

#: Bumped when the pickle layout of persistent entries changes.
PICKLE_VERSION = 1


@dataclass(frozen=True)
class CachedOutcome:
    """The cacheable portion of a :class:`DelinearizationResult`.

    Direction vectors and distances are kept in the problem's own level
    order.  Groups and the Figure-5 trace are deliberately not cached: the
    only consumers (the soundness auditor, the ``delinearize`` CLI trace)
    bypass the cache.
    """

    verdict: str
    dirvecs: frozenset[DirVec]
    distances: tuple[tuple[int, Poly], ...]
    dimensions: int

    @classmethod
    def of(cls, result: DelinearizationResult) -> "CachedOutcome":
        if result.verdict is Verdict.INDEPENDENT:
            # Early-independence returns may leave partial direction/distance
            # state behind; normalize it away so equal keys store equal entries.
            return cls(result.verdict.value, frozenset(), (), result.dimensions_found)
        return cls(
            result.verdict.value,
            frozenset(result.direction_vectors),
            tuple(sorted(result.distances.items())),
            result.dimensions_found,
        )

    def to_result(self) -> DelinearizationResult:
        verdict = Verdict(self.verdict)
        result = DelinearizationResult(verdict=verdict, dimensions_found=self.dimensions)
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
      :class:`Poly`: a ``Poly`` pickles the hash it cached in its own
      process, so a persisted key holding one would never match again.
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
    loaded: int = 0  # entries read from the persistent file
    #: Persistent files found truncated, unpicklable or wrong-schema and
    #: quarantined (deleted) so they can never poison a later load.
    corrupt: int = 0
    #: Lock acquisitions that failed (I/O error or injected fault); the
    #: operation degraded to a cold cache / skipped save, never an exception.
    lock_faults: int = 0

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.hits,
            self.misses,
            self.evictions,
            self.stores,
            self.loaded,
            self.corrupt,
            self.lock_faults,
        )


class ProblemCache:
    """An LRU of :func:`problem_key` keys -> :class:`CachedOutcome` with counters."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._data: OrderedDict[tuple, CachedOutcome] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def lookup(self, key: tuple) -> CachedOutcome | None:
        entry = self._data.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._data.move_to_end(key)
        self.stats.hits += 1
        return entry

    def store(self, key: tuple, entry: CachedOutcome) -> None:
        if key in self._data:
            self._data.move_to_end(key)
            return
        self._data[key] = entry
        self.stats.stores += 1
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._data.clear()
        self.stats = CacheStats()

    # -- persistence -------------------------------------------------------

    def load_disk(self, cache_dir: str | os.PathLike) -> int:
        """Warm the cache from ``cache_dir``; returns entries loaded.

        A truncated, unpicklable, or wrong-schema file is *quarantined*: it
        is deleted, counted in ``stats.corrupt``, and the load proceeds as a
        cold cache — never an exception.  The read happens under the
        directory's advisory lock so a concurrent writer's rename cannot be
        observed half-done on filesystems without atomic replace semantics.
        """
        path = persistent_path(cache_dir)
        try:
            with _cache_lock(path):
                with open(path, "rb") as fh:
                    payload = pickle.load(fh)
        except FileNotFoundError:
            return 0
        except _LockFault:
            self.stats.lock_faults += 1
            return 0
        except Exception:  # noqa: BLE001 — any corruption means cold cache
            self.stats.corrupt += 1
            _quarantine(path)
            return 0
        if (
            not isinstance(payload, dict)
            or payload.get("version") != PICKLE_VERSION
            or not isinstance(payload.get("entries"), dict)
        ):
            self.stats.corrupt += 1
            _quarantine(path)
            return 0
        entries = payload["entries"]
        for key, entry in entries.items():
            if key not in self._data:
                self._data[key] = entry
                while len(self._data) > self.maxsize:
                    self._data.popitem(last=False)
                    self.stats.evictions += 1
        self.stats.loaded += len(entries)
        return len(entries)

    def save_disk(self, cache_dir: str | os.PathLike) -> int:
        """Persist the current entries; returns entries written.

        Merges with whatever is already on disk (concurrent runs lose
        nothing) and writes atomically via rename.  The read-merge-write
        cycle runs under an advisory ``flock`` on a sibling lock file, so
        two servers — or a server and a CLI run — sharing one
        ``--cache-dir`` cannot interleave their merges; a writer killed
        mid-write leaves only a stale temp file, never a torn cache.  A
        lock acquisition failure skips the save (counted, sound) rather
        than raising.
        """
        directory = Path(cache_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = persistent_path(directory)
        try:
            with _cache_lock(path):
                entries: dict[tuple, CachedOutcome] = {}
                try:
                    with open(path, "rb") as fh:
                        payload = pickle.load(fh)
                    if (
                        isinstance(payload, dict)
                        and payload.get("version") == PICKLE_VERSION
                        and isinstance(payload.get("entries"), dict)
                    ):
                        entries.update(payload["entries"])
                except FileNotFoundError:
                    pass
                except Exception:  # noqa: BLE001 — overwrite the bad file
                    self.stats.corrupt += 1
                entries.update(self._data)
                fd, tmp = tempfile.mkstemp(dir=directory, prefix=".depcache-")
                try:
                    with os.fdopen(fd, "wb") as fh:
                        pickle.dump(
                            {"version": PICKLE_VERSION, "entries": entries}, fh
                        )
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
        except _LockFault:
            self.stats.lock_faults += 1
            return 0
        return len(entries)


class _LockFault(Exception):
    """The advisory lock could not be taken (I/O error or injected fault)."""


@contextmanager
def _cache_lock(path: Path):
    """Advisory exclusive lock guarding one persistent cache file.

    Taken on a sibling ``.lock`` file (never the data file itself, which is
    replaced by rename).  Raises :class:`_LockFault` when the lock cannot be
    acquired — callers degrade to a cold cache / skipped save.  On platforms
    without ``fcntl`` the guard is a no-op beyond the chaos site.
    """
    try:
        chaos.chaos_point("server.cache_lock")
    except chaos.ChaosError as error:
        raise _LockFault(str(error)) from error
    if fcntl is None:  # pragma: no cover - non-POSIX platform
        yield
        return
    lock_path = path.with_name(path.name + ".lock")
    try:
        fh = open(lock_path, "a+b")
    except OSError as error:
        raise _LockFault(str(error)) from error
    try:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        finally:
            fh.close()


def _quarantine(path: Path) -> None:
    """Delete a corrupt persistent file so it can never poison a load."""
    try:
        os.unlink(path)
    except OSError:
        pass


# -- schema hash -----------------------------------------------------------

#: Modules whose source defines what a cached verdict means.  Editing any of
#: them changes the schema hash and orphans existing persistent files.
_SCHEMA_MODULES = (
    "repro.core.cache",
    "repro.core.delinearize",
    "repro.core.groups",
    "repro.core.theorem",
    "repro.analysis.interproc",
    "repro.lint.dataflow",
    "repro.depgraph.builder",
    "repro.deptests.problem",
    "repro.deptests.banerjee",
    "repro.deptests.exhaustive",
    "repro.deptests.gcd",
    "repro.symbolic.poly",
    "repro.symbolic.linexpr",
    "repro.symbolic.assumptions",
)

_schema_hash: str | None = None


def schema_hash() -> str:
    """A short hash of every verdict-defining module's source."""
    global _schema_hash
    if _schema_hash is None:
        import importlib

        digest = hashlib.sha256()
        for name in _SCHEMA_MODULES:
            try:
                module = importlib.import_module(name)
                source = Path(module.__file__).read_bytes()
            except (ImportError, OSError, TypeError):
                source = name.encode()
            digest.update(name.encode())
            digest.update(b"\0")
            digest.update(source)
            digest.update(b"\0")
        _schema_hash = digest.hexdigest()[:16]
    return _schema_hash


def persistent_path(cache_dir: str | os.PathLike) -> Path:
    """Where the persistent pickle for the current schema lives."""
    return Path(cache_dir) / f"depcache-{schema_hash()}.pkl"


# -- process-wide default cache and the clear_all registry -----------------

_DEFAULT_CACHE = ProblemCache()

#: Zero-argument callables that drop some process-lifetime memo.
_CLEARABLE: list[Callable[[], None]] = []


def default_cache() -> ProblemCache:
    """The shared in-process cache used when callers don't pass their own."""
    return _DEFAULT_CACHE


def register_cache(clear: Callable[[], None]) -> Callable[[], None]:
    """Register a clearing callable with :func:`clear_all`; returns it."""
    _CLEARABLE.append(clear)
    return clear


def clear_all() -> None:
    """Reset every process-lifetime cache in the package.

    Covers the default problem cache, ``poly_gcd``'s bounded LRU, the
    memoized theorem suffix-GCDs reachable from here, and anything else
    registered via :func:`register_cache`.  Long-lived worker processes
    call this between corpora so memory stays flat.
    """
    _DEFAULT_CACHE.clear()
    for clear in _CLEARABLE:
        clear()


# -- the memoized solver entry point ---------------------------------------


# poly_gcd's bounded LRU (symbolic/poly.py) is the one other process-wide
# memo in the package; registered here rather than in poly.py to keep the
# symbolic layer free of core imports.
from ..symbolic.poly import _poly_gcd_cached  # noqa: E402

register_cache(_poly_gcd_cached.cache_clear)


def cached_delinearize(
    problem,
    *,
    cache: ProblemCache | None = None,
    budget=None,
    keep_trace: bool = False,
):
    """Solve ``problem``, consulting/filling ``cache`` when it is safe to.

    Exactly equivalent to ``delinearize(problem, keep_trace=..., budget=...)``
    — the differential tests in ``tests/core/test_cache.py`` hold this to
    byte-for-byte equality of verdicts, direction vectors and distances.
    """
    if cache is None or keep_trace or chaos.active_state() is not None:
        return delinearize(problem, keep_trace=keep_trace, budget=budget)
    key = problem_key(problem)
    entry = cache.lookup(key)
    if entry is not None:
        return entry.to_result()
    result = delinearize(problem, budget=budget)
    cache.store(key, CachedOutcome.of(result))
    return result
