"""Per-document incremental state for the resident daemon.

The correctness strategy is *fingerprint-keyed replay*, not explicit
invalidation: after every analysis the daemon keeps the document's
:class:`~repro.depgraph.builder.PairOutcome` objects keyed by
:func:`repro.depgraph.builder.pair_fingerprint` — a content digest of
everything one pair evaluation can observe.  On the next request the
builder replays any pair whose fingerprint still matches and re-evaluates
the rest.  An edited pair simply stops matching, so stale reuse is
impossible by construction, and the oracle (the incremental-equivalence
property test) is byte-identity with a cold one-shot run.

Routine-level text diffing (:func:`split_routines` / :func:`dirty_routines`)
is telemetry on top: it tells ``health`` and the ``didChange`` response how
much of the file actually moved, without being load-bearing for soundness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..core.chaos import ChaosError, chaos_point
from ..depgraph.builder import PairOutcome

_ROUTINE_HEADER = re.compile(
    r"^\s*(?:PROGRAM|SUBROUTINE|(?:\w+\s+)?FUNCTION)\s+(\w+)", re.IGNORECASE
)


def split_routines(text: str) -> list[tuple[str, str]]:
    """Split source text into ``(routine name, chunk)`` pairs.

    Purely textual (the daemon must diff documents that may not even parse):
    a chunk starts at each PROGRAM/SUBROUTINE/FUNCTION header line and runs
    to the next one.  Text before the first header — or a file with no
    headers at all, the common single-unit case — lands in a ``<toplevel>``
    chunk.
    """
    chunks: list[tuple[str, list[str]]] = [("<toplevel>", [])]
    for line in text.splitlines(keepends=True):
        match = _ROUTINE_HEADER.match(line)
        if match:
            chunks.append((match.group(1).upper(), []))
        chunks[-1][1].append(line)
    return [(name, "".join(lines)) for name, lines in chunks if lines]


def dirty_routines(old_text: str, new_text: str) -> list[str]:
    """Names of routines whose text changed, was added, or was removed."""
    old = dict(split_routines(old_text))
    new = dict(split_routines(new_text))
    dirty = {
        name
        for name in old.keys() | new.keys()
        if old.get(name) != new.get(name)
    }
    return sorted(dirty)


@dataclass
class OutcomeCacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Outcomes refused because they were not clean (degraded or
    #: budget/deadline-exhausted) — replaying those would freeze a transient
    #: fault into the document state.
    rejected: int = 0


class OutcomeCache:
    """Fingerprint-keyed store of clean :class:`PairOutcome` objects.

    The worker builds one per request from the document's entries, hands it
    to :func:`repro.depgraph.analyze_dependences`, and ships
    :meth:`export` — exactly the entries this analysis touched — back to the
    daemon, which replaces the document's store with it.  That
    replace-with-export cycle is also the pruning policy: entries for pairs
    that no longer exist in the current text are dropped on the next
    analysis because nothing touches them.
    """

    def __init__(self, entries: dict[str, PairOutcome] | None = None):
        self._entries: dict[str, PairOutcome] = dict(entries or {})
        self._touched: dict[str, PairOutcome] = {}
        self.stats = OutcomeCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, fingerprint: str) -> PairOutcome | None:
        """A fresh replay of the stored outcome, or None on a miss.

        The replay is a new object because :class:`PairOutcome` is mutable
        and the stored entry must survive the graph build unchanged.
        """
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._touched[fingerprint] = entry
        return PairOutcome(
            edges=list(entry.edges),
            degradations=list(entry.degradations),
            audit=list(entry.audit),
            cached=entry.cached,
            verdict=entry.verdict,
            reusable=True,
        )

    def store(self, fingerprint: str, outcome: PairOutcome) -> None:
        """Keep a clean outcome for replay; reject degraded/exhausted ones."""
        if not outcome.reusable:
            self.stats.rejected += 1
            return
        self.stats.stores += 1
        self._entries[fingerprint] = outcome
        self._touched[fingerprint] = outcome

    def export(self) -> dict[str, PairOutcome]:
        """The entries this analysis actually used (hits plus stores)."""
        return dict(self._touched)


@dataclass
class ChangeStats:
    """What one ``didChange`` did to the document's incremental state."""

    dirty: list[str] = field(default_factory=list)
    full_invalidation: bool = False


@dataclass
class Document:
    """One open document: text, version, and reusable analysis state."""

    uri: str
    text: str
    language: str = "fortran"
    version: int = 0
    #: Fingerprint-keyed clean pair outcomes from the last analysis.
    outcome_entries: dict[str, PairOutcome] = field(default_factory=dict)
    #: Full rendered results keyed by (method, options); replayed verbatim
    #: for repeat requests against an unchanged document.  Never consulted
    #: while chaos injection is active.
    response_cache: dict[str, dict] = field(default_factory=dict)

    def apply_change(self, text: str, version: int) -> ChangeStats:
        """Full-text sync: install the new text, report what went dirty.

        The ``server.invalidate`` chaos site models a fault in incremental
        bookkeeping; its degradation is *full invalidation* — dropping every
        stored outcome is always sound (the next analysis just runs cold),
        whereas keeping one stale entry never is.
        """
        stats = ChangeStats(dirty=dirty_routines(self.text, text))
        self.text = text
        self.version = version
        self.response_cache.clear()
        try:
            chaos_point("server.invalidate")
        except ChaosError:
            self.outcome_entries.clear()
            stats.full_invalidation = True
        return stats
