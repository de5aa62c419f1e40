"""Per-document incremental state: diffing, the outcome cache, invalidation."""

from repro.core.chaos import chaos
from repro.depgraph.builder import PairOutcome
from repro.server.incremental import (
    Document,
    OutcomeCache,
    dirty_routines,
    split_routines,
)

TWO_ROUTINES = (
    "SUBROUTINE ALPHA(X)\n"
    "REAL X(0:9)\n"
    "X(1) = 0\n"
    "END\n"
    "SUBROUTINE BETA(Y)\n"
    "REAL Y(0:9)\n"
    "Y(2) = 0\n"
    "END\n"
)


def clean_outcome(verdict="independent"):
    return PairOutcome(verdict=verdict, reusable=True)


class TestSplitRoutines:
    def test_headerless_file_is_one_toplevel_chunk(self):
        text = "REAL A(0:9)\nA(1) = 0\n"
        assert split_routines(text) == [("<toplevel>", text)]

    def test_headers_start_chunks(self):
        names = [name for name, _ in split_routines(TWO_ROUTINES)]
        assert names == ["ALPHA", "BETA"]

    def test_text_before_the_first_header_is_toplevel(self):
        text = "C leading comment\n" + TWO_ROUTINES
        names = [name for name, _ in split_routines(text)]
        assert names == ["<toplevel>", "ALPHA", "BETA"]

    def test_chunks_reassemble_to_the_source(self):
        assert "".join(c for _, c in split_routines(TWO_ROUTINES)) == (
            TWO_ROUTINES
        )


class TestDirtyRoutines:
    def test_no_change_is_clean(self):
        assert dirty_routines(TWO_ROUTINES, TWO_ROUTINES) == []

    def test_only_the_edited_routine_is_dirty(self):
        edited = TWO_ROUTINES.replace("Y(2) = 0", "Y(2) = 1")
        assert dirty_routines(TWO_ROUTINES, edited) == ["BETA"]

    def test_added_and_removed_routines_are_dirty(self):
        only_alpha = TWO_ROUTINES.split("SUBROUTINE BETA")[0]
        assert dirty_routines(only_alpha, TWO_ROUTINES) == ["BETA"]
        assert dirty_routines(TWO_ROUTINES, only_alpha) == ["BETA"]


class TestOutcomeCache:
    def test_lookup_replays_a_fresh_object(self):
        stored = clean_outcome()
        cache = OutcomeCache({"fp": stored})
        replay = cache.lookup("fp")
        assert replay is not stored
        assert replay.verdict == stored.verdict
        assert replay.reusable
        replay.edges.append("mutation")
        assert stored.edges == []  # the stored entry must survive the build
        assert cache.stats.hits == 1

    def test_miss_is_counted(self):
        cache = OutcomeCache()
        assert cache.lookup("nope") is None
        assert cache.stats.misses == 1

    def test_store_rejects_non_reusable_outcomes(self):
        cache = OutcomeCache()
        cache.store("fp", PairOutcome(reusable=False))
        assert len(cache) == 0
        assert cache.stats.rejected == 1
        assert cache.export() == {}

    def test_export_is_exactly_the_touched_entries(self):
        cache = OutcomeCache({"old": clean_outcome(), "stale": clean_outcome()})
        cache.lookup("old")
        cache.store("new", clean_outcome())
        exported = cache.export()
        # "stale" was never touched by this analysis: it is pruned by the
        # daemon's replace-with-export cycle.
        assert set(exported) == {"old", "new"}


class TestDocument:
    def test_apply_change_updates_and_reports_dirt(self):
        doc = Document(uri="a.f", text=TWO_ROUTINES, version=1)
        doc.response_cache["lint:{}"] = {"ok": True}
        edited = TWO_ROUTINES.replace("X(1) = 0", "X(1) = 2")
        stats = doc.apply_change(edited, 2)
        assert doc.text == edited
        assert doc.version == 2
        assert stats.dirty == ["ALPHA"]
        assert not stats.full_invalidation
        assert doc.response_cache == {}  # rendered replies never survive edits

    def test_outcome_entries_survive_an_ordinary_change(self):
        doc = Document(uri="a.f", text="a", outcome_entries={"fp": object()})
        doc.apply_change("b", 1)
        assert "fp" in doc.outcome_entries

    def test_invalidation_fault_drops_everything(self):
        # A fault in incremental bookkeeping degrades to full invalidation:
        # losing reuse is sound, keeping one stale entry never is.
        doc = Document(uri="a.f", text="a", outcome_entries={"fp": object()})
        with chaos(1, rate=1.0, sites={"server.invalidate"}):
            stats = doc.apply_change("b", 1)
        assert stats.full_invalidation
        assert doc.outcome_entries == {}
