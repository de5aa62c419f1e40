"""The chaos harness proves the resilience invariants under injected faults.

1. **no-crash** — with any injected fault the pipeline still returns a
   report;
2. **sound degradation** — the degraded graph's edges cover the fault-free
   graph's edges (superset invariant), and a schedule reported as verified
   re-verifies cleanly against the fault-free graph.
"""

import os
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chaos import (
    SITES,
    ChaosError,
    ChaosState,
    active_state,
    chaos,
    chaos_point,
    state_from_env,
)
from repro.core.resilience import uncovered_edges
from repro.deptests import (
    DependenceProblem,
    acyclic_test,
    exhaustive_test,
    omega_test,
    shostak_test,
    simple_loop_residue_test,
)
from repro.deptests.counting import solution_census
from repro.driver import compile_fortran
from repro.vectorizer import verify_schedule

#: CI matrixes over REPRO_CHAOS_SEED; locally the fleet starts from 1.
BASE_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1"))

SOURCES = {
    "equivalence-2d": (
        "REAL A(0:9, 0:9), B(100), C(200)\n"
        "EQUIVALENCE (A, B)\n"
        "DO 1 i = 0, 4\n"
        "DO 1 j = 0, 9\n"
        "B(i + 10*j + 5) = B(i + 10*j) + 1\n"
        "1 C(i + 10*j) = C(i + 10*j + 5) + A(i, j)\n"
    ),
    "recurrence": (
        "REAL D(0:99), E(0:9,0:9)\n"
        "DO 1 i = 0, 8\n"
        "D(i+1) = D(i) + 1\n"
        "1 E(i, i) = E(i, i) + D(i)\n"
    ),
}


@pytest.fixture(scope="module")
def baselines():
    """Fault-free reports, computed once with chaos guaranteed off."""
    assert active_state() is None
    return {
        name: compile_fortran(src, audit=True)
        for name, src in SOURCES.items()
    }


class TestDeterminism:
    def test_decide_is_a_pure_function_of_seed_site_hit(self):
        first = ChaosState(seed=42, rate=0.5)
        second = ChaosState(seed=42, rate=0.5)
        sequence = ["a.site", "b.site", "a.site"] * 20
        assert [first.decide(s) for s in sequence] == [
            second.decide(s) for s in sequence
        ]

    def test_different_seeds_differ(self):
        sequence = ["a.site"] * 64
        a = [ChaosState(seed=1, rate=0.5).decide(s) for s in sequence]
        b = [ChaosState(seed=2, rate=0.5).decide(s) for s in sequence]
        assert a != b

    def test_counters_reset_per_activation(self):
        runs = []
        for _ in range(2):
            with chaos(7, rate=0.5) as state:
                for _ in range(50):
                    try:
                        chaos_point("deptest.omega")
                    except ChaosError:
                        pass
            runs.append(list(state.fired))
        assert runs[0] == runs[1]

    def test_same_seed_same_degradations(self, baselines):
        outcomes = []
        for _ in range(2):
            with chaos(BASE_SEED, rate=0.5):
                report = compile_fortran(SOURCES["equivalence-2d"], audit=True)
            outcomes.append([str(d) for d in report.degradations])
        assert outcomes[0] == outcomes[1]

    def test_inactive_harness_is_a_noop(self):
        assert active_state() is None
        chaos_point("deptest.omega")  # must not raise


class TestEnvActivation:
    def test_absent_seed_means_off(self):
        assert state_from_env({}) is None
        assert state_from_env({"REPRO_CHAOS_SEED": "  "}) is None

    def test_seed_rate_and_sites(self):
        state = state_from_env(
            {
                "REPRO_CHAOS_SEED": "9",
                "REPRO_CHAOS_RATE": "0.25",
                "REPRO_CHAOS_SITES": "deptest.omega, depgraph.pair",
            }
        )
        assert state.seed == 9
        assert state.rate == 0.25
        assert state.sites == {"deptest.omega", "depgraph.pair"}

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos sites"):
            state_from_env(
                {"REPRO_CHAOS_SEED": "1", "REPRO_CHAOS_SITES": "no.such"}
            )


def _serve_one_lint():
    """Push one open+lint through an in-process daemon's dispatch path."""
    import json

    from repro.server import AnalysisServer, ServerConfig

    server = AnalysisServer(ServerConfig(workers=1), chaos=active_state())
    server.start()
    responses = []
    try:
        server._dispatch_line(
            json.dumps(
                {
                    "v": 1,
                    "id": 1,
                    "method": "open",
                    "params": {"uri": "t.f", "text": SOURCES["recurrence"]},
                }
            ),
            responses.append,
        )
        server._dispatch_line(
            json.dumps(
                {"v": 1, "id": 2, "method": "lint", "params": {"uri": "t.f"}}
            ),
            responses.append,
        )
        server.drain(30.0)
    finally:
        server.stop()
    return responses


def _linearized_3d():
    """i1-i2 + 8(j1-j2) + 64(k1-k2) - 10 = 0 over 0..7: the scan splits."""
    names = ("i1", "i2", "j1", "j2", "k1", "k2")
    return DependenceProblem.single(
        dict(zip(names, (1, -1, 8, -8, 64, -64))),
        -10,
        {name: 7 for name in names},
        pairs=[("i1", "i2"), ("j1", "j2"), ("k1", "k2")],
    )


def _site_trigger(site, intro_equation):
    """An operation that reaches the given injection site."""
    import tempfile

    from repro.core import delinearize
    from repro.core.cache import ProblemCache
    from repro.depgraph import analyze_dependences
    from repro.frontend import parse_fortran
    from repro.server.incremental import Document
    from repro.server.supervisor import WorkerSlot
    from repro.server.worker import WorkerWorldview
    from repro.vectorizer import vectorize

    program = parse_fortran(SOURCES["recurrence"])
    triggers = {
        "deptest.omega": lambda: omega_test(intro_equation),
        "deptest.exhaustive": lambda: exhaustive_test(intro_equation),
        "deptest.acyclic": lambda: acyclic_test(intro_equation),
        "deptest.shostak": lambda: shostak_test(intro_equation),
        "deptest.residue": lambda: simple_loop_residue_test(intro_equation),
        "audit.count": lambda: solution_census(intro_equation),
        # The theorem/group sites need a linearized multi-dim pair to be
        # consulted at all; the EQUIVALENCE program guarantees that.
        "theorem.condition": lambda: compile_fortran(
            SOURCES["equivalence-2d"], audit=True
        ),
        "delinearize.scan": lambda: delinearize(intro_equation),
        "delinearize.split": lambda: delinearize(_linearized_3d()),
        "groups.solve": lambda: compile_fortran(
            SOURCES["equivalence-2d"], audit=True
        ),
        "depgraph.pair": lambda: analyze_dependences(program),
        "vectorize.codegen": lambda: vectorize(analyze_dependences(program)),
        "schedule.verify": lambda: (
            lambda graph: verify_schedule(vectorize(graph), graph)
        )(analyze_dependences(program)),
        "server.spawn": lambda: WorkerSlot(WorkerWorldview()).run_job(
            {"kind": "ping", "id": 1}, 5.0
        ),
        "server.dispatch": _serve_one_lint,
        "server.cache_lock": lambda: ProblemCache().load_disk(
            tempfile.mkdtemp()
        ),
        "server.invalidate": lambda: Document(uri="t.f", text="a").apply_change(
            "b", 1
        ),
    }
    return triggers[site]


@pytest.mark.parametrize("site", sorted(SITES))
def test_every_site_is_reachable(site, intro_equation):
    """Forcing a single site at rate 1.0 must actually hit it."""
    trigger = _site_trigger(site, intro_equation)
    with chaos(BASE_SEED, rate=1.0, sites={site}) as state:
        try:
            trigger()
        except ChaosError:
            pass  # sites consumed outside a barrier surface the raw fault
    assert site in {s for s, _ in state.fired}


def test_fault_fleet_no_crash_and_sound(baselines):
    """>= 200 injected faults: zero crashes, zero unsound degradations."""
    total_faults = 0
    compiles = 0
    seed = BASE_SEED * 1000
    while total_faults < 200 and compiles < 400:
        for name, source in SOURCES.items():
            base = baselines[name]
            with chaos(seed, rate=0.3) as state:
                report = compile_fortran(source, audit=True)  # must not raise
            compiles += 1
            total_faults += len(state.fired)
            # Invariant 2a: the degraded graph covers every true dependence.
            assert uncovered_edges(report.graph, base.graph) == []
            # Every fired fault leaves an RS trace; none may pass silently.
            if state.fired:
                assert report.degraded
            # Invariant 2b: a schedule reported as verified re-verifies
            # cleanly against the fault-free graph.
            if report.schedule_ok:
                diags = verify_schedule(report.plan, base.graph)
                assert not any(d.severity == "error" for d in diags)
        seed += 1
    assert total_faults >= 200, f"only {total_faults} faults in {compiles} compiles"


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), rate=st.floats(0.05, 1.0))
def test_random_fault_patterns_stay_sound(seed, rate):
    source = SOURCES["recurrence"]
    base = compile_fortran(source, audit=True)
    with chaos(seed, rate=rate):
        report = compile_fortran(source, audit=True)
    assert uncovered_edges(report.graph, base.graph) == []
    if report.schedule_ok:
        diags = verify_schedule(report.plan, base.graph)
        assert not any(d.severity == "error" for d in diags)


def test_strict_mode_reraises_injected_faults():
    with chaos(BASE_SEED, rate=1.0, sites={"depgraph.pair"}):
        with pytest.raises(ChaosError):
            compile_fortran(SOURCES["recurrence"], strict=True)


class TestScope:
    """Scoped states give each daemon request (``req<id>``) its own stream."""

    def test_empty_scope_preserves_legacy_decisions(self):
        # The scope field must not perturb existing seeded fault patterns:
        # an empty scope uses the exact pre-scope decision token.
        sequence = ["deptest.omega", "depgraph.pair"] * 32
        base = ChaosState(seed=5, rate=0.5)
        scoped = ChaosState(seed=5, rate=0.5, scope="")
        assert [base.decide(s) for s in sequence] == [
            scoped.decide(s) for s in sequence
        ]
        token = zlib.crc32(b"5:deptest.omega:0")
        assert ChaosState(seed=5, rate=0.5).decide("deptest.omega") == (
            token % 1_000_000 < 500_000
        )

    def test_scope_changes_the_decision_stream(self):
        sequence = ["deptest.omega"] * 64
        plain = ChaosState(seed=5, rate=0.5)
        scoped = ChaosState(seed=5, rate=0.5, scope="req0")
        assert [plain.decide(s) for s in sequence] != [
            scoped.decide(s) for s in sequence
        ]

    def test_same_scope_same_stream(self):
        sequence = ["deptest.omega", "theorem.condition"] * 32
        a = ChaosState(seed=5, rate=0.5, scope="req3")
        b = ChaosState(seed=5, rate=0.5, scope="req3")
        assert [a.decide(s) for s in sequence] == [
            b.decide(s) for s in sequence
        ]
