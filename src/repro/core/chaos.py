"""Deterministic fault injection: the chaos harness.

The resilience layer (:mod:`repro.core.resilience`) claims two invariants:

1. **no-crash** — with any injected fault the pipeline still returns a
   report, and
2. **sound degradation** — the degraded dependence graph covers the
   fault-free graph (see :func:`repro.core.resilience.uncovered_edges`),
   and no unverified schedule is reported as verified.

This module provides the machinery to *prove* those claims under test.
Named injection sites are sprinkled through the dependence tests, the
delinearization theorem/scan, the graph builder, the vectorizer, and the
schedule verifier; each is a :func:`chaos_point` call that is a no-op until
a :class:`ChaosState` is activated (context manager, ``REPRO_CHAOS_SEED``
environment variable, or the ``--chaos-seed`` CLI flag).

Activation is fully deterministic: whether the ``n``-th hit of a site
raises is a pure function of ``(seed, site, n, rate)`` via CRC32 — no
process-global randomness, so the same seed reproduces the same faults
byte-for-byte (the degraded-path determinism tests rely on this).
"""

from __future__ import annotations

import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Every named injection site, with the subsystem it lives in.  Kept in one
#: place so the harness can assert coverage (each site must actually fire).
SITES: dict[str, str] = {
    "deptest.omega": "omega_test entry (deptests/omega.py)",
    "deptest.exhaustive": "exhaustive_test entry (deptests/exhaustive.py)",
    "deptest.acyclic": "acyclic_test entry (deptests/acyclic.py)",
    "deptest.shostak": "shostak_test entry (deptests/loop_residue.py)",
    "deptest.residue": "simple_loop_residue_test entry (deptests/loop_residue.py)",
    "audit.count": "solution_census entry (deptests/counting.py)",
    "theorem.condition": "condition_holds (core/theorem.py)",
    "delinearize.scan": "per-equation scan (core/delinearize.py)",
    "delinearize.split": "case split of the scan remainder (core/delinearize.py)",
    "groups.solve": "solve_group entry (core/groups.py)",
    "depgraph.pair": "per-pair analysis (depgraph/builder.py)",
    "vectorize.codegen": "vectorize entry (vectorizer/allen_kennedy.py)",
    "schedule.verify": "verify_schedule entry (lint/schedule.py)",
    "server.spawn": "analysis-worker spawn (server/supervisor.py)",
    "server.dispatch": "request dispatch to a worker (server/daemon.py)",
    "server.cache_lock": "persistent-cache lock acquisition (core/cache.py)",
    "server.invalidate": "incremental invalidation (server/incremental.py)",
}

#: Environment variables honoured by :func:`state_from_env`.
ENV_SEED = "REPRO_CHAOS_SEED"
ENV_RATE = "REPRO_CHAOS_RATE"
ENV_SITES = "REPRO_CHAOS_SITES"

#: Default activation probability per site hit when chaos is on.  Low by
#: design: with rate 1.0 the very first site on every path would fire and
#: deeper sites would never be exercised.
DEFAULT_RATE = 0.05


class ChaosError(RuntimeError):
    """The injected fault.  Deterministic message for reproducible reports."""

    def __init__(self, site: str, hit: int):
        self.site = site
        self.hit = hit
        super().__init__(f"injected fault at site {site!r} (hit {hit})")


@dataclass
class ChaosState:
    """One activation of the harness: seed, rate, site filter, telemetry.

    ``scope`` gives each daemon request its own fault stream: a worker
    process serving many requests installs a fresh state scoped ``req<id>``
    per request (:mod:`repro.server.worker`), so a request's faults depend on
    its id alone, not on which worker ran it or what ran there before.  An
    empty scope (the default, used by every one-shot entry point) leaves the
    decision digest exactly as before, so existing seeded fault patterns are
    unchanged.
    """

    seed: int
    rate: float = DEFAULT_RATE
    sites: frozenset[str] | None = None  # None = every registered site
    scope: str = ""
    hits: dict[str, int] = field(default_factory=dict)
    fired: list[tuple[str, int]] = field(default_factory=list)

    def decide(self, site: str) -> bool:
        """Deterministically decide whether this hit of ``site`` faults."""
        if self.sites is not None and site not in self.sites:
            return False
        hit = self.hits.get(site, 0)
        self.hits[site] = hit + 1
        if self.scope:
            token = f"{self.seed}:{self.scope}:{site}:{hit}"
        else:
            token = f"{self.seed}:{site}:{hit}"
        digest = zlib.crc32(token.encode())
        if (digest % 1_000_000) < self.rate * 1_000_000:
            self.fired.append((site, hit))
            return True
        return False


_STATE: ChaosState | None = None


def chaos_point(site: str) -> None:
    """A named injection site: raises :exc:`ChaosError` when chaos says so.

    A no-op (one global load and an ``is None`` test) when the harness is
    inactive, so sites are free on the production path.
    """
    state = _STATE
    if state is not None and state.decide(site):
        raise ChaosError(site, state.hits[site] - 1)


def active_state() -> ChaosState | None:
    """The currently-installed chaos state, if any."""
    return _STATE


@contextmanager
def chaos(
    seed: int,
    rate: float = DEFAULT_RATE,
    sites: frozenset[str] | set[str] | None = None,
    scope: str = "",
):
    """Activate fault injection for the dynamic extent of the block.

    Counters start fresh on every activation, which is what makes two runs
    with the same seed byte-identical.  Yields the :class:`ChaosState` so
    tests can inspect ``state.fired`` afterwards.
    """
    state = ChaosState(
        seed, rate, None if sites is None else frozenset(sites), scope
    )
    token = _install(state)
    try:
        yield state
    finally:
        _restore(token)


@contextmanager
def maybe_chaos(state: ChaosState | None):
    """Activate ``state`` when given; no-op context otherwise (CLI glue)."""
    if state is None:
        yield None
        return
    token = _install(state)
    try:
        yield state
    finally:
        _restore(token)


def _install(state: ChaosState) -> ChaosState | None:
    global _STATE
    previous = _STATE
    _STATE = state
    return previous


def _restore(previous: ChaosState | None) -> None:
    global _STATE
    _STATE = previous


def state_from_env(environ=os.environ) -> ChaosState | None:
    """Build a :class:`ChaosState` from ``REPRO_CHAOS_*``, or None.

    ``REPRO_CHAOS_SEED`` (int) switches the harness on; ``REPRO_CHAOS_RATE``
    (float in [0, 1]) and ``REPRO_CHAOS_SITES`` (comma-separated site names)
    refine it.
    """
    raw = environ.get(ENV_SEED)
    if raw is None or not raw.strip():
        return None
    seed = int(raw)
    rate = float(environ.get(ENV_RATE, DEFAULT_RATE))
    sites_raw = environ.get(ENV_SITES, "").strip()
    sites = None
    if sites_raw:
        sites = frozenset(s.strip() for s in sites_raw.split(",") if s.strip())
        unknown = sites - set(SITES)
        if unknown:
            raise ValueError(
                f"unknown chaos sites: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(SITES))})"
            )
    return ChaosState(seed, rate, sites)
