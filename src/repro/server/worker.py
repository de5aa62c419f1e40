"""The subprocess analysis worker.

One worker process executes one job at a time over a ``multiprocessing``
pipe.  The contract with the supervisor:

* :func:`execute_job` never raises — an analysis error becomes an
  ``{"ok": false}`` payload the daemon turns into a degraded response;
* a job that *kills* the process (a real crash, an injected one, or an
  external SIGKILL) is detected by the supervisor as a broken pipe and
  degrades only that request;
* output strings are byte-identical to the one-shot CLI: a ``lint`` result
  carries exactly what ``repro lint --format=json <uri>`` would print (sans
  trailing newline), a ``vectorize`` result exactly what
  ``repro vectorize <uri>`` would.

Chaos is per-request: when the daemon was started with fault injection, the
job carries the seed/rate/site filter and the worker activates a state
scoped to ``req<id>``, so each request draws its own deterministic fault
stream no matter which worker it lands on or how often workers restart.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from ..core.chaos import ChaosState, maybe_chaos
from .incremental import OutcomeCache


@dataclass(frozen=True)
class WorkerWorldview:
    """Everything a worker inherits from the server, picklable."""

    strict: bool = False
    cache_dir: str | None = None
    chaos_seed: int | None = None
    chaos_rate: float = 0.05
    chaos_sites: frozenset | None = None


def worker_main(conn, config: WorkerWorldview) -> None:
    """The worker loop: recv job, execute, send result, repeat until EOF."""
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return
        if job.get("kind") == "exit":
            return
        result = execute_job(job, config)
        try:
            conn.send(result)
        except (BrokenPipeError, OSError):
            return


def execute_job(job: dict, config: WorkerWorldview) -> dict:
    """Run one job; any failure is reported, never raised."""
    kind = job.get("kind")
    job_id = job.get("id")
    if kind == "ping":
        return {"id": job_id, "ok": True, "pong": True}
    if kind == "sleep":  # test hook: a deterministic hang
        time.sleep(float(job.get("seconds", 1.0)))
        return {"id": job_id, "ok": True, "slept": True}
    if kind == "crash":  # test hook: a deterministic worker death
        os._exit(int(job.get("status", 13)))
    if kind not in ("lint", "vectorize"):
        return {"id": job_id, "ok": False, "error": f"unknown job kind {kind!r}"}

    state = None
    if config.chaos_seed is not None:
        state = ChaosState(
            config.chaos_seed,
            config.chaos_rate,
            config.chaos_sites,
            scope=f"req{job_id}",
        )
    try:
        with maybe_chaos(state):
            if kind == "lint":
                payload = _run_lint(job, config, chaos_active=state is not None)
            else:
                payload = _run_vectorize(job, config)
        payload["id"] = job_id
        payload["ok"] = True
        return payload
    except Exception as error:  # noqa: BLE001 — the isolation boundary
        return {
            "id": job_id,
            "ok": False,
            "error": f"{type(error).__name__}: {error}",
        }


def _deadline_for(job: dict) -> float | None:
    seconds = job.get("deadline_seconds")
    return None if seconds is None else time.monotonic() + float(seconds)


def _assumptions_for(job: dict):
    from ..cli import _parse_assumptions  # lazy: cli imports server.daemon

    return _parse_assumptions(job.get("assume", ""))


def _run_lint(job: dict, config: WorkerWorldview, chaos_active: bool) -> dict:
    from ..lint.diagnostics import render_json
    from ..lint.engine import lint_source

    outcome_cache = None
    if not chaos_active:
        outcome_cache = OutcomeCache(job.get("entries") or {})
    report = lint_source(
        job["text"],
        language=job.get("language", "fortran"),
        assumptions=_assumptions_for(job),
        audit=job.get("audit", True),
        ranges=job.get("ranges", True),
        schedule=job.get("schedule", False),
        strict=config.strict,
        use_cache=True,
        cache_dir=config.cache_dir,
        outcome_cache=outcome_cache,
        deadline=_deadline_for(job),
    )
    output = render_json(report.diagnostics, filename=job["uri"])
    degraded = [d.code for d in report.diagnostics if d.code.startswith("RS")]
    result = {
        "output": output,
        "exit": 2 if report.fails(werror=job.get("werror", False)) else 0,
        "degraded": bool(degraded),
        "degradedCodes": sorted(set(degraded)),
        "errors": report.error_count,
        "warnings": report.warning_count,
    }
    stats = {
        "replayedPairs": 0 if outcome_cache is None else outcome_cache.stats.hits,
        "evaluatedPairs": (
            0 if outcome_cache is None else outcome_cache.stats.misses
        ),
    }
    return {
        "result": result,
        "stats": stats,
        "entries": None if outcome_cache is None else outcome_cache.export(),
    }


def _run_vectorize(job: dict, config: WorkerWorldview) -> dict:
    from ..driver import compile_c, compile_fortran

    compiler = compile_c if job.get("language") == "c" else compile_fortran
    report = compiler(
        job["text"],
        _assumptions_for(job),
        verify=not job.get("no_verify", False),
        strict=config.strict,
        use_cache=True,
        cache_dir=config.cache_dir,
        deadline=_deadline_for(job),
    )
    from ..vectorizer import emit_c_program, emit_program

    emitted = (
        emit_c_program(report.plan)
        if job.get("emit") == "c"
        else emit_program(report.plan)
    )
    # Exactly the one-shot CLI's stdout: the emitted program, then one line
    # per schedule diagnostic, then one per degradation.
    lines = [
        str(d) for d in (*report.schedule_diagnostics, *report.degradations)
    ]
    output = emitted + "".join(f"{line}\n" for line in lines)
    degraded = [d.code for d in report.degradations]
    result = {
        "output": output,
        "exit": 0 if report.schedule_ok else 2,
        "degraded": bool(degraded),
        "degradedCodes": sorted(set(degraded)),
        "vectorized": report.vectorized_statements,
    }
    perf = report.perf.graph
    stats = {
        "pairs": 0 if perf is None else perf.pairs,
        "cacheHits": 0 if perf is None else perf.cache_hits,
        "cacheMisses": 0 if perf is None else perf.cache_misses,
    }
    return {"result": result, "stats": stats, "entries": None}
