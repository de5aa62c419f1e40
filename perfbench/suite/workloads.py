"""The four workloads: timed windows, correctness checks and traced passes.

Load shape: one client in a closed loop, with no sleeps and no more worker
processes than ``min(2, nproc)``.  A window runs whole passes over the
workload's input set until its ops have taken ``seconds`` at reference host
speed (so a loaded host stretches the window instead of thinning the
samples, up to :data:`WALL_LIMIT` times its length), with at least two
passes and at least 21 samples; each op is one sample, timed by a
:class:`suite.stats.Clock`.
Before each one-shot op the harness calls :func:`repro.clear_all` outside
the timer, because a one-shot CLI process starts with cold caches.  One
untimed warm-up op runs first.

The end-to-end window runs untraced.  The traced pass (``traced_run``) is a
separate run over the same inputs that wraps the layers' public functions
(:mod:`suite.trace`) and checks that it measured the same work as an
untraced call.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from repro import clear_all
from repro.driver import compile_fortran
from repro.ir.interp import InterpreterError, run_program
from repro.lint.diagnostics import render_json, sort_diagnostics
from repro.lint.engine import lint_source
from repro.server.client import ServeClient
from repro.server.incremental import OutcomeCache
from repro.vectorizer import run_schedule

from . import WORKDIR, child_env
from . import inputs as seeded
from .stats import (
    REFERENCE_KERNEL_S,
    TAIL_BEYOND,
    Clock,
    calibrating,
    child_kernels,
    median,
    tail,
    timed,
)
from .trace import LAYERS, Tracer, captured

#: Pair-pool workers for ``vectorize_solve`` (``repro vectorize --jobs``).
JOBS = min(2, os.cpu_count() or 1)

#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_SPAWNS = 9


@dataclass
class Samples:
    """Latencies of one kind of op: at reference host speed, and raw."""

    scaled: list[float] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)

    def add(self, scaled_seconds: float, raw_seconds: float) -> None:
        self.scaled.append(scaled_seconds)
        self.raw.append(raw_seconds)

    def __len__(self) -> int:
        return len(self.scaled)


@dataclass
class Result:
    """What one workload run measured and found."""

    attempted: int = 0
    failed: int = 0
    #: One line per wrong result: any of these makes the run incorrect.
    wrong: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: Layer -> mean self time per traced op, in ms.
    layer_ms: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.notes.append(f"failed: {message}")


def _judge(result: Result, name: str, diagnostics) -> None:
    """An op degraded (``RS``) failed; a soundness finding (``DS``) or a
    schedule-verifier error is a wrong result."""
    if any(d.code.startswith("RS") for d in diagnostics):
        result.fail(f"{name}: degraded")
    wrong = sorted(
        {
            d.code
            for d in diagnostics
            if d.code.startswith("DS")
            or (d.code.startswith("VR") and d.severity == "error")
        }
    )
    if wrong:
        result.wrong.append(f"{name}: reported {', '.join(wrong)}")


def peak_rss_mb() -> float:
    """The larger of this process's and its waited-for children's peak RSS.

    Read right after the timed window, so that it covers the ops under test
    and not the correctness checks, the traced pass or their interpreters.
    """
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024
    )


def _spawned(seconds: float, kernels: list[float]) -> tuple[float, float]:
    """``(at reference speed, raw)`` of a :func:`calibrating` spawn that
    took ``seconds``, less the time of its own kernel runs."""
    raw = seconds - sum(kernels)
    return raw * REFERENCE_KERNEL_S / median(kernels), raw


def _python(code: str) -> tuple[float, float, str]:
    """Run ``code`` in a fresh, self-calibrating interpreter; returns
    :func:`_spawned`'s two times and the interpreter's stdout."""
    seconds, proc = timed(
        subprocess.run,
        [sys.executable, "-c", calibrating(code)],
        env=child_env(),
        check=True,
        capture_output=True,
        text=True,
    )
    return (*_spawned(seconds, child_kernels(proc.stderr)), proc.stdout)


def spawn_setup(module: str, repeats: int) -> Samples:
    """Fresh interpreters from spawn to exit after ``import module``."""
    samples = Samples()
    for attempt in range(repeats + 1):
        scaled, raw, _ = _python(f"import {module}")
        if attempt:  # the first spawn writes the bytecode caches
            samples.add(scaled, raw)
    return samples


def import_ms(module: str, repeats: int = 3) -> float:
    """Median time of ``import module`` in a fresh interpreter, in ms at
    reference host speed."""
    code = (
        f"started = time.perf_counter()\nimport {module}\n"
        "print(time.perf_counter() - started)"
    )
    samples = []
    for _ in range(repeats):
        scaled, raw, stdout = _python(code)
        samples.append(float(stdout) * scaled / raw)
    return median(samples) * 1000


def latency_metrics(
    result: Result, samples: Samples, ops: int, busy_seconds: float
) -> None:
    """``op_p50_ms`` and ``op_tail_ms`` from op latencies, and
    ``ops_per_s`` as ``ops`` completed in ``busy_seconds``."""
    percentile, value = tail(samples.scaled)
    result.metric("op_p50_ms", median(samples.scaled) * 1000, "ms")
    result.metric("op_tail_ms", value * 1000, "ms")
    result.metric("ops_per_s", ops / busy_seconds, "1/s")
    host = median([s / r for s, r in zip(samples.scaled, samples.raw)])
    result.notes.append(
        f"op_tail_ms is p{percentile:.1f} of {len(samples)} samples; "
        f"raw op p50 {median(samples.raw) * 1000:.3f} ms on a host running "
        f"at {host:.2f}x reference speed"
    )


# -- one-shot workloads -------------------------------------------------------


def vectorize_output(report) -> str:
    """What ``repro vectorize`` prints for a compiled report."""
    lines = [str(d) for d in (*report.schedule_diagnostics, *report.degradations)]
    return report.output + "".join(f"{line}\n" for line in lines)


@dataclass(frozen=True)
class OneShot:
    """A workload whose op is one call of a one-shot entry point."""

    #: The module ``setup_s`` imports in a fresh interpreter.
    entry_module: str
    #: ``None`` for ``compile_fortran``; else ``lint_source(schedule=...)``.
    schedule: bool | None
    jobs: int
    #: Where the entry point calls ``analyze_dependences`` (its graph is
    #: captured from there for the fidelity checks).
    graph_site: tuple[str, str]

    def call(self, item: seeded.Input, jobs: int):
        """``(printed output, diagnostics)`` of one op."""
        if self.schedule is None:
            report = compile_fortran(item.text, jobs=jobs)
            return vectorize_output(report), [
                *report.schedule_diagnostics,
                *report.degradations,
            ]
        report = lint_source(item.text, schedule=self.schedule, jobs=jobs)
        return (
            render_json(report.diagnostics, filename=item.name),
            report.diagnostics,
        )


ONE_SHOT = {
    "lint_audit": OneShot(
        "repro.lint.engine", False, 1, ("repro.depgraph", "analyze_dependences")
    ),
    "vectorize_solve": OneShot(
        "repro.driver", None, JOBS, ("repro.driver", "analyze_dependences")
    ),
    "corpus_mixed": OneShot(
        "repro.lint.engine", True, 1, ("repro.depgraph", "analyze_dependences")
    ),
}


#: A window ends after this many times ``seconds`` of wall time even if its
#: ops have not yet taken ``seconds`` at reference speed: it bounds a run's
#: length on a heavily loaded host.
WALL_LIMIT = 2.5


def _enough(
    passes: int,
    samples: int,
    busy: float,
    started: float,
    seconds: float,
    failed: int,
) -> bool:
    """Stop after whole passes: the ops have taken ``seconds`` (``busy``, at
    reference speed) or the window has run :data:`WALL_LIMIT` times that
    since ``started``, at least two passes ran and the tail percentile lies
    above the median (unless ops are failing)."""
    return (
        passes >= 2
        and (samples > 2 * TAIL_BEYOND or failed > 0)
        and (
            busy >= seconds
            or time.perf_counter() - started >= WALL_LIMIT * seconds
        )
    )


def one_shot_window(
    spec: OneShot, items: list[seeded.Input], seconds: float, result: Result
) -> tuple[Samples, dict[str, str]]:
    """Timed whole passes; returns op latencies and each input's output."""
    spec.call(items[0], spec.jobs)  # untimed warm-up
    samples, clock = Samples(), Clock(pooled=spec.jobs > 1)
    first: dict[str, str] = {}
    passes = 0
    started = time.perf_counter()
    while not _enough(
        passes,
        len(samples),
        sum(samples.scaled),
        started,
        seconds,
        result.failed,
    ):
        for item in items:
            clear_all()
            result.attempted += 1
            try:
                op, raw, (output, diagnostics) = clock(
                    spec.call, item, spec.jobs
                )
            except Exception as error:  # noqa: BLE001 — a raising op failed
                result.fail(f"{item.name}: {type(error).__name__}: {error}")
                continue
            samples.add(op, raw)
            _judge(result, item.name, diagnostics)
            if first.setdefault(item.name, output) != output:
                result.wrong.append(f"{item.name}: output changed between passes")
        passes += 1
    return samples, first


def check_execution(
    spec: OneShot,
    items: list[seeded.Input],
    outputs: dict[str, str],
    result: Result,
) -> None:
    """Run each input serially and through its vectorized schedule.

    The reference interpreter's final store must equal the store the
    schedule computes under vector semantics; for ``vectorize_solve`` the
    window's ``--jobs`` output must also equal the serial (``jobs=1``) one.
    """
    for item in items:
        clear_all()
        report = compile_fortran(item.text)
        try:
            serial = run_program(report.program, item.env).snapshot()
            vector = run_schedule(report.plan, item.env).snapshot()
        except InterpreterError as error:
            result.wrong.append(f"{item.name}: cannot execute: {error}")
            continue
        if serial != vector:
            result.wrong.append(
                f"{item.name}: vectorized schedule computes a different store"
            )
        if spec.schedule is None and outputs.get(item.name) != vectorize_output(
            report
        ):
            result.wrong.append(
                f"{item.name}: --jobs {spec.jobs} output differs from serial"
            )


def _graph_call(spec: OneShot, item: seeded.Input, jobs: int, clock: Clock):
    """An untraced op that also yields its graph.

    Returns ``(scaled seconds, output, graph, scaled analysis seconds)``.
    """
    clear_all()
    sink: list = []
    with captured(*spec.graph_site, sink):
        seconds, raw, (output, _) = clock(spec.call, item, jobs)
    graph, analyze = sink[-1]
    return seconds, output, graph, analyze * seconds / raw


def _fidelity(name: str, tracer: Tracer, graph) -> list[str]:
    """Differences between what the trace observed and what the untraced
    call's graph reports: verdicts, cache hits/misses, audit findings."""
    perf = graph.perf
    expected = {
        verdict: count
        for verdict, count in perf.verdicts.items()
        if verdict not in ("unbuildable", "degraded")
    }
    observed = {
        key.split(".", 1)[1]: count
        for key, count in tracer.counts.items()
        if key.startswith("verdict.")
    }
    problems = []
    if observed != expected:
        problems.append(f"{name}: traced verdicts {observed} != {expected}")
    hits = tracer.counts["cache_hits"]
    misses = tracer.counts["solve_calls"] - hits
    if (hits, misses) != (perf.cache_hits, perf.cache_misses):
        problems.append(
            f"{name}: traced cache hit/miss {hits}/{misses} != "
            f"{perf.cache_hits}/{perf.cache_misses}"
        )
    if sort_diagnostics(tracer.audit_diagnostics) != list(
        graph.audit_diagnostics
    ):
        problems.append(f"{name}: traced audit findings differ")
    return problems


@dataclass
class Split:
    """Accumulated traced work: layer self times and first-pass counts.

    Times are at reference host speed.
    """

    layer_seconds: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(LAYERS, 0.0)
    )
    counts: Counter = field(default_factory=Counter)
    ops: int = 0
    traced_seconds: float = 0.0
    untraced_seconds: float = 0.0
    analyze_seconds: float = 0.0

    def add_op(self, traced: float, untraced: float, analyze: float) -> None:
        self.ops += 1
        self.traced_seconds += traced
        self.untraced_seconds += untraced
        self.analyze_seconds += analyze

    def add_trace(self, tracer: Tracer, factor: float, counts: bool) -> None:
        """Add a tracer's layer times, scaled by ``factor``; its counters
        too when ``counts`` (first pass only)."""
        for layer, seconds in tracer.layer_seconds().items():
            self.layer_seconds[layer] += seconds * factor
        if counts:
            self.counts.update(tracer.counts)

    def add_graph(self, graph, batches: int | None = None) -> None:
        perf = graph.perf
        self.counts["pairs"] += perf.pairs
        self.counts["edges"] += len(graph.edges)
        self.counts["degraded_pairs"] += perf.degraded_pairs
        self.counts["pool_batches"] += (
            perf.batches if batches is None else batches
        )


def one_shot_traced(
    spec: OneShot, items: list[seeded.Input], seconds: float, result: Result
) -> Split:
    """Traced passes until the window ends (at least one).

    Per input: an untraced ``jobs=1`` reference call, the same call traced,
    and — for a ``--jobs`` workload — an untraced call at the workload's
    jobs, whose ``analyze_dependences`` time is ``depgraph.analyze_ms``.
    """
    split, clock = Split(), Clock()
    passes = 0
    started = time.perf_counter()
    while passes < 1 or time.perf_counter() - started < seconds:
        for item in items:
            untraced, reference, graph, analyze = _graph_call(
                spec, item, 1, clock
            )
            clear_all()
            tracer = Tracer()

            def traced_call():
                with tracer.installed(), tracer.span(item.name, "entry"):
                    return spec.call(item, 1)

            traced, raw, (output, _) = clock(traced_call)
            result.attempted += 1
            if output != reference:
                result.wrong.append(f"{item.name}: traced output differs")
            result.wrong.extend(_fidelity(item.name, tracer, graph))
            batches = None
            if spec.jobs > 1:
                _, _, pooled, analyze = _graph_call(
                    spec, item, spec.jobs, clock
                )
                batches = pooled.perf.batches
            split.add_op(traced, untraced, analyze)
            split.add_trace(tracer, traced / raw, counts=passes == 0)
            if passes == 0:
                split.add_graph(graph, batches)
                split.counts["lines"] += len(item.text.splitlines())
                result.spans.extend(tracer.export())
        passes += 1
    return split


# -- serve_session ------------------------------------------------------------

#: Requests per pass of the daemon script: 50% edits, 25% repeats, 25%
#: vectorize.  Smoke runs use a quarter.
SCRIPT = {"edit": 20, "repeat": 10, "vectorize": 10}

#: Sampled daemon states checked against the one-shot CLI, per kind.
ORACLE_SAMPLES = 10

#: Passes whose edits the traced pass replays in-process: every run makes
#: at least two, so the replayed work is the same for a seed.
REPLAYED_PASSES = 2


@dataclass
class Session:
    """What one daemon session recorded."""

    edits: Samples = field(default_factory=Samples)
    repeats: Samples = field(default_factory=Samples)
    vectorizes: Samples = field(default_factory=Samples)
    health: Samples = field(default_factory=Samples)
    counters: dict = field(default_factory=dict)
    #: ``(kind, uri, text, output)`` states sampled for the CLI oracle.
    states: list[tuple[str, str, str, str]] = field(default_factory=list)
    #: ``(uri, text, output)`` of the edits of the first passes, in order.
    edit_log: list[tuple[str, str, str]] = field(default_factory=list)


def _spawn_daemon() -> ServeClient:
    """A daemon with one worker, answering ``health``."""
    client = ServeClient.spawn_stdio(["--workers", "1"], env=child_env())
    try:
        client.result("health")
    except BaseException:
        client.close()
        raise
    return client


#: ``python -m repro serve --workers 1``, as a ``python -c`` program.
DAEMON = (
    "import runpy\n"
    "sys.argv = ['repro', 'serve', '--workers', '1']\n"
    "runpy.run_module('repro', run_name='__main__', alter_sys=True)"
)


def daemon_setup(repeats: int) -> Samples:
    """Daemon spawn to its first ``health`` reply."""
    argv = [sys.executable, "-c", calibrating(DAEMON)]
    samples = Samples()
    for attempt in range(repeats + 1):
        started = time.perf_counter()
        process = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
        )
        try:
            with ServeClient(process.stdout, process.stdin, process=process) as client:
                client.result("health")
                seconds = time.perf_counter() - started
                kernels = child_kernels(process.stderr.readline())
                client.shutdown()
        finally:
            process.stderr.close()
        if attempt:  # the first spawn writes the bytecode caches
            samples.add(*_spawned(seconds, kernels))
    return samples


def _call(client, result: Result, method: str, params: dict):
    """One request; ``None`` (and a failed op) on an error reply."""
    response = client.request(method, params)
    if "error" in response:
        error = response["error"]
        result.fail(f"{method}: {error.get('code')}: {error.get('message')}")
        return None
    reply = response["result"]
    if reply.get("degraded"):
        result.fail(f"{method}: degraded {reply.get('degradedCodes')}")
    return reply


def _check_reply(result: Result, kind: str, uri: str, reply: dict) -> None:
    if kind == "vectorize":
        if reply.get("exit") != 0:
            result.wrong.append(f"{uri}: vectorize schedule failed")
        return
    codes = {d["code"] for d in json.loads(reply["output"])["diagnostics"]}
    if any(code.startswith("RS") for code in codes):
        result.fail(f"{uri}: lint degraded")
    if any(code.startswith("DS") for code in codes):
        result.wrong.append(f"{uri}: lint reported a DS finding")


def run_session(
    items: list[seeded.Input],
    seed: int,
    seconds: float,
    smoke: bool,
    result: Result,
) -> Session:
    """The daemon closed loop: whole scripted passes until the window ends.

    An edit is a ``didChange`` that rewrites the trailing constant of one
    assignment, then ``lint``; a repeat is ``lint`` on an unchanged
    document; a vectorize is ``vectorize`` on the current text.  Edits cycle
    through every (document, assignment) target in a seeded order, and
    repeats and vectorizes cycle through the documents, so every run spreads
    its requests over the documents the same way.
    """
    session = Session()
    texts = {item.name: item.text for item in items}
    rng = random.Random(f"serve-script:{seed}")
    targets = [
        (uri, line) for uri in texts for line in seeded.editable_lines(texts[uri])
    ]
    rng.shuffle(targets)
    cycles = {
        "edit": itertools.cycle(targets),
        "repeat": itertools.cycle((uri, None) for uri in texts),
        "vectorize": itertools.cycle((uri, None) for uri in texts),
    }
    share = 4 if smoke else 1
    oracle_samples = ORACLE_SAMPLES // (5 if smoke else 1)
    clock = Clock()
    with _spawn_daemon() as client:
        for uri, text in texts.items():
            client.result("open", {"uri": uri, "text": text})
        for uri in texts:  # untimed warm-up: each document's first analysis
            client.result("lint", {"uri": uri})
        client.result("vectorize", {"uri": next(iter(texts))})

        def request(kind: str, uri: str):
            if kind == "edit":
                changed = _call(
                    client, result, "didChange", {"uri": uri, "text": texts[uri]}
                )
                return changed and _call(client, result, "lint", {"uri": uri})
            method = "lint" if kind == "repeat" else "vectorize"
            return _call(client, result, method, {"uri": uri})

        passes = 0
        busy = 0.0
        started = time.perf_counter()
        while not _enough(
            passes, len(session.edits), busy, started, seconds, result.failed
        ):
            kinds = [
                kind
                for kind, count in SCRIPT.items()
                for _ in range(count // share)
            ]
            rng.shuffle(kinds)
            sampled = set()
            if passes == 0:
                lint_at = [i for i, k in enumerate(kinds) if k != "vectorize"]
                vector_at = [i for i, k in enumerate(kinds) if k == "vectorize"]
                sampled = set(rng.sample(lint_at, oracle_samples))
                sampled |= set(rng.sample(vector_at, oracle_samples))
            for position, kind in enumerate(kinds):
                uri, line = next(cycles[kind])
                if kind == "edit":
                    texts[uri] = seeded.edit(texts[uri], line, rng.randrange(2, 100))
                result.attempted += 1
                latency, raw, reply = clock(request, kind, uri)
                busy += latency
                if reply is None:
                    continue
                samples = {
                    "edit": session.edits,
                    "repeat": session.repeats,
                    "vectorize": session.vectorizes,
                }[kind]
                samples.add(latency, raw)
                _check_reply(result, kind, uri, reply)
                if kind == "edit" and passes < REPLAYED_PASSES:
                    session.edit_log.append((uri, texts[uri], reply["output"]))
                if position in sampled:
                    oracle_kind = "vectorize" if kind == "vectorize" else "lint"
                    session.states.append(
                        (oracle_kind, uri, texts[uri], reply["output"])
                    )
            passes += 1

        for _ in range(20):
            latency, raw, reply = clock(client.result, "health")
            session.health.add(latency, raw)
        session.counters = reply["counters"]
        client.shutdown()
    return session


def check_states(session: Session, result: Result) -> None:
    """Sampled daemon outputs must equal the one-shot CLI's, byte for byte."""
    states = [
        {"kind": kind, "uri": uri, "text": text}
        for kind, uri, text, _ in session.states
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "suite.oneshot", str(WORKDIR / "oneshot")],
        input=json.dumps(states),
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        result.wrong.append(f"one-shot oracle failed: {proc.stderr.strip()}")
        return
    for (kind, uri, _, output), printed in zip(
        session.states, json.loads(proc.stdout)
    ):
        expected = output + "\n" if kind == "lint" else output
        if printed != expected:
            result.wrong.append(f"{uri}: daemon {kind} differs from one-shot CLI")


#: Per-layer metrics only the daemon workload produces (0 elsewhere, so
#: none of them is a time).
SERVER_METRICS = {
    "server.dispatch_share": "ratio",
    "server.pair_replay_ratio": "ratio",
    "server.evaluated_pairs": "count",
    "server.replayed_responses": "count",
    "server.problem_cache_hit_ratio": "ratio",
    "server.worker_deaths": "count",
}


def serve_traced(
    items: list[seeded.Input], session: Session, result: Result
) -> Split:
    """Replay the recorded edits in-process, as the daemon's worker runs
    them: ``lint_source`` with an :class:`OutcomeCache` of the document's
    last analysis.  Each edit runs untraced, then traced from the same cache
    state; both outputs must equal the daemon's.

    ``server.dispatch_share`` is the share of those edits' round trips that
    the untraced in-process analysis does not account for: protocol, pipes
    and supervision."""
    split, clock = Split(), Clock()
    clear_all()
    entries = {}
    for item in items:  # each document's first analysis, as in the session
        cache = OutcomeCache()
        lint_source(item.text, outcome_cache=cache)
        entries[item.name] = cache.export()
    for index, (uri, text, output) in enumerate(session.edit_log):
        sink: list = []
        cache = OutcomeCache(entries[uri])
        with captured("repro.depgraph", "analyze_dependences", sink):
            untraced, raw, report = clock(lint_source, text, outcome_cache=cache)
        graph, analyze = sink[-1]
        tracer = Tracer()

        def traced_edit():
            with tracer.installed(), tracer.span(f"edit{index}", "entry"):
                return lint_source(text, outcome_cache=OutcomeCache(entries[uri]))

        traced, traced_raw, replayed = clock(traced_edit)
        entries[uri] = cache.export()
        for rerun in (report, replayed):
            if render_json(rerun.diagnostics, filename=uri) != output:
                result.wrong.append(f"{uri}: in-process replay differs from daemon")
        split.add_op(traced, untraced, analyze * untraced / raw)
        split.add_trace(tracer, traced / traced_raw, counts=True)
        split.add_graph(graph)
        split.counts["lines"] += len(text.splitlines())
        result.spans.extend(tracer.export())
    result.attempted += split.ops

    counters = Counter(session.counters)
    replayed = counters["replayed_pairs"]
    evaluated = counters["evaluated_pairs"]
    hits = counters["problem_cache_hits"]
    # The edit log holds the first successful edits, in order.
    round_trips = sum(session.edits.scaled[: split.ops])
    inproc_ms = split.untraced_seconds / split.ops * 1000
    result.notes.append(
        "daemon round trips (median ms): "
        f"health {median(session.health.scaled) * 1000:.3f}, "
        f"repeat {median(session.repeats.scaled) * 1000:.3f}, "
        f"vectorize {median(session.vectorizes.scaled) * 1000:.3f}; "
        f"in-process edit (mean ms): {inproc_ms:.3f}"
    )
    values = {
        "server.dispatch_share": 1 - split.untraced_seconds / round_trips,
        "server.pair_replay_ratio": replayed / max(1, replayed + evaluated),
        "server.evaluated_pairs": evaluated,
        "server.replayed_responses": counters["replayed_responses"],
        "server.problem_cache_hit_ratio": hits
        / max(1, hits + counters["problem_cache_misses"]),
        "server.worker_deaths": counters["worker_deaths"],
    }
    for name, unit in SERVER_METRICS.items():
        result.metric(name, values[name], unit)
    return split


# -- per-layer metrics --------------------------------------------------------

def layer_metrics(result: Result, split: Split, entry_module: str) -> None:
    """Every per-layer metric from a traced split.

    A layer's time is reported as its share of the traced op time
    (``<layer>_share``), next to that time itself (``trace.op_ms``).  A
    layer a workload never calls has share 0; no metric in a time unit is 0
    by construction.  The split in ms per op is printed with the result.
    """
    ops = max(1, split.ops)
    total = sum(split.layer_seconds.values())
    for layer, seconds in split.layer_seconds.items():
        result.metric(f"{layer}_share", seconds / total, "ratio")
        result.layer_ms[layer] = seconds / ops * 1000
    result.metric("trace.op_ms", total / ops * 1000, "ms")
    counts = split.counts
    solves = counts["solve_calls"]
    result.metric("startup.import_ms", import_ms(entry_module), "ms")
    result.metric("frontend.lines", counts["lines"], "count")
    for name in ("pairs", "edges", "pool_batches", "degraded_pairs"):
        result.metric(f"depgraph.{name}", counts[name], "count")
    result.metric(
        "depgraph.analyze_ms", split.analyze_seconds / ops * 1000, "ms"
    )
    result.metric("core.solve_calls", solves, "count")
    result.metric(
        "core.cache_hit_ratio",
        counts["cache_hits"] / solves if solves else 0,
        "ratio",
    )
    for verdict in ("independent", "dependent", "maybe"):
        result.metric(
            f"core.verdict_{verdict}", counts[f"verdict.{verdict}"], "count"
        )
    for name in (
        "audit_enumerated",
        "audit_box_points",
        "audit_skipped_large",
        "audit_skipped_symbolic",
    ):
        result.metric(f"lint.{name}", counts[name], "count")
    result.metric("vectorizer.vector_stmts", counts["vector_stmts"], "count")
    result.metric(
        "trace.overhead_ratio",
        split.traced_seconds / split.untraced_seconds
        if split.untraced_seconds
        else 0,
        "ratio",
    )
    for name, unit in SERVER_METRICS.items():
        result.metrics.setdefault(name, (0.0, unit))


# -- entry point --------------------------------------------------------------

WORKLOADS = ("lint_audit", "vectorize_solve", "corpus_mixed", "serve_session")


def run(
    workload: str,
    seed: int,
    seconds: float,
    timed_run: bool,
    traced_run: bool,
    smoke: bool,
) -> tuple[Result, list[seeded.Input]]:
    """One workload: the timed window and/or the traced pass."""
    items = seeded.build(workload, seed, smoke)
    result = Result()
    setup_spawns = 1 if smoke else SETUP_SPAWNS
    if workload == "serve_session":
        if timed_run:
            setup = daemon_setup(setup_spawns)
        session = run_session(items, seed, seconds, smoke, result)
        rss = peak_rss_mb()  # the daemon has been waited for; no oracle yet
        if timed_run:
            kinds = (session.edits, session.repeats, session.vectorizes)
            latency_metrics(
                result,
                session.edits,
                sum(len(samples) for samples in kinds),
                sum(sum(samples.scaled) for samples in kinds),
            )
        check_states(session, result)
        if traced_run:
            layer_metrics(
                result,
                serve_traced(items, session, result),
                "repro.cli, repro.server.daemon",
            )
    else:
        spec = ONE_SHOT[workload]
        if timed_run:
            setup = spawn_setup(spec.entry_module, setup_spawns)
            samples, outputs = one_shot_window(spec, items, seconds, result)
            rss = peak_rss_mb()  # before the checks add their own memory
            latency_metrics(result, samples, len(samples), sum(samples.scaled))
            check_execution(spec, items, outputs, result)
        if traced_run:
            layer_metrics(
                result,
                one_shot_traced(spec, items, seconds, result),
                spec.entry_module,
            )
    if timed_run:
        result.metric("setup_s", median(setup.scaled), "s")
        result.notes.append(f"raw setup_s {median(setup.raw):.4f} s")
        result.metric("peak_rss_mb", rss, "MB")
    return result, items
