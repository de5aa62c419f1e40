"""The analysis daemon: admission control, deadlines, degradation accounting.

Request lifecycle::

    reader thread ──▶ control methods answered inline (open/didChange/...)
         │
         │  analysis methods (lint/vectorize): snapshot document text +
         │  outcome entries, admission-check the bounded queue
         ▼
    bounded queue ──▶ runner thread (one per worker slot)
                          │  chaos_point("server.dispatch")
                          ▼
                      WorkerSlot.run_job  ──▶ subprocess worker
                          │
            ok / died / timeout / unavailable
                          ▼
             response written under the connection's lock

Failure taxonomy (each degrades exactly one request; the daemon stays up):

* queue full            → ``overloaded`` error, RS007 tallied;
* worker died / breaker → degraded result carrying RS005;
* wall-clock timeout    → degraded result carrying RS006 (the worker is
  killed: hang detection must live outside the hung process);
* in-worker error       → degraded result carrying RS003 (the worker caught
  it and stayed alive).

A *degraded result* is a well-formed result whose diagnostics consist of
the RS finding — the maximally conservative answer for a request whose
analysis never ran — with ``"degraded": true`` so clients can distinguish
it mechanically.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import sys
import threading
import time
from dataclasses import dataclass, field

from ..core.chaos import ChaosError, ChaosState, chaos_point
from ..lint import codes
from ..lint.diagnostics import Diagnostic, render_json
from . import protocol
from .incremental import Document
from .supervisor import RestartPolicy, WorkerSlot
from .worker import WorkerWorldview


@dataclass
class ServerConfig:
    """Operational knobs of one daemon instance."""

    workers: int = 1
    queue_size: int = 16
    deadline_seconds: float = 30.0
    #: Extra wall-clock the supervisor grants beyond the analysis deadline
    #: before declaring the worker hung: the in-worker deadline degrades
    #: metered phases gracefully, the supervisor's hard kill covers
    #: unmetered ones.
    grace_seconds: float = 2.0
    strict: bool = False
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    storm_threshold: int = 5
    storm_window: float = 30.0
    breaker_cooldown: float = 10.0
    #: Enables the ``sleep`` test-hook method (never set by the CLI).
    test_hooks: bool = False


class AnalysisServer:
    """A resident, fault-isolated analysis service over JSON lines."""

    def __init__(self, config: ServerConfig | None = None, chaos: ChaosState | None = None):
        self.config = config or ServerConfig()
        self.chaos = chaos
        worldview = WorkerWorldview(
            strict=self.config.strict,
            chaos_seed=None if chaos is None else chaos.seed,
            chaos_rate=0.05 if chaos is None else chaos.rate,
            chaos_sites=None if chaos is None else chaos.sites,
        )
        self.slots = [
            WorkerSlot(
                worldview,
                RestartPolicy(
                    base_delay=self.config.backoff_base,
                    max_delay=self.config.backoff_max,
                    storm_threshold=self.config.storm_threshold,
                    storm_window=self.config.storm_window,
                    cooldown=self.config.breaker_cooldown,
                ),
            )
            for _ in range(max(1, self.config.workers))
        ]
        self.documents: dict[str, Document] = {}
        self._doc_lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue(
            maxsize=max(1, self.config.queue_size)
        )
        self._counters: dict[str, int] = {}
        self._counter_lock = threading.Lock()
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self._stop = threading.Event()
        self._shutting_down = False
        self._started = time.monotonic()
        self._runners: list[threading.Thread] = []

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        for index, slot in enumerate(self.slots):
            thread = threading.Thread(
                target=self._runner,
                args=(slot,),
                name=f"repro-serve-runner-{index}",
                daemon=True,
            )
            thread.start()
            self._runners.append(thread)

    def stop(self) -> None:
        """Hard stop: end runners, kill workers.  Used after drain or EOF."""
        self._stop.set()
        for thread in self._runners:
            thread.join(2.0)
        for slot in self.slots:
            slot.close()

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every admitted request has been answered."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._inflight_cond.wait(remaining)
        return True

    # -- transports ------------------------------------------------------------

    def serve_stdio(self, stdin=None, stdout=None) -> int:
        """Serve one connection over stdio; returns the process exit code."""
        if stdin is None:
            # Read from a private dup of fd 0 and point sys.stdin at
            # devnull.  Forked workers close sys.stdin during bootstrap;
            # if that is the stream this thread is blocked reading, the
            # child inherits its lock mid-acquisition and deadlocks.
            stdin = os.fdopen(os.dup(0), "r", encoding="utf-8")
            sys.stdin = open(os.devnull, "r", encoding="utf-8")
        stdout = sys.stdout if stdout is None else stdout
        self.start()
        lock = threading.Lock()

        def respond(line: str) -> None:
            with lock:
                stdout.write(line + "\n")
                stdout.flush()

        for raw in stdin:
            if not raw.strip():
                continue
            self._dispatch_line(raw, respond)
            if self._stop.is_set():
                break
        self.stop()
        return 0

    def serve_unix(self, path: str) -> int:
        """Serve any number of connections on a Unix socket path."""
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            os.unlink(path)
        except OSError:
            pass
        listener.bind(path)
        listener.listen(8)
        listener.settimeout(0.2)
        self.start()
        conn_threads: list[threading.Thread] = []
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True
                )
                thread.start()
                conn_threads.append(thread)
        finally:
            listener.close()
            try:
                os.unlink(path)
            except OSError:
                pass
            self.stop()
            for thread in conn_threads:
                thread.join(1.0)
        return 0

    def _serve_connection(self, conn: socket.socket) -> None:
        lock = threading.Lock()
        writer = conn.makefile("w", encoding="utf-8", newline="\n")
        reader = conn.makefile("r", encoding="utf-8")

        def respond(line: str) -> None:
            with lock:
                try:
                    writer.write(line + "\n")
                    writer.flush()
                except (BrokenPipeError, OSError):
                    pass

        try:
            for raw in reader:
                if not raw.strip():
                    continue
                self._dispatch_line(raw, respond)
                if self._stop.is_set():
                    break
        except (OSError, ValueError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    # -- request handling ------------------------------------------------------

    def _dispatch_line(self, raw: str, respond) -> None:
        methods = protocol.METHODS
        if self.config.test_hooks:
            methods = methods | {"sleep"}
        try:
            request = protocol.parse_request(raw, methods=methods)
        except protocol.ProtocolError as error:
            respond(
                protocol.render_error(
                    error.request_id, error.code, str(error)
                )
            )
            return
        try:
            self._handle(request, respond)
        except protocol.ProtocolError as error:
            respond(
                protocol.render_error(request.id, error.code, str(error))
            )
        except Exception as error:  # noqa: BLE001 — every line gets an answer
            self._count("internal_errors")
            respond(
                protocol.render_error(
                    request.id,
                    protocol.INTERNAL,
                    f"{type(error).__name__}: {error}",
                )
            )

    def _handle(self, request: protocol.Request, respond) -> None:
        self._count("requests")
        method = request.method
        if method == "open":
            self._handle_open(request, respond)
        elif method == "didChange":
            self._handle_did_change(request, respond)
        elif method == "close":
            self._handle_close(request, respond)
        elif method == "health":
            respond(protocol.render_response(request.id, self.health()))
        elif method == "shutdown":
            self._handle_shutdown(request, respond)
        else:  # lint / vectorize / sleep — the queued analysis methods
            self._admit(request, respond)

    def _handle_open(self, request: protocol.Request, respond) -> None:
        uri = protocol.required_str(request.params, "uri", request.id)
        text = protocol.required_str(request.params, "text", request.id)
        language = request.params.get("language", "fortran")
        version = int(request.params.get("version", 0))
        with self._doc_lock:
            self.documents[uri] = Document(
                uri=uri, text=text, language=language, version=version
            )
        respond(
            protocol.render_response(
                request.id, {"ok": True, "uri": uri, "version": version}
            )
        )

    def _handle_did_change(self, request: protocol.Request, respond) -> None:
        uri = protocol.required_str(request.params, "uri", request.id)
        text = protocol.required_str(request.params, "text", request.id)
        with self._doc_lock:
            doc = self.documents.get(uri)
            if doc is None:
                raise protocol.ProtocolError(
                    protocol.UNKNOWN_DOCUMENT,
                    f"document not open: {uri}",
                    request.id,
                )
            version = int(request.params.get("version", doc.version + 1))
            stats = doc.apply_change(text, version)
        if stats.full_invalidation:
            self._count("full_invalidations")
        respond(
            protocol.render_response(
                request.id,
                {
                    "ok": True,
                    "uri": uri,
                    "version": version,
                    "dirtyRoutines": stats.dirty,
                    "fullInvalidation": stats.full_invalidation,
                },
            )
        )

    def _handle_close(self, request: protocol.Request, respond) -> None:
        uri = protocol.required_str(request.params, "uri", request.id)
        with self._doc_lock:
            self.documents.pop(uri, None)
        respond(protocol.render_response(request.id, {"ok": True, "uri": uri}))

    def _handle_shutdown(self, request: protocol.Request, respond) -> None:
        self._shutting_down = True
        drained = self.drain(timeout=60.0)
        reply = {"ok": True, "drained": drained, "counters": self._snapshot()}
        # Stop before replying: a client holding the reply may rely on the
        # daemon having stopped.
        self._stop.set()
        respond(protocol.render_response(request.id, reply))

    def _admit(self, request: protocol.Request, respond) -> None:
        """Admission control for the analysis queue."""
        if self._shutting_down:
            raise protocol.ProtocolError(
                protocol.SHUTTING_DOWN,
                "server is shutting down",
                request.id,
            )
        if request.method == "sleep":  # test hook; bypasses documents
            item = {
                "request": request,
                "respond": respond,
                "job": {
                    "kind": "sleep",
                    "id": request.id,
                    "seconds": float(request.params.get("seconds", 0.5)),
                },
                "uri": None,
                "doc_version": None,
                "deadline_abs": time.monotonic()
                + float(
                    request.params.get(
                        "deadlineSeconds", self.config.deadline_seconds
                    )
                ),
                "cache_key": None,
            }
            self._enqueue(item, request, respond)
            return

        uri = protocol.required_str(request.params, "uri", request.id)
        with self._doc_lock:
            doc = self.documents.get(uri)
            if doc is None:
                raise protocol.ProtocolError(
                    protocol.UNKNOWN_DOCUMENT,
                    f"document not open: {uri}",
                    request.id,
                )
            text, language, version = doc.text, doc.language, doc.version
            entries = dict(doc.outcome_entries)
            cache_key = None
            if self.chaos is None:
                options = {
                    k: v for k, v in request.params.items() if k != "uri"
                }
                cache_key = (
                    f"{request.method}:"
                    f"{json.dumps(options, sort_keys=True)}"
                )
                cached = doc.response_cache.get(cache_key)
                if cached is not None:
                    self._count("replayed_responses")
                    respond(protocol.render_response(request.id, cached))
                    return

        deadline_seconds = float(
            request.params.get(
                "deadlineSeconds", self.config.deadline_seconds
            )
        )
        job = {
            "kind": request.method,
            "id": request.id,
            "uri": uri,
            "text": text,
            "language": request.params.get("language", language),
            "deadline_seconds": deadline_seconds,
            "entries": entries,
        }
        for key in (
            "assume",
            "audit",
            "ranges",
            "schedule",
            "werror",
            "no_verify",
            "emit",
        ):
            if key in request.params:
                job[key] = request.params[key]
        item = {
            "request": request,
            "respond": respond,
            "job": job,
            "uri": uri,
            "doc_version": version,
            "deadline_abs": time.monotonic() + deadline_seconds,
            "cache_key": cache_key,
        }
        self._enqueue(item, request, respond)

    def _enqueue(self, item: dict, request: protocol.Request, respond) -> None:
        with self._inflight_cond:
            self._inflight += 1
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            self._finish_one()
            self._count("shed")
            respond(
                protocol.render_error(
                    request.id,
                    protocol.OVERLOADED,
                    "analysis queue is full; retry later",
                    rs=codes.RS007,
                )
            )

    def _finish_one(self) -> None:
        with self._inflight_cond:
            self._inflight -= 1
            self._inflight_cond.notify_all()

    # -- runners ---------------------------------------------------------------

    def _runner(self, slot: WorkerSlot) -> None:
        while True:
            try:
                item = self._queue.get(timeout=0.1)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            try:
                self._process(slot, item)
            except Exception as error:  # noqa: BLE001 — runners must survive
                self._count("internal_errors")
                item["respond"](
                    protocol.render_error(
                        item["request"].id,
                        protocol.INTERNAL,
                        f"{type(error).__name__}: {error}",
                    )
                )
            finally:
                self._finish_one()

    def _process(self, slot: WorkerSlot, item: dict) -> None:
        request = item["request"]
        respond = item["respond"]
        try:
            chaos_point("server.dispatch")
        except ChaosError as error:
            self._count("dispatch_faults")
            self._respond_degraded(
                item, codes.RS005, f"request dispatch failed: {error}"
            )
            return
        timeout = (
            max(0.0, item["deadline_abs"] - time.monotonic())
            + self.config.grace_seconds
        )
        status, payload = slot.run_job(item["job"], timeout)
        if status == "ok" and isinstance(payload, dict) and payload.get("ok"):
            self._merge_entries(item, payload)
            self._tally(payload.get("stats") or {})
            result = payload.get("result", {"ok": True})
            if item["cache_key"] is not None and not result.get("degraded"):
                with self._doc_lock:
                    doc = self.documents.get(item["uri"])
                    if doc is not None and doc.version == item["doc_version"]:
                        doc.response_cache[item["cache_key"]] = result
            self._count("responses_ok")
            respond(protocol.render_response(request.id, result))
        elif status == "ok":
            # The worker survived but the analysis failed inside it.
            detail = (payload or {}).get("error", "analysis failed")
            self._count("worker_errors")
            self._respond_degraded(
                item, codes.RS003, f"analysis failed in worker: {detail}"
            )
        elif status == "timeout":
            self._count("deadline_timeouts")
            self._respond_degraded(
                item,
                codes.RS006,
                f"request exceeded its {item['job'].get('deadline_seconds')}s "
                "deadline; worker killed",
            )
        elif status == "unavailable":
            self._count("unavailable")
            self._respond_degraded(
                item,
                codes.RS005,
                "no analysis worker available (backoff or open breaker)",
            )
        else:  # died
            self._count("worker_deaths")
            self._respond_degraded(
                item, codes.RS005, "analysis worker died during the request"
            )

    def _merge_entries(self, item: dict, payload: dict) -> None:
        entries = payload.get("entries")
        if entries is None or item["uri"] is None or self.chaos is not None:
            return
        with self._doc_lock:
            doc = self.documents.get(item["uri"])
            if doc is not None and doc.version == item["doc_version"]:
                # Replace-with-export: entries unused by this analysis are
                # exactly the stale ones, so the swap is also the pruning.
                doc.outcome_entries = entries

    def _respond_degraded(self, item: dict, code: str, detail: str) -> None:
        """A well-formed, maximally conservative result for a dead request."""
        self._count("degraded_responses")
        request = item["request"]
        diag = Diagnostic.make(code, f"serve: {detail}")
        if item["job"]["kind"] == "lint":
            output = render_json([diag], filename=item["uri"])
        else:
            output = f"{diag}\n"
        result = {
            "output": output,
            "exit": 0,
            "degraded": True,
            "degradedCodes": [code],
        }
        item["respond"](protocol.render_response(request.id, result))

    # -- observability ---------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._counter_lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def _tally(self, stats: dict) -> None:
        for key, counter in (
            ("replayedPairs", "replayed_pairs"),
            ("evaluatedPairs", "evaluated_pairs"),
            ("pairs", "analyzed_pairs"),
            ("cacheHits", "problem_cache_hits"),
            ("cacheMisses", "problem_cache_misses"),
        ):
            value = stats.get(key)
            if value:
                self._count(counter, int(value))

    def _snapshot(self) -> dict:
        with self._counter_lock:
            return dict(sorted(self._counters.items()))

    def health(self) -> dict:
        """The ``health`` payload: liveness, counters, worker states."""
        with self._doc_lock:
            documents = len(self.documents)
        workers = []
        for index, slot in enumerate(self.slots):
            workers.append(
                {
                    "slot": index,
                    "pid": slot.pid,
                    "alive": slot.alive(),
                    "spawns": slot.spawns,
                    "deaths": slot.policy.total_deaths,
                    "breakerOpen": slot.policy.breaker_open(),
                    "breakerTrips": slot.policy.breaker_trips,
                }
            )
        return {
            "ok": True,
            "protocolVersion": protocol.PROTOCOL_VERSION,
            "uptimeSeconds": round(time.monotonic() - self._started, 3),
            "shuttingDown": self._shutting_down,
            "documents": documents,
            "queueDepth": self._queue.qsize(),
            "queueCapacity": self._queue.maxsize,
            "workers": workers,
            "counters": self._snapshot(),
        }
