"""Worker supervision: crash/hang detection, backoff, circuit breaking.

The daemon owns one :class:`WorkerSlot` per configured worker; each slot
lazily spawns a subprocess worker and shepherds jobs through it:

* a worker that dies mid-job (crash, OOM kill, injected fault, external
  SIGKILL) is detected as a broken pipe and reported as ``"died"``;
* a worker that exceeds the job's wall-clock allowance is killed and
  reported as ``"timeout"`` — hang detection is the supervisor's job
  because a hard-stuck worker by definition cannot meter its own budget;
* every death schedules the next spawn with exponential backoff
  (``base * 2^(n-1)``, capped), and a *restart storm* — too many deaths
  within a sliding window — opens a circuit breaker that refuses spawns for
  a cooldown period, reported as ``"unavailable"``.

All four statuses degrade exactly one request each; the daemon stays up.
The policy's clock is injectable so the backoff/breaker arithmetic is unit
tested without sleeping.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass

from ..core.chaos import ChaosError, chaos_point
from .worker import WorkerWorldview, worker_main

#: Worker processes are forked; a worker runs only the recv/execute/send
#: loop, so the fork inherits no daemon thread state it could trip over.
_MP_CONTEXT = multiprocessing.get_context("fork")

#: Seconds a worker gets to honour an exit message before it is killed.
_EXIT_GRACE = 0.5


@dataclass
class RestartPolicy:
    """Exponential backoff plus a restart-storm circuit breaker."""

    base_delay: float = 0.05
    max_delay: float = 2.0
    storm_threshold: int = 5
    storm_window: float = 30.0
    cooldown: float = 10.0
    clock: object = time.monotonic

    def __post_init__(self):
        self.deaths: list[float] = []
        self.consecutive = 0
        self.not_before = 0.0
        self.breaker_until = 0.0
        self.total_deaths = 0
        self.breaker_trips = 0

    def note_failure(self) -> float:
        """Record a death; returns the backoff delay before the next spawn."""
        now = self.clock()
        self.total_deaths += 1
        self.consecutive += 1
        self.deaths = [
            t for t in self.deaths if now - t <= self.storm_window
        ]
        self.deaths.append(now)
        delay = min(
            self.max_delay, self.base_delay * (2 ** (self.consecutive - 1))
        )
        self.not_before = now + delay
        if len(self.deaths) >= self.storm_threshold:
            self.breaker_until = now + self.cooldown
            self.breaker_trips += 1
        return delay

    def note_success(self) -> None:
        self.consecutive = 0

    def breaker_open(self) -> bool:
        return self.clock() < self.breaker_until

    def can_spawn(self) -> bool:
        return self.clock() >= self.not_before and not self.breaker_open()


class WorkerHandle:
    """One live worker subprocess plus its pipe."""

    def __init__(self, config: WorkerWorldview):
        chaos_point("server.spawn")
        parent_conn, child_conn = _MP_CONTEXT.Pipe()
        self.conn = parent_conn
        self.process = _MP_CONTEXT.Process(
            target=worker_main, args=(child_conn, config), daemon=True
        )
        self.process.start()
        child_conn.close()

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    def call(self, job: dict, timeout: float):
        """Send one job; returns ``(status, payload)``.

        Status is ``"ok"`` (payload is the worker's reply), ``"died"`` or
        ``"timeout"``.  The poll loop uses short slices so a death is
        noticed promptly rather than at the deadline.
        """
        try:
            self.conn.send(job)
        except (BrokenPipeError, OSError):
            return "died", None
        deadline = time.monotonic() + max(timeout, 0.0)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return "timeout", None
            try:
                ready = self.conn.poll(min(remaining, 0.05))
            except (BrokenPipeError, OSError):
                return "died", None
            if ready:
                try:
                    return "ok", self.conn.recv()
                except (EOFError, OSError):
                    return "died", None
            if not self.process.is_alive():
                # Drain a reply that raced with the exit, if any.
                try:
                    if self.conn.poll(0):
                        return "ok", self.conn.recv()
                except (EOFError, OSError):
                    pass
                return "died", None

    def shutdown(self) -> None:
        """Polite exit first, then the hammer."""
        try:
            self.conn.send({"kind": "exit"})
        except (BrokenPipeError, OSError):
            pass
        self.process.join(_EXIT_GRACE)
        if self.process.is_alive():
            self.kill()

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, ValueError):
            pass
        self.process.join(1.0)
        try:
            self.conn.close()
        except OSError:
            pass


class WorkerSlot:
    """One supervised worker position: handle + restart policy."""

    def __init__(self, config: WorkerWorldview, policy: RestartPolicy | None = None):
        self.config = config
        self.policy = policy or RestartPolicy()
        self.handle: WorkerHandle | None = None
        self.spawns = 0

    @property
    def pid(self) -> int | None:
        return self.handle.pid if self.handle is not None else None

    def alive(self) -> bool:
        return self.handle is not None and self.handle.alive()

    def run_job(self, job: dict, timeout: float):
        """Run one job; returns ``(status, payload)``.

        Status is ``"ok"``, ``"died"``, ``"timeout"`` or ``"unavailable"``
        (backoff window or open breaker — no spawn was attempted).  Any
        non-ok status has already killed/cleared the worker and recorded
        the failure with the policy.
        """
        if not self.alive():
            if not self.policy.can_spawn():
                return "unavailable", None
            try:
                self.handle = WorkerHandle(self.config)
                self.spawns += 1
            except (ChaosError, OSError) as error:
                self.handle = None
                self.policy.note_failure()
                return "unavailable", str(error)
        status, payload = self.handle.call(job, timeout)
        if status == "ok":
            self.policy.note_success()
            return status, payload
        self.handle.kill()
        self.handle = None
        self.policy.note_failure()
        return status, None

    def close(self) -> None:
        if self.handle is not None:
            self.handle.shutdown()
            self.handle = None
