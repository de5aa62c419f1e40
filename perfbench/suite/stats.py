"""Measurement helpers: calibrated timing, percentiles, spreads, bound checks.

The benchmark shares its host with other tenants, whose load changes how
fast this interpreter runs by up to 2x from one minute to the next.  So
every timed sample is bracketed by runs of :func:`kernel`, a fixed
interpreter-bound loop, and reported at the reference host speed:
``raw * REFERENCE_KERNEL_S / mean kernel seconds`` (see :class:`Clock`).  On a host running at
reference speed the two agree; on a loaded host the raw time grows and the
scaled one does not.  Raw values are kept too and printed next to the
scaled ones.

A spawned interpreter may run on another CPU than its parent, at another
speed, so it calibrates itself: :func:`calibrating` prefixes its program
with kernel runs whose times it reports on stderr.

The bound checks read ``BENCHMARK.json`` at the repository root, so the
thresholds a change is judged by live in one place.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import time
from pathlib import Path

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10

#: The percentiles a tail is reported at: the highest one with at least
#: ``TAIL_BEYOND`` samples beyond it.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

#: About the median time of :func:`kernel` on the reference host (a 2-CPU
#: Intel Xeon container, CPython 3.11) when no other load is running.
REFERENCE_KERNEL_S = 0.0025


def kernel() -> int:
    """A fixed loop of dict, tuple, integer and sorting work (~2.5 ms).

    It exercises the interpreter the way the analyzer does, so a host
    slowdown stretches it as much as it stretches an op.
    """
    counts: dict[tuple[int, int], int] = {}
    for i in range(10_000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i * 3 % 11
    return len(sorted(counts.items(), key=lambda kv: (kv[1], kv[0])))


def timed(function, *args, **kwargs):
    """``(seconds, result)`` of one call, timed with ``perf_counter``."""
    started = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - started, result


class Clock:
    """Times calls at reference host speed.

    Each call is calibrated by the mean of the :func:`kernel` times just
    before and just after it; consecutive calls share the measurement
    between them.

    The CPUs of one host can run at different speeds, each changing over
    time.  A call that runs where the caller runs is calibrated by one
    kernel run there.  A call that spreads its work over a process pool
    (``pooled``) runs at the mean speed of the CPUs, so it is calibrated by
    one kernel run pinned to each CPU of this process in turn, whose speeds
    are averaged.
    """

    def __init__(self, pooled: bool = False):
        self._cpus = sorted(os.sched_getaffinity(0)) if pooled else None
        self._last: float | None = None

    def _kernel_seconds(self) -> float:
        if self._cpus is None:
            return timed(kernel)[0]
        speeds = []
        try:
            for cpu in self._cpus:
                os.sched_setaffinity(0, {cpu})
                speeds.append(1 / timed(kernel)[0])
        finally:
            os.sched_setaffinity(0, self._cpus)
        return len(speeds) / sum(speeds)

    def __call__(self, function, *args, **kwargs):
        """``(seconds at reference speed, raw seconds, result)``."""
        before = self._last if self._last is not None else self._kernel_seconds()
        seconds, result = timed(function, *args, **kwargs)
        self._last = self._kernel_seconds()
        scale = 2 * REFERENCE_KERNEL_S / (before + self._last)
        return seconds * scale, seconds, result


#: Kernel runs a spawned interpreter makes before its program.
CHILD_KERNELS = 6


def calibrating(code: str) -> str:
    """Source for ``python -c``: :data:`CHILD_KERNELS` runs of
    :func:`kernel`, their durations written to stderr as the first line,
    then ``code``.  Only built-in modules are imported before ``code``."""
    return "\n".join(
        [
            "import sys, time",
            inspect.getsource(kernel),
            "_kernels = []",
            f"for _ in range({CHILD_KERNELS}):",
            "    _started = time.perf_counter()",
            "    kernel()",
            "    _kernels.append(time.perf_counter() - _started)",
            "print(*_kernels, file=sys.stderr, flush=True)",
            code,
        ]
    )


def child_kernels(stderr: str) -> list[float]:
    """The kernel durations a :func:`calibrating` program reported."""
    return [float(word) for word in stderr.splitlines()[0].split()]


def median(values) -> float:
    return statistics.median(values)


def percentile(samples, p: float) -> float:
    """The ``p``-th percentile under linear interpolation."""
    ordered = sorted(samples)
    position = (len(ordered) - 1) * p / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(samples) -> tuple[float, float]:
    """``(percentile, value)``: the highest of :data:`TAIL_PERCENTILES` with
    at least ``TAIL_BEYOND`` samples beyond it."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= TAIL_BEYOND:
            return p, percentile(samples, p)
    raise ValueError(f"{n} samples leave none with {TAIL_BEYOND} beyond")


def spread(values) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def load_contract(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def bounds(contract: dict) -> dict[str, dict]:
    """End-to-end metric name -> its entry (unit, direction, bound)."""
    return {entry["name"]: entry for entry in contract["end_to_end"]}


def worse_by(entry: dict, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base
    return change if entry["better"] == "lower" else -change


def spread_failures(contract: dict, runs: dict[str, list[dict]]) -> list[str]:
    """End-to-end metrics whose run-to-run spread exceeds their bound.

    ``runs`` maps a workload to the metric dicts of its runs.
    """
    failures = []
    for workload, metric_runs in runs.items():
        for name, entry in bounds(contract).items():
            value = spread([run[name] for run in metric_runs])
            if value > entry["bound"]:
                failures.append(
                    f"{workload} {name}: spread {value:.3f} > "
                    f"bound {entry['bound']}"
                )
    return failures


def regression_failures(
    contract: dict,
    base: dict[str, list[dict]],
    new: dict[str, list[dict]],
) -> list[str]:
    """Metrics whose median in ``new`` is worse than in ``base`` by more
    than their bound."""
    failures = []
    for workload in sorted(base.keys() & new.keys()):
        for name, entry in bounds(contract).items():
            before = median([run[name] for run in base[workload]])
            after = median([run[name] for run in new[workload]])
            worse = worse_by(entry, before, after)
            if worse > entry["bound"]:
                failures.append(
                    f"{workload} {name}: {before:.4g} -> {after:.4g} "
                    f"({worse:+.1%} worse, bound {entry['bound']:.0%})"
                )
    return failures
