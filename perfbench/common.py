"""Machinery shared by the workloads: op timing, spans, work counters, limits.

Nothing here patches the program.  Spans are recorded by the benchmark around
its own calls into curvlab's public functions, and counts come from
arguments the benchmark already passes: an oracle whose ``compose``,
``encode`` and ``closed_length`` count their calls, and a metric table whose
``distance`` counts the lookups it answers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import resource
import signal
import sys
import time
from typing import Callable, Optional

from curvlab.core import MetricTable


class TimeLimit(Exception):
    """An operation ran past its per-operation time limit."""


class OpFailed(Exception):
    """An operation ended without the result the program promises."""


@contextlib.contextmanager
def time_limit(seconds: Optional[float]):
    """Raise TimeLimit in the calling (main) thread after ``seconds``."""
    if seconds is None:
        yield
        return

    def _expire(signum, frame):
        raise TimeLimit(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# Spans


class Tracer:
    """Spans kept in memory: [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per name: total duration minus the time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        return out

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + end - start
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]


class NoTracer:
    """Stand-in for untraced rounds: a span costs one call and records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# Counters passed in as arguments


@dataclasses.dataclass
class Counts:
    compose: int = 0
    encode: int = 0
    closed_form: int = 0
    table: int = 0


def counting_oracle(oracle, counts: Counts):
    """A copy of ``oracle`` whose compose, encode and closed_length count calls."""
    compose, encode, closed = oracle.compose, oracle.encode, oracle.closed_length

    def c_compose(x, y):
        counts.compose += 1
        return compose(x, y)

    def c_encode(x):
        counts.encode += 1
        return encode(x)

    def c_closed(x):
        counts.closed_form += 1
        return closed(x)

    return dataclasses.replace(
        oracle,
        compose=c_compose,
        encode=c_encode,
        closed_length=None if closed is None else c_closed,
    )


@dataclasses.dataclass(frozen=True)
class CountingTable(MetricTable):
    """A MetricTable whose ``distance`` counts the lookups the table answers."""

    counts: Counts = dataclasses.field(default_factory=Counts, repr=False, compare=False)

    def distance(self, element):
        d = self.dist.get(element)
        if d is not None:
            self.counts.table += 1
        return d


def counting_table(table: MetricTable, counts: Counts) -> CountingTable:
    return CountingTable(table.group_id, table.horizon, table.layers, table.dist, counts)


# ---------------------------------------------------------------------------
# Operations and rounds


class Recorder:
    """Times the operations of one round and counts what failed.

    The wall time of a round is the sum of its operation times, so the
    output checks that run between operations are never timed.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer if tracer is not None else NoTracer()
        self.traced = tracer is not None
        self.latencies: list[float] = []  # completed operations only
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.wall = 0.0

    def op(self, label: str, fn: Callable, *, limit: Optional[float] = None, known_fault: bool = False):
        """Run ``fn()`` as one operation; return its result, or None if it failed.

        A failure of an operation marked ``known_fault`` is counted and
        nothing more; any other failure also makes the run incorrect.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with time_limit(limit):
                result = fn()
        except Exception as exc:  # the run goes on; every failure is counted and named
            self.wall += time.perf_counter() - t0
            self.failed += 1
            if not known_fault:
                self.unexpected.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - t0
        self.wall += elapsed
        self.latencies.append(elapsed)
        return result


def interleave(light: list, heavy: list) -> list:
    """Spread the light operations evenly between the heavy ones.

    Operations of one kind then sample the host's speed across the whole
    round instead of one short stretch of it.
    """
    out: list = []
    for i, op in enumerate(heavy):
        out += light[len(light) * i // len(heavy) : len(light) * (i + 1) // len(heavy)]
        out.append(op)
    return out if heavy else list(light)


class Workload:
    """What every workload shares: its seed, a work directory, work tallies and checked results.

    A subclass sets ``name``, builds its untimed inputs in ``setup`` and
    runs one round of operations in ``round(rec, chk, counts)``; with
    ``counts`` given, it passes counting oracles and tables to the program.
    ``per_layer`` turns the span totals of the traced rounds into per-layer
    metrics.
    """

    name = ""
    min_completed = 0  # completed operations a run needs at the least
    counts_work = True  # whether a counting round can see the program's work

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.work: dict = {}  # tallies of the rounds since the last clear
        self._digests: dict[str, object] = {}

    def add(self, key: str, value: float) -> None:
        self.work[key] = self.work.get(key, 0.0) + value

    def checked_once(self, label: str, digest, check: Callable[[], list]) -> list[str]:
        """Run ``check`` the first time ``label`` is seen; later, compare the result's digest."""
        if label in self._digests:
            return [] if self._digests[label] == digest else [f"{label}: result differs from the checked one"]
        self._digests[label] = digest
        return [f"{label}: {m}" for m in check()]

    def memory_pass(self) -> dict[str, float]:
        return {}

    def peak_rss_mib(self) -> float:
        return peak_rss_mib()


def current_rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_mib(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
