"""Shared pieces of the service benchmark.

Spans around calls into the program, nearest-rank percentiles, the
seeded edit-stream generator and the oracle that replays it.  Nothing
here imports the program under test; the workload modules do.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import json
import math
import os
import random
import shutil
import tempfile
import threading
import time
from typing import Any, Callable, Iterable, Iterator, Optional

clock = time.perf_counter

#: op kinds of a generated edit stream: ``(kind, anchor, arg)``
INSERT, RUN, DELETE, SET = 0, 1, 2, 3
#: tokens per ``insert_run_after`` (the paper's section 4.1 batch)
RUN_LENGTH = 16

#: iterations of the reference loop a speed probe times
REFERENCE_LOOPS = 10_000
#: the reference loop's time on an uncontended core of a 2.1 GHz Xeon
#: VM under CPython 3.11: the speed every reported timing is scaled to
REFERENCE_S = 0.75e-3
#: seconds between speed probes
PROBE_EVERY = 0.25
#: probes on each side whose median gives a probe interval's speed
PROBE_SMOOTHING = 2


def reference_work() -> float:
    """Seconds a fixed pure-Python loop (dict stores, int adds) takes."""
    start = clock()
    table: dict[int, int] = {}
    total = 0
    for i in range(REFERENCE_LOOPS):
        table[i & 255] = total
        total += i
    return clock() - start


class HostSpeed:
    """How fast the shared host ran the interpreter during a run.

    The host's speed steps by up to ~1.5x, for seconds to more than a
    minute at a time, and CPU time moves with wall time, so every
    timing of a run moves with it (``NOTES.md``, "Steadiness").
    :meth:`probe` times :func:`reference_work` between samples, at most
    every :data:`PROBE_EVERY` seconds; :meth:`scaled` gives a wall
    interval as the seconds it would have taken at the speed that
    :data:`REFERENCE_S` stands for: each part of the interval times
    ``REFERENCE_S`` over the median of the nearest probes.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.readings: list[float] = []
        self._factors: list[float] = []

    def probe(self) -> None:
        now = clock()
        if not self.times or now - self.times[-1] >= PROBE_EVERY:
            self.times.append(now)
            self.readings.append(reference_work())
            self._factors.clear()

    def factors(self) -> list[float]:
        """Per probe interval, the scale from wall to reference time."""
        if not self._factors:
            width = PROBE_SMOOTHING
            self._factors = [
                REFERENCE_S / median(self.readings[max(0, k - width):
                                                   k + width + 1])
                for k in range(len(self.readings))]
        return self._factors

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end)``."""
        factors, times = self.factors(), self.times
        k = max(0, bisect.bisect_right(times, start) - 1)
        total, at = 0.0, start
        while at < end:
            edge = times[k + 1] if k + 1 < len(times) else end
            part_end = min(end, edge)
            total += (part_end - at) * factors[k]
            at = part_end
            k += 1
        return total


class Spans:
    """Spans around the benchmark's calls into the program's layers.

    Disabled (every timed run), :meth:`call` is a plain call and
    :meth:`span` an empty context.  Enabled, each call becomes one span
    ``(name, batch, thread, start, end, self)`` kept in memory until
    :meth:`export`.  Spans of one edit batch or query cycle share the
    batch id; a span's self time is its duration minus the part its
    child spans on the same thread cover.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[tuple] = []
        self._local = threading.local()

    def call(self, name: str, batch: int, fn: Callable, *args: Any,
             **kwargs: Any) -> Any:
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name, batch):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def span(self, name: str, batch: int) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(0.0)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            covered = stack.pop()
            if stack:
                stack[-1] += end - start
            self.records.append((name, batch, threading.get_ident(),
                                 start, end, end - start - covered))

    def self_times(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for name, _batch, _thread, _start, _end, own in self.records:
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def export(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, batch, thread, start, end, own in self.records:
                out.write(json.dumps({"name": name, "batch": batch,
                                      "thread": thread, "start": start,
                                      "end": end, "self": own}) + "\n")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of unsorted ``values``."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q * count))


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


def settle() -> None:
    """Collect, then hide every surviving object from the collector.

    Called once the benchmark's own op streams and bookkeeping exist,
    so the program's later collections do not scan hundreds of
    thousands of benchmark tuples -- a cost a real caller would not
    pay, and one that varied from run to run.
    """
    gc.collect()
    gc.freeze()


def label_bits_over_optimum(bits: int, nodes: int) -> float:
    """``bits`` over the ``lg n + 2 lg lg n`` ancestry-label optimum of
    Dahlgaard, Knudsen and Rotbart for a tree of ``nodes`` nodes."""
    lg = math.log2(nodes)
    return bits / (lg + 2 * math.log2(lg))


class WorkDir:
    """Scratch space under ``<checkout>/.perfbench``.

    Service directories are temp dirs on the checkout's own filesystem,
    so every run and every seed writes to the same device.
    """

    def __init__(self, root: str) -> None:
        self.path = os.path.join(root, ".perfbench")
        self._tmp = os.path.join(self.path, "tmp")
        os.makedirs(self._tmp, exist_ok=True)
        self._made: list[str] = []

    def fresh(self, prefix: str) -> str:
        directory = tempfile.mkdtemp(prefix=prefix, dir=self._tmp)
        self._made.append(directory)
        return directory

    def discard(self, directory: str) -> None:
        """Remove one directory :meth:`fresh` made."""
        shutil.rmtree(directory, ignore_errors=True)
        self._made.remove(directory)

    def cleanup(self) -> None:
        for directory in self._made:
            shutil.rmtree(directory, ignore_errors=True)
        self._made.clear()


class Pool:
    """Token ids with O(1) add, discard and uniform pick."""

    def __init__(self, tokens: Iterable[int]) -> None:
        self.items = list(tokens)
        self.where = {token: i for i, token in enumerate(self.items)}

    def __contains__(self, token: int) -> bool:
        return token in self.where

    def add(self, token: int) -> None:
        self.where[token] = len(self.items)
        self.items.append(token)

    def discard(self, token: int) -> None:
        index = self.where.pop(token, None)
        if index is None:
            return
        last = self.items.pop()
        if last != token:
            self.items[index] = last
            self.where[last] = index

    def pick(self, rng: random.Random) -> int:
        return self.items[int(rng.random() * len(self.items))]


def edit_stream(rng: random.Random, n_ops: int, live: Iterable[int],
                first_new: int, hot: Optional[Iterable[int]] = None,
                hot_share: float = 0.8) -> list[tuple]:
    """``n_ops`` logical edits over token ids, built before any timing.

    The mix is 75% ``insert_after``, 10% ``insert_run_after`` of
    :data:`RUN_LENGTH` tokens, 10% ``delete`` and 5% ``set_payload``.
    Anchors are live ids drawn from ``live``; with ``hot``, a
    ``hot_share`` of them come from the hot ids, and a token inserted
    after a hot anchor is hot too, so the skew stays in one region of
    the document.  New tokens are numbered upward from ``first_new``
    in stream order, and a new token's payload is its id.

    Ops are ``(INSERT, anchor, new_id)``, ``(RUN, anchor, new_ids)``,
    ``(DELETE, anchor, None)`` and ``(SET, anchor, payload)``.
    """
    everyone = Pool(live)
    hot_pool = Pool(hot) if hot is not None else None
    ops: list[tuple] = []
    next_id = first_new
    for _ in range(n_ops):
        if hot_pool is not None and rng.random() < hot_share:
            anchor = hot_pool.pick(rng)
        else:
            anchor = everyone.pick(rng)
        roll = rng.random()
        if roll < 0.85:
            if roll < 0.75:
                new: Any = next_id
                tokens: Iterable[int] = (next_id,)
                ops.append((INSERT, anchor, new))
                next_id += 1
            else:
                new = list(range(next_id, next_id + RUN_LENGTH))
                tokens = new
                ops.append((RUN, anchor, new))
                next_id += RUN_LENGTH
            spread_hot = hot_pool is not None and anchor in hot_pool
            for token in tokens:
                everyone.add(token)
                if spread_hot:
                    hot_pool.add(token)
        elif roll < 0.95:
            ops.append((DELETE, anchor, None))
            everyone.discard(anchor)
            if hot_pool is not None:
                hot_pool.discard(anchor)
        else:
            ops.append((SET, anchor, -len(ops) - 1))
    return ops


class Oracle:
    """The document a bulk load plus edit-stream prefixes must yield.

    A singly linked list over token ids (O(1) per op, one walk at the
    end): bulk token ``i`` holds payload ``i``, inserted tokens hold
    their id, ``set_payload`` overrides, deletes hide.  Streams over
    disjoint shards commute, so their prefixes apply in any order.
    """

    def __init__(self, n_bulk: int) -> None:
        self._next: dict[int, Optional[int]] = {
            token: token + 1 for token in range(n_bulk - 1)}
        self._next[n_bulk - 1] = None
        self._payload: dict[int, int] = {}
        self._dead: set[int] = set()

    def apply(self, ops: list[tuple]) -> None:
        nxt = self._next
        for kind, anchor, arg in ops:
            if kind == INSERT or kind == RUN:
                after = nxt[anchor]
                previous = anchor
                for token in (arg,) if kind == INSERT else arg:
                    nxt[previous] = token
                    previous = token
                nxt[previous] = after
            elif kind == DELETE:
                self._dead.add(anchor)
            else:
                self._payload[anchor] = arg

    def payloads(self) -> list[int]:
        out = []
        nxt, payload, dead = self._next, self._payload, self._dead
        token: Optional[int] = 0
        while token is not None:
            if token not in dead:
                out.append(payload.get(token, token))
            token = nxt[token]
        return out
