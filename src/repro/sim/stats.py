"""Statistics collection: counters, accumulators, histograms, registry.

Every measurable quantity in the simulated machine (stall cycles by
cause, coherence message counts, rollback counts, ...) is recorded in one
of the primitives here and grouped under a hierarchical dotted name in a
:class:`StatsRegistry`, e.g. ``core0.stall.fence_drain``.  The benchmark
harness reads these registries to regenerate the paper's tables and
figures.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class Counter:
    """A monotonically growing integer count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"Counter {self.name}: negative increment {amount}")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Accumulator:
    """Tracks sum / count / min / max / mean of observed samples."""

    __slots__ = ("name", "total", "count", "minimum", "maximum")

    def __init__(self, name: str):
        self.name = name
        self.total = 0.0
        self.count = 0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def add(self, sample: float) -> None:
        self.total += sample
        self.count += 1
        if self.minimum is None or sample < self.minimum:
            self.minimum = sample
        if self.maximum is None or sample > self.maximum:
            self.maximum = sample

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.total = 0.0
        self.count = 0
        self.minimum = None
        self.maximum = None

    def __repr__(self) -> str:
        return (
            f"Accumulator({self.name}: n={self.count} sum={self.total} "
            f"mean={self.mean:.3f})"
        )


class Histogram:
    """A histogram over non-negative integer samples.

    Buckets are either one per sample value or power-of-two
    (``log2=True``).  Also tracks exact sum/count so means stay precise.
    """

    __slots__ = ("name", "log2", "buckets", "total", "count")

    def __init__(self, name: str, log2: bool = False):
        self.name = name
        self.log2 = log2
        self.buckets: Dict[int, int] = {}
        self.total = 0
        self.count = 0

    def add(self, sample: int, weight: int = 1) -> None:
        if sample < 0:
            raise ValueError(f"Histogram {self.name}: negative sample {sample}")
        bucket = sample.bit_length() if self.log2 else sample
        buckets = self.buckets
        buckets[bucket] = buckets.get(bucket, 0) + weight
        self.total += sample * weight
        self.count += weight

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> int:
        """Return the lower edge of the bucket containing the percentile.

        ``fraction`` is in [0, 1].  With no samples, returns 0.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if not self.count:
            return 0
        target = math.ceil(fraction * self.count)
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= target:
                return self._edge(bucket)
        return self._edge(max(self.buckets))

    def _edge(self, bucket: int) -> int:
        """The lower edge of ``bucket``: a power of two under ``log2``,
        else the sample value itself."""
        if self.log2 and bucket:
            return 1 << (bucket - 1)
        return bucket

    def items(self) -> Iterator[Tuple[int, int]]:
        """Yield (bucket lower edge, count) in ascending order."""
        for bucket in sorted(self.buckets):
            yield self._edge(bucket), self.buckets[bucket]

    def reset(self) -> None:
        self.buckets.clear()
        self.total = 0
        self.count = 0

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count} mean={self.mean:.3f})"


class StatsRegistry:
    """Hierarchical registry of statistics, keyed by dotted names.

    Component constructors call :meth:`counter` / :meth:`counters` /
    :meth:`accumulator` / :meth:`histogram` to create-or-fetch their
    stats; the harness reads them back with :meth:`get` /
    :meth:`snapshot` / :meth:`report`.

    A registry pickles as columns -- names, one kind letter per stat,
    and values -- and a loaded registry interns its names
    (``sys.intern``), so the results a sweep's workers send back share
    one string per stat name instead of each carrying its own.
    """

    def __init__(self) -> None:
        self._stats: Dict[str, object] = {}

    def __getstate__(self) -> tuple:
        kinds = []
        values = []
        for stat in self._stats.values():
            if isinstance(stat, Counter):
                kinds.append("c")
                values.append(stat.value)
            elif isinstance(stat, Accumulator):
                kinds.append("a")
                values.append((stat.total, stat.count, stat.minimum,
                               stat.maximum))
            else:
                kinds.append("h")
                values.append((stat.log2, stat.buckets, stat.total,
                               stat.count))
        return tuple(self._stats), "".join(kinds), tuple(values)

    def __setstate__(self, state: tuple) -> None:
        names, kinds, values = state
        stats = self._stats = {}
        for name, kind, value in zip(names, kinds, values):
            name = sys.intern(name)
            if kind == "c":
                stat = Counter(name)
                stat.value = value
            elif kind == "a":
                stat = Accumulator(name)
                stat.total, stat.count, stat.minimum, stat.maximum = value
            else:
                log2, buckets, total, count = value
                stat = Histogram(name, log2)
                stat.buckets, stat.total, stat.count = buckets, total, count
            stats[name] = stat

    def counter(self, name: str) -> Counter:
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = Counter(name)
        elif not isinstance(stat, Counter):
            raise TypeError(f"stat {name!r} already exists with type {type(stat).__name__}")
        return stat

    def counters(self, names: Iterable[str]) -> List[Counter]:
        """:meth:`counter` for each of ``names``, in order, in one call.

        Component constructors register their whole counter set through
        this, from name tuples they build once per process.
        """
        stats = self._stats
        out = []
        for name in names:
            stat = stats.get(name)
            if stat is None:
                stat = stats[name] = Counter(name)
            elif not isinstance(stat, Counter):
                raise TypeError(f"stat {name!r} already exists with type {type(stat).__name__}")
            out.append(stat)
        return out

    def accumulator(self, name: str) -> Accumulator:
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = Accumulator(name)
        elif not isinstance(stat, Accumulator):
            raise TypeError(f"stat {name!r} already exists with type {type(stat).__name__}")
        return stat

    def histogram(self, name: str, log2: bool = False) -> Histogram:
        existing = self._stats.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise TypeError(f"stat {name!r} already exists with type {type(existing).__name__}")
            if existing.log2 != log2:
                raise ValueError(
                    f"histogram {name!r} already exists with "
                    f"log2={existing.log2}; requested log2={log2}"
                )
            return existing
        hist = Histogram(name, log2=log2)
        self._stats[name] = hist
        return hist

    def get(self, name: str):
        """Return the stat registered under ``name`` (KeyError if absent)."""
        return self._stats[name]

    def __contains__(self, name: str) -> bool:
        return name in self._stats

    def names(self, prefix: str = "") -> List[str]:
        """All registered names, optionally filtered by dotted prefix."""
        if not prefix:
            return sorted(self._stats)
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return sorted(n for n in self._stats if n == prefix or n.startswith(dotted))

    def value(self, name: str) -> float:
        """A scalar view of any stat: counter value / accumulator sum / histogram count."""
        stat = self._stats[name]
        if isinstance(stat, Counter):
            return stat.value
        if isinstance(stat, Accumulator):
            return stat.total
        if isinstance(stat, Histogram):
            return stat.count
        raise TypeError(f"unknown stat type for {name!r}")

    def sum(self, names: Iterable[str]) -> float:
        """Sum the scalar views of several stats (missing names are 0)."""
        return sum(self.value(n) for n in names if n in self._stats)

    def snapshot(self) -> Dict[str, float]:
        """Scalar snapshot of every stat, for CSV export / comparison."""
        return {name: self.value(name) for name in sorted(self._stats)}

    def reset(self) -> None:
        for stat in self._stats.values():
            stat.reset()  # type: ignore[attr-defined]

    def report(self, prefix: str = "") -> str:
        """A human-readable multi-line report, optionally prefix-filtered."""
        lines = []
        for name in self.names(prefix):
            stat = self._stats[name]
            if isinstance(stat, Counter):
                lines.append(f"{name:<50s} {stat.value}")
            elif isinstance(stat, Accumulator):
                lines.append(
                    f"{name:<50s} n={stat.count} sum={stat.total:.0f} mean={stat.mean:.2f}"
                )
            elif isinstance(stat, Histogram):
                lines.append(f"{name:<50s} n={stat.count} mean={stat.mean:.2f}")
        return "\n".join(lines)
