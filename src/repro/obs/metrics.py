"""The metrics registry: counters, gauges and tick-bucketed histograms.

Section 12 gives PISCES 2 event tracing; section 11 gives the live
monitor.  This module supplies the quantitative layer between the two:
named metric families, each keyed by a small label set (PE, cluster,
tasktype, operation...), collected while the machine runs and read out
as a deterministic snapshot by the monitor, :mod:`repro.obs.analysis`
and the exporters.

Design constraints:

* **one count per event** -- the events ``RunStats`` reports are
  counted once, in *run-count* families that count even while the
  registry is disabled (``RunStats`` is a view over them); ``enabled``
  gates the metrics-only instruments and what the snapshot shows;
* **bound once** -- a hot site binds its :class:`Family` once and
  reaches an instrument with one dict lookup, not a label sort per call;
* **deterministic snapshots** -- instruments are keyed by
  ``(family, sorted(labels))``; :meth:`MetricsRegistry.snapshot`
  renders them in sorted order, so two identical runs produce
  byte-identical snapshots (the whole test-suite relies on the engine's
  determinism and this module must not break it);
* **tick-bucketed histograms** -- distributions over virtual ticks or
  bytes bucket into exponential bounds, giving a latency/size view
  without storing samples.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Tuple

from ..mmos.process import ProcState

#: A canonicalized label set: sorted (key, value) pairs.
LabelKey = Tuple[Tuple[str, Any], ...]

#: Default histogram bucket upper bounds: roughly one-third-decade
#: exponential steps, wide enough for tick latencies (a send->accept
#: hop is ~10-200 ticks, a striped disk transfer ~1e3-1e5) and byte
#: sizes alike.  A final implicit +inf bucket catches the rest.
DEFAULT_BUCKETS: Tuple[int, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500,
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000,
    100_000, 200_000, 500_000, 1_000_000,
)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


def _scalar(v):
    """Numpy scalars (e.g. ``msg.nbytes``) -> plain Python numbers, so
    snapshots stay JSON-serializable."""
    return v.item() if hasattr(v, "item") else v


def _label_str(key: LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


class Counter:
    """A monotonically non-decreasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {n})")
        self.value += _scalar(n)

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time level, with its high-water mark."""

    __slots__ = ("name", "labels", "value", "high_water")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0
        self.high_water = 0

    def set(self, v) -> None:
        v = _scalar(v)
        self.value = v
        if v > self.high_water:
            self.high_water = v

    def inc(self, n=1) -> None:
        self.set(self.value + n)

    def dec(self, n=1) -> None:
        self.value -= n

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value,
                "high_water": self.high_water}


class Histogram:
    """A tick-bucketed distribution: counts per exponential bucket,
    plus exact sum / count / min / max of the observations."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts",
                 "count", "total", "min", "max")

    def __init__(self, name: str, labels: LabelKey,
                 buckets: Tuple[int, ...] = DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.bounds = tuple(buckets)
        #: one count per bound, plus the final +inf bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, v) -> None:
        if type(v) is not int:
            v = _scalar(v)
        self.bucket_counts[bisect.bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Upper bucket bound containing the q-quantile (bucketed, so an
        over-estimate by at most one bucket width)."""
        if not self.count:
            return None
        target = q * self.count
        seen = 0
        for bound, c in zip(self.bounds, self.bucket_counts):
            seen += c
            if seen >= target:
                return float(bound)
        return float(self.max if self.max is not None else self.bounds[-1])

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "histogram", "count": self.count, "sum": self.total,
                "min": self.min, "max": self.max,
                "buckets": {str(b): c for b, c in
                            zip(self.bounds + ("+inf",), self.bucket_counts)
                            if c}}


class Family(dict):
    """One family's instruments, bound once per key: ``fam[key]``.

    The first lookup of a key creates its instrument in the registry (so
    an untouched instrument never shows in a snapshot); every later one
    is a dict hit, with no label dict built or sorted.  A key is the
    label value of a one-label family, the tuple of values for several,
    and a whole :data:`LabelKey` (``()`` for none) for a family bound
    without label names.
    """

    __slots__ = ("name", "store", "cls", "labelnames", "run")

    def __init__(self, name: str, store: Dict[Tuple[str, LabelKey], Any],
                 cls: type, labelnames: Tuple[str, ...], run: bool):
        super().__init__()
        self.name, self.store, self.cls = name, store, cls
        self.labelnames = labelnames
        #: A run-count family: counted whether or not metrics are on,
        #: and kept by :meth:`MetricsRegistry.reset`.
        self.run = run

    def __missing__(self, key):
        names = self.labelnames
        lkey = (key if not names else ((names[0], key),) if len(names) == 1
                else _label_key(dict(zip(names, key))))
        inst = self[key] = _instrument(self.store, self.cls, self.name, lkey)
        return inst


def _instrument(store, cls, name: str, lkey: LabelKey):
    """The instrument at ``(name, lkey)``, created on first use."""
    key = (name, lkey)
    if key in store:
        return store[key]
    inst = store[key] = cls(name, lkey)
    return inst


class MetricsRegistry:
    """All instruments of one VM, keyed by (family name, label set).

    Instruments are created on first use and live for the registry's
    lifetime; the same (name, labels) always returns the same object.
    """

    def __init__(self, enabled: bool = True):
        #: Gates the metrics-only instruments and what the snapshot
        #: shows; run-count families count either way.
        self.enabled = enabled
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}
        self._families: Dict[str, Family] = {}

    # ----------------------------------------------------------- factory --

    def counter(self, name: str, **labels) -> Counter:
        return _instrument(self._counters, Counter, name, _label_key(labels))

    def gauge(self, name: str, **labels) -> Gauge:
        return _instrument(self._gauges, Gauge, name, _label_key(labels))

    def histogram(self, name: str, **labels) -> Histogram:
        """A :data:`DEFAULT_BUCKETS` histogram."""
        return _instrument(self._histograms, Histogram, name,
                           _label_key(labels))

    def counter_family(self, name: str, *labelnames: str,
                       run: bool = False) -> Family:
        """The counter family ``name`` bound by key (see :class:`Family`);
        one object per name.  ``run=True`` marks a run-count family."""
        return self._family(name, self._counters, Counter, labelnames, run)

    def histogram_family(self, name: str, *labelnames: str) -> Family:
        return self._family(name, self._histograms, Histogram, labelnames,
                            False)

    def _family(self, name, store, cls, labelnames, run) -> Family:
        fam = self._families.get(name)
        if fam is None:
            fam = self._families[name] = Family(name, store, cls,
                                                labelnames, run)
        return fam

    # ------------------------------------------------------------- query --

    def families(self) -> List[str]:
        if not self.enabled:
            return []
        names = {k[0] for k in self._counters}
        names.update(k[0] for k in self._gauges)
        names.update(k[0] for k in self._histograms)
        return sorted(names)

    def counter_total(self, name: str) -> int:
        """Sum of one counter family across every label set."""
        return sum(c.value for (n, _), c in self._counters.items()
                   if n == name)

    def histogram_merged(self, name: str) -> Optional[Histogram]:
        """One family's histograms merged across label sets (same
        bucket bounds assumed, as produced by one instrumentation
        site)."""
        parts = [h for (n, _), h in self._histograms.items() if n == name]
        if not parts:
            return None
        merged = Histogram(name, (), parts[0].bounds)
        for h in parts:
            for i, c in enumerate(h.bucket_counts):
                merged.bucket_counts[i] += c
            merged.count += h.count
            merged.total += h.total
            for v in (h.min, h.max):
                if v is None:
                    continue
                if merged.min is None or v < merged.min:
                    merged.min = v
                if merged.max is None or v > merged.max:
                    merged.max = v
        return merged

    # ---------------------------------------------------------- snapshot --

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Deterministic nested dict: family -> label-string -> data
        (empty while the registry is disabled)."""
        out: Dict[str, Dict[str, Any]] = {}
        if not self.enabled:
            return out
        for store in (self._counters, self._gauges, self._histograms):
            for (name, lkey) in sorted(store, key=lambda k: (k[0], str(k[1]))):
                inst = store[(name, lkey)]
                out.setdefault(name, {})[_label_str(lkey)] = inst.as_dict()
        return {name: out[name] for name in sorted(out)}

    def snapshot_text(self, title: str = "METRICS SNAPSHOT") -> str:
        """The text panel the monitor displays."""
        from ..util.tables import format_table
        rows: List[List[Any]] = []
        for name, by_label in self.snapshot().items():
            for lstr, data in by_label.items():
                if data["type"] == "counter":
                    val = str(data["value"])
                elif data["type"] == "gauge":
                    val = f"{data['value']} (hi {data['high_water']})"
                else:
                    mean = data["sum"] / data["count"] if data["count"] else 0
                    val = (f"n={data['count']} sum={data['sum']} "
                           f"mean={mean:.1f} max={data['max']}")
                rows.append([name + lstr, data["type"], val])
        if not rows:
            return f"{title}: (no metrics recorded)"
        return format_table(["metric", "kind", "value"], rows, title=title)

    def describe(self) -> str:
        if not self.enabled:
            return "metrics: disabled"
        n = (len(self._counters) + len(self._gauges) + len(self._histograms))
        return f"metrics: enabled, {n} instruments in {len(self.families())} families"

    def reset(self) -> None:
        """Drop every metrics-only instrument.  The run-count families
        are the run's record (``RunStats`` reads them) and stay."""
        run = {f.name for f in self._families.values() if f.run}
        for store in (self._counters, self._gauges, self._histograms):
            for key in [k for k in store if k[0] not in run]:
                del store[key]
        for fam in self._families.values():
            if not fam.run:
                fam.clear()


class SliceMeter:
    """The engine's slice metrics, as an engine observer (see
    :meth:`repro.mmos.scheduler.Engine.observe`): ``dispatches`` and
    ``slice_ticks`` by PE, and ``blocks`` by reason prefix.  The VM
    registers it while its registry is enabled."""

    def __init__(self, registry: MetricsRegistry):
        self.dispatches = registry.counter_family("dispatches", "pe")
        self.slice_ticks = registry.histogram_family("slice_ticks", "pe")
        self.blocks = registry.counter_family("blocks", "reason")

    def on_slice(self, p, start: int, wall) -> None:
        self.dispatches[p.pe].value += 1
        state = p.state
        if state is ProcState.DONE:
            return
        cost = p.ready_time - start
        if cost > 0:
            # Histogram.observe, inlined: calling it would add a Python
            # call to every metered dispatch, which
            # tests/obs/test_counter_cost.py pins.
            if type(cost) is not int:
                cost = _scalar(cost)
            h = self.slice_ticks[p.pe]
            h.bucket_counts[bisect.bisect_left(h.bounds, cost)] += 1
            h.count += 1
            h.total += cost
            if h.min is None or cost < h.min:
                h.min = cost
            if h.max is None or cost > h.max:
                h.max = cost
        if state is ProcState.BLOCKED:
            # Reason strings carry dynamic detail after "("; keep the
            # label cardinality bounded by the static prefix.
            self.blocks[p.blocked_on.split("(", 1)[0]].value += 1


#: A registry that is permanently disabled -- handed to components whose
#: owner has no registry wired, so instrumentation sites can guard on
#: ``metrics.enabled`` without a None check.  Nothing may count into it.
NULL_REGISTRY = MetricsRegistry(enabled=False)
