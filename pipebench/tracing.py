"""Per-layer tracing of one in-process geofpe pipeline.

``Tracer.install`` replaces the public functions of each geofpe module with
wrappers, patched where their callers look them up (``geofpe.cipher`` for
the ranges helpers, ``geofpe.dataset`` for the coords helpers,
``geofpe.cli`` for the dataset entry points).  Each wrapper adds to per-layer
counters through a per-thread frame stack:

- ``calls``: number of calls;
- ``busy``: seconds inside the function, summed over threads;
- ``self``: busy minus the time spent in wrapped callees.

Work that ``dataset._run_indexed`` hands to worker threads is charged to the
self time of the function that handed it out, so a two-worker run attributes
self time the same way as a one-worker run.  Spans (id, name, start, end,
parent) are kept in memory for commands and per-file functions only, and
written out by the caller at the end.
"""

from __future__ import annotations

import itertools
import threading
import time

perf = time.perf_counter

# Functions wrapped with a span as well as counters: commands and work done
# once per command or per file.  Everything else is counted only.
_SPANNED = {
    "sm4.derive_round_keys",
    "dataset.scan_file",
    "dataset.encrypt_dataset",
    "dataset.decrypt_dataset",
    "dataset.load_plain_points",
    "dataset.load_points_auto",
    "dataset.stratified_sample",
    "mapstore.save",
    "mapstore.load",
    "metrics.dbscan",
    "metrics.rdr_trajectory",
    "metrics.accuracy",
    "metrics.hotspot_analysis",
}


class _ThreadState:
    __slots__ = ("inner", "span_ids", "span_keys", "stats", "spans")

    def __init__(self) -> None:
        self.inner: list[float] = []  # per open frame: seconds in wrapped callees
        self.span_ids: list[int | None] = []  # open spans on this thread
        self.span_keys: list[str] = []
        self.stats: dict[str, list] = {}  # key -> [calls, busy s, self s]
        self.spans: list[tuple] = []


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple] = []
        self._ids = itertools.count(1)
        self.t0 = perf()
        self.extra: dict[str, float] = {}  # values read off results, by metric name
        self.missing: list[str] = []  # keys whose function the program no longer has

    def _new_state(self) -> _ThreadState:
        st = _ThreadState()
        self._local.st = st
        with self._lock:
            self._states.append(st)
        return st

    def wrap(self, key: str, fn, observe=None):
        """Counting wrapper; keys in _SPANNED and commands also record a span."""
        if key in _SPANNED or key.startswith("command."):
            return self._wrap_spanned(key, fn, observe)
        local, new_state = self._local, self._new_state

        def wrapper(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = new_state()
            inner = st.inner
            inner.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - start
                _close(st, key, dt, inner.pop(), True)

        return wrapper

    def _wrap_spanned(self, key: str, fn, observe):
        local, new_state, ids = self._local, self._new_state, self._ids

        def wrapper(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = new_state()
            sid = next(ids)
            parent = st.span_ids[-1] if st.span_ids else None
            st.span_ids.append(sid)
            st.span_keys.append(key)
            st.inner.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                _close(st, key, end - start, st.inner.pop(), True)
                st.span_ids.pop()
                st.span_keys.pop()
                st.spans.append((sid, key, start, end, parent, threading.get_ident()))
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _wrap_run_indexed(self, run_indexed):
        """Charge each job's time to the self time of the spanned function
        that handed it out, on whichever thread runs it; the wait for the
        pool stays in ``dataset._run_indexed``."""
        local, new_state = self._local, self._new_state
        counted = self.wrap("dataset._run_indexed", run_indexed)

        def wrapper(fn, jobs, workers):
            caller = local.st
            key = caller.span_keys[-1] if caller.span_keys else "unattributed"
            parent_span = caller.span_ids[-1] if caller.span_ids else None

            def job(item):
                try:
                    st = local.st
                except AttributeError:
                    st = new_state()
                st.span_ids.append(parent_span)
                st.span_keys.append(key)
                st.inner.append(0.0)
                start = perf()
                try:
                    return fn(item)
                finally:
                    _close(st, key, perf() - start, st.inner.pop(), False)
                    st.span_ids.pop()
                    st.span_keys.pop()

            return counted(job, jobs, workers)

        return wrapper

    def patch(self, owner, name: str, key: str, observe=None) -> None:
        raw = owner.__dict__.get(name)
        if raw is None:
            self.missing.append(key)
            return
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapped = self.wrap(key, fn, observe)
        setattr(owner, name, classmethod(wrapped) if is_classmethod else wrapped)
        self._patches.append((owner, name, raw))

    def install(self) -> None:
        """Wrap the public functions of every geofpe layer."""
        import geofpe.cipher as cipher
        import geofpe.cli as cli
        import geofpe.dataset as dataset
        import geofpe.metrics as metrics
        import geofpe.sm4 as sm4
        from geofpe.mapstore import MappingStore

        coder = cipher.CoordinateCipher
        for owner, name, key in (
            (coder, "tweak", "cipher.tweak"),
            (coder, "encrypt_component", "cipher.encrypt_component"),
            (cipher, "encrypt_rounds", "cipher.encrypt_rounds"),
            (cipher, "mask_width", "ranges.mask_width"),
            (cipher, "range_constrain", "ranges.range_constrain"),
            (cipher, "fraction_constrain", "ranges.fraction_constrain"),
            (sm4, "derive_round_keys", "sm4.derive_round_keys"),
            (dataset, "decompose", "coords.decompose"),
            (dataset, "recombine", "coords.recombine"),
            (dataset, "validate_point", "coords.validate_point"),
            (dataset, "scan_file", "dataset.scan_file"),
            (cli, "decrypt_dataset", "dataset.decrypt_dataset"),
            (cli, "load_plain_points", "dataset.load_plain_points"),
            (cli, "load_points_auto", "dataset.load_points_auto"),
            (cli, "stratified_sample", "dataset.stratified_sample"),
            (MappingStore, "record", "mapstore.record"),
            (MappingStore, "load", "mapstore.load"),
            (MappingStore, "lookup_exact", "mapstore.lookup_exact"),
            (MappingStore, "lookup_fuzzy", "mapstore.lookup_fuzzy"),
            (metrics, "rdr_trajectory", "metrics.rdr_trajectory"),
            (metrics, "haversine", "metrics.haversine"),
            (metrics, "accuracy", "metrics.accuracy"),
            (metrics, "hotspot_analysis", "metrics.hotspot_analysis"),
        ):
            self.patch(owner, name, key)
        self.patch(cli, "encrypt_dataset", "dataset.encrypt_dataset", self._saw_encrypt)
        self.patch(MappingStore, "save", "mapstore.save", self._saw_save)
        self.patch(metrics, "dbscan", "metrics.dbscan", self._saw_dbscan)
        if hasattr(dataset, "_run_indexed"):
            self._patches.append((dataset, "_run_indexed", dataset._run_indexed))
            dataset._run_indexed = self._wrap_run_indexed(dataset._run_indexed)
        else:
            self.missing.append("dataset._run_indexed")

    def restore(self) -> None:
        for owner, name, raw in reversed(self._patches):
            setattr(owner, name, raw)
        self._patches.clear()

    def _add(self, name: str, value: float) -> None:
        with self._lock:
            self.extra[name] = self.extra.get(name, 0) + value

    def _saw_encrypt(self, args, stats) -> None:
        self._add("dataset.rejected_lines", stats.parse_errors + stats.dropped)

    def _saw_save(self, args, _result) -> None:
        from geofpe.cipher import KINDS

        store = args[0]
        self._add("mapstore.record.conflicts", sum(store.conflicts(k) for k in KINDS))
        self._add("mapstore.entries", sum(store.entry_count(k) for k in KINDS))
        for kind in KINDS:
            self.extra[f"mapstore.conflict_rate.{kind}"] = float(store.conflict_rate(kind))

    def _saw_dbscan(self, args, _labels) -> None:
        self._add("metrics.dbscan.points", len(args[0]))

    def stats(self) -> dict[str, list]:
        """Counters merged over every thread that ran a wrapped function."""
        merged: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, (calls, busy, self_s) in st.stats.items():
                rec = merged.setdefault(key, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += busy
                rec[2] += self_s
        return merged

    def spans(self) -> list[dict]:
        with self._lock:
            states = list(self._states)
        out = [
            {"id": sid, "name": name, "start_s": start - self.t0, "end_s": end - self.t0,
             "parent": parent, "thread": thread}
            for st in states
            for sid, name, start, end, parent, thread in st.spans
        ]
        return sorted(out, key=lambda s: s["id"])


def _close(st: _ThreadState, key: str, dt: float, inner: float, counted: bool) -> None:
    """Account one finished frame; a job frame (``counted`` false) adds only
    self time to its key."""
    rec = st.stats.get(key)
    if rec is None:
        rec = st.stats[key] = [0, 0.0, 0.0]
    if counted:
        rec[0] += 1
        rec[1] += dt
    rec[2] += dt - inner
    if st.inner:
        st.inner[-1] += dt


_FIELDS = {"calls": 0, "s": 1, "self_s": 2}


def layer_value(name: str, stats: dict[str, list], extra: dict[str, float]) -> float:
    """``<key>.calls``, ``<key>.s`` (busy) or ``<key>.self_s`` from the merged
    counters; any other metric name is read from ``extra``."""
    if name in extra:
        return extra[name]
    key, _, field = name.rpartition(".")
    if field not in _FIELDS:
        return 0
    return stats.get(key, (0, 0.0, 0.0))[_FIELDS[field]]
