"""Spans around the calls into each layer of nodalcurves, installed from outside.

The tracer replaces a layer's public functions at the names their callers
bind (``nodalcurves.cli.fit_A``, ``nodalcurves.universal.p2_series``,
``SeveriTable.load`` and so on) with wrappers that record a span per call.
Spans are kept in memory; ``metrics`` turns them into per-layer numbers and
``spans`` hands them out for writing at the end of the run.

A span's self time is its duration minus the part of its interval covered
by its child spans.  A span opened on a worker thread with no open span of
its own is a child of the innermost span open on the main thread, so the
two ``severi-table --threads 2`` workers count against the CLI call that
started them.  Self times of spans on different threads can overlap, so a
layer's summed self time is busy time across threads.

Nothing here changes garbage-collector settings: a ``gc.callbacks`` entry
only observes collections and charges those that run while a Severi span
is open.
"""

from __future__ import annotations

import functools
import gc
import inspect
import os
import resource
import threading
import time
import weakref

SEVERI = "severi"
CLI_SUBCOMMANDS = ("fit", "severi-table", "validate", "genus-series", "forms")


def _count_lines(path) -> int:
    try:
        with open(path, "rb") as fh:
            return fh.read().count(b"\n")
    except FileNotFoundError:
        return 0


class Tracer:
    def __init__(self):
        # each span: [name, layer, start, end, parent index or None]
        self._spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._severi_open = 0
        self._gc_start: float | None = None
        self.gc_s = 0.0
        self.gc_collections = 0
        # per SeveriTable seen: [weakref, entries at first sight, entries at last sight, stats()]
        self._tables: dict[int, list] = {}
        self._table_records: list[list] = []
        self.lines_loaded = 0
        self.lines_appended = 0
        self.file_bytes = 0
        self._rss_start_kb = 0

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        layer = name.rsplit(".", 1)[0]
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            index = len(self._spans)
            self._spans.append([name, layer, time.perf_counter(), None, parent])
            if layer == SEVERI:
                self._severi_open += 1
        stack.append(index)
        return index

    def close(self, index: int):
        end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            span = self._spans[index]
            span[3] = end
            if span[1] == SEVERI:
                self._severi_open -= 1

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter() if self._severi_open else None
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- Severi tables ------------------------------------------------------

    def _see_table(self, table, entries_now: int):
        """The record of ``table``, made on first sight; pool threads race here."""
        with self._lock:
            record = self._tables.get(id(table))
            if record is None or record[0]() is not table:
                record = [weakref.ref(table), entries_now, entries_now, table.stats()]
                self._tables[id(table)] = record
                self._table_records.append(record)
            return record

    def _note_table(self, table):
        record = self._see_table(table, len(table))
        with self._lock:
            record[2] = len(table)
            record[3] = table.stats()

    # -- installing wrappers ------------------------------------------------

    def _patch(self, owner, attr: str, name: str, before=None, after=None):
        raw = inspect.getattr_static(owner, attr)
        is_static = isinstance(raw, staticmethod)
        original = getattr(owner, attr) if is_static else raw

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if after:
                after(args, result, state)
            return result

        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)

    def install(self):
        import nodalcurves.cli as cli
        import nodalcurves.quasimodular as quasimodular
        import nodalcurves.universal as universal
        from nodalcurves.quasimodular import FormCatalog
        from nodalcurves.series import PowerSeries
        from nodalcurves.severi import SeveriTable

        def table_of(args):
            for arg in args:
                if isinstance(arg, SeveriTable):
                    return arg
            return None

        def severi_before(args):
            table = table_of(args)
            if table is not None:
                self._see_table(table, len(table))
            return table

        def severi_after(args, result, table):
            if table is not None:
                self._note_table(table)

        def load_after(args, table, state):
            self.lines_loaded += len(table)
            self._see_table(table, len(table))

        def save_before(args):
            return _count_lines(args[1])

        def save_after(args, result, lines_before):
            path = args[1]
            self.lines_appended += _count_lines(path) - lines_before
            self.file_bytes = os.path.getsize(path)

        for module, attr, name in (
            (cli, "severi", "severi.severi"),
            (cli, "severi_relative", "severi.severi_relative"),
            (universal, "p2_series", "severi.p2_series"),
        ):
            self._patch(module, attr, name, severi_before, severi_after)
        self._patch(SeveriTable, "load", "severi.cache.load", after=load_after)
        self._patch(SeveriTable, "save", "severi.cache.save", save_before, save_after)
        for module, attr, name in (
            (cli, "fit_A", "universal.fit_A"),
            (cli, "fit_B", "universal.fit_B"),
            (cli, "universal_T", "universal.T"),
            (cli, "validate_p2", "universal.validate"),
            (cli, "genus_series", "universal.genus_series"),
            (universal, "k3_series_in_x", "universal.k3_pullback"),
            (universal, "k3_generating", "quasimodular.k3_generating"),
            (universal, "dg2", "quasimodular.dg2"),
            (universal, "d2g2", "quasimodular.d2g2"),
            (universal, "dg2_over_q", "quasimodular.dg2_over_q"),
            (universal, "delta_d2g2_over_q2", "quasimodular.delta_d2g2_over_q2"),
            (quasimodular, "discriminant_delta", "quasimodular.delta"),
            (FormCatalog, "build", "quasimodular.forms"),
            (PowerSeries, "revert", "series.revert"),
        ):
            self._patch(module, attr, name)
        gc.callbacks.append(self._on_gc)
        self._rss_start_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # -- results ------------------------------------------------------------

    def spans(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, _, s, e, p in self._spans
        ]

    def _self_times(self) -> list[float]:
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent in self._spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = []
        for index, (_, _, start, end, _) in enumerate(self._spans):
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out.append(end - start - covered)
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers; every name is present, zero when not exercised."""
        self_times = self._self_times()
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        layer_self: dict[str, float] = {}
        severi_calls = 0
        for (name, layer, start, end, _), own_s in zip(self._spans, self_times):
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + own_s
            layer_self[layer] = layer_self.get(layer, 0.0) + own_s
            severi_calls += layer == SEVERI
        created = sum(r[2] - r[1] for r in self._table_records)
        hits = sum(r[3]["hits"] for r in self._table_records)
        misses = sum(r[3]["misses"] for r in self._table_records)
        severi_self = layer_self.get(SEVERI, 0.0)
        rss_growth_b = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - self._rss_start_kb
        ) * 1024
        return {
            "severi.calls": severi_calls,
            "severi.self_s": severi_self,
            "severi.entries_created": created,
            "severi.entries_per_s": created / severi_self if severi_self else 0.0,
            "severi.table_hits": hits,
            "severi.table_misses": misses,
            "severi.gc_s": self.gc_s,
            "severi.gc_collections": self.gc_collections,
            "severi.rss_per_entry_b": rss_growth_b / created if created else 0.0,
            "severi.cache.load_s": total.get("severi.cache.load", 0.0),
            "severi.cache.lines_loaded": self.lines_loaded,
            "severi.cache.save_s": total.get("severi.cache.save", 0.0),
            "severi.cache.lines_appended": self.lines_appended,
            "severi.cache.file_bytes": self.file_bytes,
            "series.revert_s": total.get("series.revert", 0.0),
            "quasimodular.self_s": layer_self.get("quasimodular", 0.0),
            "quasimodular.forms_s": total.get("quasimodular.forms", 0.0),
            "quasimodular.delta_s": total.get("quasimodular.delta", 0.0),
            "quasimodular.k3_generating_s": total.get("quasimodular.k3_generating", 0.0),
            "universal.genus_series_self_s": own.get("universal.genus_series", 0.0),
            "universal.k3_pullback_s": total.get("universal.k3_pullback", 0.0),
            "universal.fit_A_self_s": own.get("universal.fit_A", 0.0),
            "universal.fit_B_s": total.get("universal.fit_B", 0.0),
            "universal.T_s": total.get("universal.T", 0.0),
            "universal.validate_self_s": own.get("universal.validate", 0.0),
            "cli.self_s": layer_self.get("cli", 0.0),
            **{
                f"cli.{sub}_s": total.get(f"cli.{sub}", 0.0)
                for sub in CLI_SUBCOMMANDS
            },
        }

