"""Span tracer for the benchmark's per-layer run.

The tracer rebinds, in every loaded ``triscore`` module, each name that
refers to a traced public function, so calls made through another
layer (colours from ``svg``, ``gaussian`` from ``datasets``,
``bin_forecasts`` from ``recalibration``) are caught where the caller
looks the name up.  Nothing under ``src/`` changes, and ``uninstall``
restores every binding.

A span is (name, start, end, parent, pass id).  Spans stay in flat
in-memory arrays while the run lasts and are written out by ``dump``.
"""

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Records handled by one call, for the per-record statistics; a traced
# function not listed here handles one record per call.
_RECORDS = {
    "datasets.parse_json": lambda args, result: len(result.records),
    "datasets.parse_csv": lambda args, result: len(result.records),
    "datasets.pairs_from_dataset": lambda args, result: len(args[0].records),
    "datasets.write_json": lambda args, result: len(args[0].records),
    "svg.render_forecast_map": lambda args, result: len(args[0].records),
    "verification.bin_forecasts": lambda args, result: len(args[0]),
    "recalibration.fit_map": lambda args, result: len(args[0]),
    "recalibration.recalibration_report": lambda args, result: len(args[0]),
}
_BYTES = ("datasets.write_json", "svg.render_forecast_map", "svg.render_reliability_diagram")
_SVG = ("svg.render_forecast_map", "svg.render_reliability_diagram")


def traced_functions(layers) -> list[str]:
    """``<module>.<function>`` of every span the registry's metrics read."""
    spans = []
    for metric in layers:
        parts = metric.split(".")
        if len(parts) == 3 and parts[0] != "cli" and ".".join(parts[:2]) not in spans:
            spans.append(".".join(parts[:2]))
    return spans


class Tracer:
    """Records spans around traced calls; one pass at a time."""

    def __init__(self, layers):
        self.layers = list(layers)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._pass = -1
        self._pass_lo = 0
        self._patched = []
        self._reset_counters()

    def _reset_counters(self) -> None:
        self.records: dict[str, int] = {}
        self.bytes: dict[str, int] = {}
        self.off_simplex = 0

    def _sid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, sid: int) -> int:
        i = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self._stack[-1])
        self.pass_id.append(self._pass)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._sid(name))
        try:
            yield
        finally:
            self._close(i)

    def _observe(self, name: str, args, result) -> None:
        count = _RECORDS.get(name)
        if count is not None:
            self.records[name] = self.records.get(name, 0) + count(args, result)
        if name in _BYTES:
            self.bytes[name] = self.bytes.get(name, 0) + len(result)
        if name == "recalibration.apply_map" and not result.on_simplex:
            self.off_simplex += 1

    def _wrap(self, name: str, fn):
        sid = self._sid(name)
        observe = name in _RECORDS or name in _BYTES or name == "recalibration.apply_map"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if observe:
                self._observe(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded triscore module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "triscore" or n.startswith("triscore.")]
        for name in traced_functions(self.layers):
            module, fn_name = name.split(".")
            original = getattr(sys.modules[f"triscore.{module}"], fn_name)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            m, attr, original = self._patched.pop()
            setattr(m, attr, original)

    def begin_pass(self) -> None:
        self._pass += 1
        self._pass_lo = len(self.start)
        self._reset_counters()

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the current pass, for the layers it called."""
        lo, hi = self._pass_lo, len(self.start)
        ids = np.array(self.name_id[lo:hi], dtype=np.int64)
        dur = np.array(self.end[lo:hi]) - np.array(self.start[lo:hi])
        parent = np.array(self.parent[lo:hi], dtype=np.int64) - lo
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=hi - lo)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=self_time, minlength=k)
        called = {name: (int(calls[i]), float(incl[i]), float(own[i]))
                  for i, name in enumerate(self.names) if calls[i]}

        out = {}
        for metric in self.layers:
            span, stat = metric.rsplit(".", 1)
            if metric == "recalibration.n_off_simplex":
                if "recalibration.apply_map" in called:
                    out[metric] = self.off_simplex
            elif metric == "svg.bytes":
                if any(s in called for s in _SVG):
                    out[metric] = sum(self.bytes.get(s, 0) for s in _SVG)
            elif metric == "cli.self_ms":
                own_cli = [c[2] for s, c in called.items() if s.startswith("cli.")]
                if own_cli:
                    out[metric] = 1e3 * sum(own_cli)
            elif span in called:
                n_calls, incl_s, own_s = called[span]
                n_records = self.records.get(span, n_calls)
                out[metric] = {
                    "us_per_rec": 1e6 * incl_s / max(n_records, 1),
                    "us_per_call": 1e6 * incl_s / n_calls,
                    "self_us_per_rec": 1e6 * own_s / max(n_records, 1),
                    "self_ms": 1e3 * own_s,
                    "calls": n_calls,
                    "bytes": self.bytes.get(span, 0),
                }[stat]
        return out

    def dump(self, path) -> None:
        """Write every recorded span to an ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            pass_id=np.array(self.pass_id, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )
