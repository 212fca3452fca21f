"""Spans and counts for the traced run.

The tracer replaces module attributes that the program looks up at call time
(synchrad's public functions, the decoherence helpers that stand for the
profile and FFT layers, scipy.special Bessel and Si/Ci ufuncs) with wrappers
that record a span per call and the counts the per-layer metrics need.
Spans stay in memory until the run ends.  A target missing from the program
is reported as absent; the metrics built on it read 0.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.outer: list[bool] = []  # not nested inside a span of the same name
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, after=None, before=None):
        """Wrapper recording a span `name` per call.  `before(args, kwargs)`
        may return replacement (args, kwargs); `after(args, kwargs, result)`
        records counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.outer.append(tracer._active[name] == 0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer._active[name] += 1
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._active[name] -= 1
                tracer._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr, name, after=None, before=None):
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return None
        self._restore.append((module, attr, fn))
        setattr(module, attr, self.wrap(name, fn, after=after, before=before))
        return fn

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def totals(self):
        """Per span name: calls, inclusive seconds (outermost spans only) and
        self seconds (duration minus the time of direct child spans)."""
        n = len(self.names)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(n)
        parent = np.array(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if self.outer[i]:
                row["s"] += float(dur[i])
            row["self_s"] += float(dur[i] - child[i])
        return out

    def write(self, path, extra):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = min(self.start, default=0.0)
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        payload = {
            "span_names": table,
            "spans": {
                "name": [index[x] for x in self.names],
                "parent": self.parent,
                "start_s": [round(x - t0, 7) for x in self.start],
                "end_s": [round(x - t0, 7) for x in self.end],
            },
            "counts": dict(self.counts),
            "absent": self.absent,
            **extra,
        }
        with open(path, "w") as f:
            json.dump(payload, f, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every traced target.  Imports the program, so call it only in
    the workload's own interpreter."""
    import scipy.special

    from synchrad import cli, corrections, decoherence, ir_model, numerics, packets, semiclassical

    counts = tracer.counts

    def elems(key):
        def after(args, kwargs, result):
            first = result[0] if isinstance(result, tuple) else result
            counts[key] += int(np.size(first))

        return after

    for ufunc in ("jv", "jvp", "j0", "sici"):
        tracer.patch(scipy.special, ufunc, f"special.{ufunc}", after=elems(f"special.{ufunc}.elems"))

    def artifact_bytes(args, kwargs, paths):
        counts["cli.artifact_bytes"] += sum(os.path.getsize(p) for p in paths)

    tracer.patch(cli, "run", "cli.run", after=artifact_bytes)
    tracer.patch(packets, "packet_report", "packets.packet_report")

    def count_terms(args, kwargs):
        per_n = args[0]

        def counted(n):
            counts["semiclassical.spectral_sum.terms"] += 1
            return per_n(n)

        return (counted,) + tuple(args[1:]), kwargs

    tracer.patch(semiclassical, "spectral_sum", "semiclassical.spectral_sum", before=count_terms)
    tracer.patch(semiclassical, "schott_angular_rate", "semiclassical.schott_angular_rate")

    # gauss_nodes is imported by name into each module that uses it
    gauss = getattr(numerics, "gauss_nodes", None)
    if gauss is None:
        tracer.absent.append("synchrad.numerics.gauss_nodes")
    else:
        for module in (numerics, semiclassical, decoherence, corrections, ir_model):
            if getattr(module, "gauss_nodes", None) is gauss:
                tracer.patch(module, "gauss_nodes", "numerics.gauss_nodes")

    mode_table = getattr(decoherence, "_mode_table", None)
    if mode_table is not None and hasattr(mode_table, "cache_info"):
        misses = {"before": 0}

        def note_misses(args, kwargs):
            misses["before"] = mode_table.cache_info().misses
            return args, kwargs

        def count_build(args, kwargs, table):
            if mode_table.cache_info().misses > misses["before"]:
                counts["decoherence.mode_table.builds"] += 1
                counts["decoherence.mode_table.modes"] += len(table[0])

        tracer.patch(
            decoherence, "_mode_table", "decoherence.mode_table", before=note_misses, after=count_build
        )
    else:
        tracer.absent.append("synchrad.decoherence._mode_table (lru_cache)")

    def profile_evals(args, kwargs, values):
        counts["decoherence.profile.evals"] += int(np.size(values)) * len(args[0][0])

    tracer.patch(decoherence, "_profile", "decoherence.profile", after=profile_evals)
    tracer.patch(decoherence, "_scale_radius", "decoherence.scale_radius")
    tracer.patch(decoherence, "_log_profile_interpolant", "decoherence.interpolant")
    tracer.patch(decoherence, "s_averaged", "decoherence.s_averaged")

    def fft_points(args, kwargs, width):
        counts["decoherence.width_fft.points"] += 2 * (len(args[0].r) - 1)

    tracer.patch(decoherence, "_width_from_kernel", "decoherence.width_fft", after=fft_points)

    def finite_width(args, kwargs, width):
        if np.isfinite(width):
            counts["decoherence.widths"] += 1

    tracer.patch(decoherence, "localization_width", "decoherence.localization_width", after=finite_width)

    tracer.patch(corrections, "p_const_velocity", "corrections.p_table")

    def count_fill(args, kwargs):
        provider = kwargs.get("p_provider")
        if provider is not None:

            def counted(t1, t2):
                counts["corrections.p_fill.entries"] += 1
                return provider(t1, t2)

            kwargs = dict(kwargs, p_provider=counted)
        return args, kwargs

    tracer.patch(
        corrections, "corrected_photon_number", "corrections.corrected_photon_number", before=count_fill
    )
    tracer.patch(ir_model, "delta_shift", "ir_model.delta_shift")
    tracer.patch(ir_model, "soft_spectral_density", "ir_model.soft_spectral_density")


# name -> (unit, how to read it from the span totals `t` and counts `c`)
PER_LAYER = {
    "cli.run.self_s": ("s", lambda t, c: t["cli.run"]["self_s"]),
    "cli.artifact_bytes": ("bytes", lambda t, c: c["cli.artifact_bytes"]),
    "packets.packet_report.s": ("s", lambda t, c: t["packets.packet_report"]["s"]),
    "semiclassical.spectral_sum.calls": ("count", lambda t, c: t["semiclassical.spectral_sum"]["calls"]),
    "semiclassical.spectral_sum.terms": ("count", lambda t, c: c["semiclassical.spectral_sum.terms"]),
    "semiclassical.spectral_sum.s": ("s", lambda t, c: t["semiclassical.spectral_sum"]["s"]),
    "semiclassical.schott_angular_rate.calls": (
        "count",
        lambda t, c: t["semiclassical.schott_angular_rate"]["calls"],
    ),
    "numerics.gauss_nodes.calls": ("count", lambda t, c: t["numerics.gauss_nodes"]["calls"]),
    "special.jv.elems": ("count", lambda t, c: c["special.jv.elems"]),
    "special.jvp.elems": ("count", lambda t, c: c["special.jvp.elems"]),
    "special.bessel.s": ("s", lambda t, c: t["special.jv"]["s"] + t["special.jvp"]["s"]),
    "special.j0.elems": ("count", lambda t, c: c["special.j0.elems"]),
    "special.j0.s": ("s", lambda t, c: t["special.j0"]["s"]),
    "special.sici.elems": ("count", lambda t, c: c["special.sici.elems"]),
    "special.sici.s": ("s", lambda t, c: t["special.sici"]["s"]),
    "decoherence.mode_table.builds": ("count", lambda t, c: c["decoherence.mode_table.builds"]),
    "decoherence.mode_table.modes": ("count", lambda t, c: c["decoherence.mode_table.modes"]),
    "decoherence.mode_table.s": ("s", lambda t, c: t["decoherence.mode_table"]["s"]),
    "decoherence.profile.calls": ("count", lambda t, c: t["decoherence.profile"]["calls"]),
    "decoherence.profile.evals": ("count", lambda t, c: c["decoherence.profile.evals"]),
    "decoherence.profile.s": ("s", lambda t, c: t["decoherence.profile"]["s"]),
    "decoherence.scale_radius.calls": ("count", lambda t, c: t["decoherence.scale_radius"]["calls"]),
    "decoherence.scale_radius.s": ("s", lambda t, c: t["decoherence.scale_radius"]["s"]),
    "decoherence.interpolant.s": ("s", lambda t, c: t["decoherence.interpolant"]["s"]),
    "decoherence.s_averaged.s": ("s", lambda t, c: t["decoherence.s_averaged"]["s"]),
    "decoherence.width_fft.calls": ("count", lambda t, c: t["decoherence.width_fft"]["calls"]),
    "decoherence.width_fft.points": ("count", lambda t, c: c["decoherence.width_fft.points"]),
    "decoherence.width_fft.s": ("s", lambda t, c: t["decoherence.width_fft"]["s"]),
    "decoherence.width_fft.per_width": (
        "ratio",
        lambda t, c: t["decoherence.width_fft"]["calls"] / c["decoherence.widths"]
        if c["decoherence.widths"]
        else 0.0,
    ),
    "corrections.p_table.calls": ("count", lambda t, c: t["corrections.p_table"]["calls"]),
    "corrections.p_table.s": ("s", lambda t, c: t["corrections.p_table"]["s"]),
    "corrections.p_fill.entries": ("count", lambda t, c: c["corrections.p_fill.entries"]),
    "corrections.corrected_photon_number.self_s": (
        "s",
        lambda t, c: t["corrections.corrected_photon_number"]["self_s"],
    ),
    "ir_model.delta_shift.calls": ("count", lambda t, c: t["ir_model.delta_shift"]["calls"]),
    "ir_model.delta_shift.s": ("s", lambda t, c: t["ir_model.delta_shift"]["s"]),
    "ir_model.soft_spectral_density.calls": (
        "count",
        lambda t, c: t["ir_model.soft_spectral_density"]["calls"],
    ),
    "ir_model.soft_spectral_density.s": ("s", lambda t, c: t["ir_model.soft_spectral_density"]["s"]),
}


def per_layer_metrics(tracer: Tracer) -> dict:
    """Every PER_LAYER metric as {"value", "unit"}; a span name that never
    ran reads 0."""
    totals = tracer.totals()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    class Spans(dict):
        def __missing__(self, key):
            return empty

    spans = Spans(totals)
    return {
        name: {"value": read(spans, tracer.counts), "unit": unit}
        for name, (unit, read) in PER_LAYER.items()
    }
