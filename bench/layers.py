"""Which oacm calls the traced run wraps, and the per-layer metrics made from them.

Layers are the modules of src/oacm.  Each traced call becomes a span; the
counters are read at the same boundary.  Per operation, a call's seconds
and counters are summed over its calls (similarity_curve builds its own
histogram, so analysis.histogram_s counts that call too).  A time is the
median of those per-operation sums over the timed operations; a count is
their mean, which is the same in every run of a seed because runs hold
whole rounds; a peak is the largest over the memory pass.  A layer the
workload never calls reads 0.
"""

from __future__ import annotations

import math
import os
import statistics
from collections import defaultdict

import oacm
import oacm.cli


def _decompose_counters(args, kwargs, cycles):
    lengths = cycles.lengths
    return {
        "pixels": int(lengths.sum()),
        "cycles": int(lengths.size),
        "longest_orbit": int(lengths.max()),
        "period_digits": len(str(math.lcm(*set(lengths.tolist())))),
    }


def _build_counters(args, kwargs, perm):
    tiling = args[0] if args else kwargs["tiling"]
    return {"square_px": len(tiling.squares) * tiling.params.square_size**2}


def targets() -> dict:
    """Function -> (span name, counter hook)."""
    return {
        oacm.cli.main: ("cli.main", None),
        oacm.read_image: ("images.read_image", lambda a, k, r: {"bytes_in": os.path.getsize(a[0])}),
        oacm.write_image: ("images.write_image", lambda a, k, r: {"bytes_out": os.path.getsize(a[1])}),
        oacm.shift_pixels: ("images.shift_pixels", None),
        oacm.square_locations: ("tiling.square_locations", lambda a, k, r: {"squares": len(r.squares)}),
        oacm.build_oacm_permutation: ("permutation.build_oacm_permutation", _build_counters),
        oacm.cycle_decompose: ("permutation.cycle_decompose", _decompose_counters),
        oacm.image_period: ("permutation.image_period", None),
        oacm.orbit_histogram: ("analysis.orbit_histogram", None),
        oacm.similarity_curve: (
            "analysis.similarity_curve",
            lambda a, k, r: {"similarity_points": len(r.points)},
        ),
        oacm.matrix_period: ("acm.matrix_period", lambda a, k, r: {"map_period": r}),
        oacm.period_bound_for_image: (
            "landau.period_bound_for_image",
            lambda a, k, r: {"g_digits": len(str(r.g))},
        ),
    }


# metric -> (unit, span name, what): "s" seconds, "peak" MB, or a counter name
METRICS = {
    "cli.main_s": ("s", "cli.main", "s"),
    "cli.self_s": ("s", "cli.main", "self"),
    "images.read_s": ("s", "images.read_image", "s"),
    "images.write_s": ("s", "images.write_image", "s"),
    "images.shift_s": ("s", "images.shift_pixels", "s"),
    "images.shift_peak_mb": ("MB", "images.shift_pixels", "peak"),
    "images.bytes_in": ("B", "images.read_image", "bytes_in"),
    "images.bytes_out": ("B", "images.write_image", "bytes_out"),
    "tiling.locations_s": ("s", "tiling.square_locations", "s"),
    "tiling.squares": ("count", "tiling.square_locations", "squares"),
    "permutation.build_s": ("s", "permutation.build_oacm_permutation", "s"),
    "permutation.build_peak_mb": ("MB", "permutation.build_oacm_permutation", "peak"),
    "permutation.square_px": ("count", "permutation.build_oacm_permutation", "square_px"),
    "permutation.build_ns_per_square_px": ("ns", "permutation.build_oacm_permutation", "ratio"),
    "permutation.decompose_s": ("s", "permutation.cycle_decompose", "s"),
    "permutation.decompose_peak_mb": ("MB", "permutation.cycle_decompose", "peak"),
    "permutation.decompose_ns_per_px": ("ns", "permutation.cycle_decompose", "ratio"),
    "permutation.cycles": ("count", "permutation.cycle_decompose", "cycles"),
    "permutation.longest_orbit": ("count", "permutation.cycle_decompose", "longest_orbit"),
    "permutation.period_digits": ("count", "permutation.cycle_decompose", "period_digits"),
    "permutation.period_s": ("s", "permutation.image_period", "s"),
    "analysis.histogram_s": ("s", "analysis.orbit_histogram", "s"),
    "analysis.similarity_s": ("s", "analysis.similarity_curve", "s"),
    "analysis.similarity_points": ("count", "analysis.similarity_curve", "similarity_points"),
    "acm.matrix_period_s": ("s", "acm.matrix_period", "s"),
    "acm.map_period": ("count", "acm.matrix_period", "map_period"),
    "landau.g_s": ("s", "landau.period_bound_for_image", "s"),
    "landau.g_peak_mb": ("MB", "landau.period_bound_for_image", "peak"),
    "landau.g_digits": ("count", "landau.period_bound_for_image", "g_digits"),
}

# the counter each ratio metric divides by
RATIO_BASE = {
    "permutation.build_ns_per_square_px": "square_px",
    "permutation.decompose_ns_per_px": "pixels",
}


def aggregate(spans) -> dict:
    """Per-layer metrics from the spans of the timed operations and the memory pass."""
    seconds = defaultdict(lambda: defaultdict(float))  # name -> op -> seconds
    own = defaultdict(float)  # cli.main span's op -> seconds outside its child spans
    counters = defaultdict(lambda: defaultdict(int))  # (name, counter) -> op -> sum
    peaks = defaultdict(float)
    for span in spans:
        if span.peak_mb is not None:
            peaks[span.name] = max(peaks[span.name], span.peak_mb)
        if not isinstance(span.op, int):  # the memory pass
            continue
        seconds[span.name][span.op] += span.seconds
        if span.name == "cli.main":
            own[span.op] += span.seconds
        elif span.parent is not None and spans[span.parent].name == "cli.main":
            own[span.op] -= span.seconds
        for key, value in span.counters.items():
            counters[span.name, key][span.op] += value

    metrics = {}
    for metric, (unit, name, what) in METRICS.items():
        if what == "s":
            per_op = seconds[name].values()
            value = statistics.median(per_op) if per_op else 0.0
        elif what == "self":
            value = statistics.median(own.values()) if own else 0.0
        elif what == "peak":
            value = peaks.get(name, 0.0)
        elif what == "ratio":
            base = sum(counters[name, RATIO_BASE[metric]].values())
            value = 1e9 * sum(seconds[name].values()) / base if base else 0.0
        else:
            per_op = counters[name, what]
            value = sum(per_op.values()) / len(per_op) if per_op else 0
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
