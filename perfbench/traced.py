"""Run one tracealign CLI command with the public functions of each layer traced.

    python3 perfbench/traced.py SPANS_JSON CLI_ARGS...

The package is not changed.  After ``tracealign.cli`` is imported, each
function in ``TARGETS`` is replaced, in every tracealign module that holds
a reference to it (where it is defined and where it is imported), by a
wrapper that records a span: id, parent id, layer, name, start, end, plus
the work done where it can be counted from the arguments.  The command runs
under a root span ``cli.main``.  Spans are kept in memory and written to
SPANS_JSON when the command returns; the exit status is the command's.

``layer_metrics`` turns the spans of one or more commands into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# Layer (package module) -> traced public functions.
TARGETS = {
    "tracealign._kernels": ("nw_scores", "profile_fill", "traceback", "ms_pattern", "column_counts"),
    "tracealign.aligner": (
        "distance_matrix",
        "build_guide_tree",
        "align_profiles",
        "progressive_align",
        "consensus_reference",
    ),
    "tracealign.metrics": (
        "extract_patterns",
        "most_frequent_pattern",
        "misalignment_score",
        "overall_misalignment_score",
        "overall_information_score",
        "consensus_sequence",
        "alignment_complexity",
        "ref_free_sps",
        "ref_based_sps",
        "column_score",
        "count_heuristic_errors",
        "evaluate_alignment",
    ),
    "tracealign.core": ("validate_alignment",),
    "tracealign.experiments": ("perturb", "correlation_experiment"),
    "tracealign.formats": (
        "read_log",
        "read_alignment",
        "write_alignment",
        "write_report",
        "write_samples_csv",
    ),
}
LAYERS = ("kernels", "aligner", "metrics", "core", "experiments", "formats", "cli")


def layer_of(module: str) -> str:
    return module.rsplit(".", 1)[1].lstrip("_")


def _nw_work(bound: dict, result) -> dict:
    lengths = [int(n) for n in bound["lengths"]]
    total = sum(lengths)
    return {
        "pairs": len(lengths) * (len(lengths) - 1) // 2,
        "cells": (total * total - sum(n * n for n in lengths)) // 2,
    }


# Work counted from a call's bound arguments and its result.
WORK = {
    "nw_scores": _nw_work,
    "profile_fill": lambda bound, result: {"cells": int(bound["s"].size)},
    "perturb": lambda bound, result: {"moves": int(bound["moves"])},
    "extract_patterns": lambda bound, result: {"patterns": len(result)},
}


class Tracer:
    def __init__(self) -> None:
        # [id, parent, layer, name, start, end, work]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, layer: str, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, layer, name, time.perf_counter(), None, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, name: str, fn):
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if work:
                self.spans[sid][6] = work(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Swap every reference to a traced function, in every tracealign module."""
    import tracealign.cli  # noqa: F401  (imports every layer)

    modules = [m for n, m in sys.modules.items() if n == "tracealign" or n.startswith("tracealign.")]
    for module_name, names in TARGETS.items():
        for name in names:
            original = getattr(sys.modules[module_name], name)
            wrapper = tracer.wrap(layer_of(module_name), name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def layer_metrics(spans: list[list], wall: float) -> dict[str, float]:
    """Per-layer metrics from the spans of traced commands that took ``wall`` seconds.

    ``<fn>.s`` is inclusive time of the outermost calls of ``fn``;
    ``<fn>.calls`` counts every call; ``<layer>.self_s`` is span time minus
    the time of the span's children, summed over the layer's spans, except
    ``cli.self_s``: command wall time (interpreter start and imports
    included) minus the time of the spans ``cli.main`` calls directly.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out["cli.self_s"] = wall
    for names in TARGETS.values():
        for name in names:
            out[f"{name}.s"] = 0.0
            out[f"{name}.calls"] = 0
    work: dict[str, int] = defaultdict(int)
    ms_under_oms = 0
    for sid, parent, layer, name, start, end, done in spans:
        duration = end - start
        if layer == "cli":
            out["cli.self_s"] -= child_time[sid]
            continue
        out[f"{layer}.self_s"] += duration - child_time[sid]
        out[f"{name}.calls"] += 1
        ancestor = parent
        while ancestor is not None and by_id[ancestor][3] != name:
            ancestor = by_id[ancestor][1]
        if ancestor is None:
            out[f"{name}.s"] += duration
        for key, value in (done or {}).items():
            work[f"{name}.{key}"] += value
        if name == "misalignment_score" and parent is not None and by_id[parent][3] == "overall_misalignment_score":
            ms_under_oms += 1

    oms_calls = out["overall_misalignment_score.calls"]
    out.update(
        {
            "nw_scores.pairs": work["nw_scores.pairs"],
            "nw_scores.cells": work["nw_scores.cells"],
            "profile_fill.cells": work["profile_fill.cells"],
            "perturb.moves": work["perturb.moves"],
            # Patterns in the census, and patterns above the tf_ratio cut per OMS call.
            "census_patterns": work["extract_patterns.patterns"] // max(1, out["extract_patterns.calls"]),
            "eligible_patterns": ms_under_oms // max(1, oms_calls),
            "samples": out["perturb.calls"],
        }
    )
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import tracealign.cli

    sid = tracer.open("cli", "main")
    try:
        status = tracealign.cli.main(cli_args)
    finally:
        tracer.close(sid)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
