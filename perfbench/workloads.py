"""Workloads of the tracealign benchmark: input logs, command lines, input properties.

Each workload is one event log, generated from the benchmark seed, and the
CLI commands a user would run on it, in order.  The log is written to
``log.txt`` in the run directory; every command reads and writes files
relative to that directory.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 7
TF_RATIO = 0.4
CONSENSUS_K = 8
CORRELATE_SAMPLES = 60
CORRELATE_MAX_MOVES = 80

# The files each command writes, in the run directory.
ARTIFACTS = {
    "align": ("align.aln",),
    "consensus": ("ref.aln",),
    "evaluate": ("report.json",),
    "correlate": ("samples.csv", "corr.json"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    traces: int
    commands: tuple[str, ...]
    model: str | None = None  # bundled process model; None means random_log
    length: int = 0  # trace length of random_log

    @property
    def with_reference(self) -> bool:
        """``evaluate`` scores against the consensus when the workload builds one."""
        return "consensus" in self.commands

    def parameters(self) -> dict:
        return {
            "model": self.model or "random_log",
            "traces": self.traces,
            "length": self.length or None,
            "commands": list(self.commands),
            "consensus_k": CONSENSUS_K,
            "correlate_samples": CORRELATE_SAMPLES,
            "correlate_max_moves": CORRELATE_MAX_MOVES,
            "tf_ratio": TF_RATIO,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "variants",
            "many short, heavily repeated traces: alignment and the guide tree dominate",
            traces=150,
            commands=("align", "consensus", "evaluate"),
            model="diagnostics",
        ),
        Workload(
            "long-random",
            "long traces with no repeated variant: DP cells and the pattern census dominate",
            traces=50,
            commands=("align", "evaluate"),
            length=100,
        ),
        Workload(
            "correlate",
            "the metrics run on many perturbed alignments of one small log",
            traces=30,
            commands=("align", "consensus", "evaluate", "correlate"),
            model="claims",
        ),
    )
}


def random_log(n_traces: int, length: int, n_types: int = 14, seed: int = 0):
    """Uniformly random traces of one length (the generator of benchmarks/bench_kernels.py)."""
    from tracealign import EventLog, Trace

    rng = np.random.default_rng(seed)
    alphabet = [f"act{i:02d}" for i in range(n_types)]
    return EventLog(
        [
            Trace(f"t{i}", [alphabet[int(c)] for c in rng.integers(0, n_types, size=length)])
            for i in range(n_traces)
        ]
    )


def make_log(workload: Workload, seed: int):
    """The workload's event log for ``seed``; the same seed gives the same log."""
    from tracealign import generate_log, load_bundled_model

    if workload.model is None:
        return random_log(workload.traces, workload.length, seed=seed)
    return generate_log(load_bundled_model(workload.model), workload.traces, seed)


def command_args(workload: Workload, command: str, seed: int) -> list[str]:
    """Arguments of ``python -m tracealign.cli`` for one command of the workload."""
    if command == "align":
        return ["align", "log.txt", "-o", "align.aln"]
    if command == "consensus":
        return ["consensus", "log.txt", "-k", str(CONSENSUS_K), "--seed", str(seed), "-o", "ref.aln"]
    if command == "evaluate":
        reference = ["--reference", "ref.aln"] if workload.with_reference else []
        return ["evaluate", "align.aln", *reference, "-f", "json", "-o", "report.json"]
    if command == "correlate":
        return [
            "correlate", "log.txt",
            "--samples", str(CORRELATE_SAMPLES),
            "--max-moves", str(CORRELATE_MAX_MOVES),
            "--seed", str(seed),
            "-o", "samples.csv",
            "--report", "corr.json",
        ]
    raise ValueError(f"unknown command {command!r}")


class PatternCensus:
    """Occurrence count of every contiguous subsequence of length >= 2.

    Computed here, independently of ``tracealign.metrics``, so the gate can
    check the program's census-derived outputs against it.  Patterns are
    keyed by one byte per activity.
    """

    def __init__(self, traces: list[tuple[str, ...]]) -> None:
        labels = sorted({a for t in traces for a in t})
        if len(labels) > 256:
            raise ValueError("PatternCensus supports at most 256 activity types")
        self.code = {label: i for i, label in enumerate(labels)}
        self.counts: Counter = Counter()
        for trace in traces:
            b = self.encode(trace)
            for m in range(2, len(b) + 1):
                self.counts.update(b[i : i + m] for i in range(len(b) - m + 1))
        self.f_max = max(self.counts.values(), default=0)

    def encode(self, pattern) -> bytes:
        return bytes(self.code[a] for a in pattern)

    def count(self, pattern) -> int:
        if any(a not in self.code for a in pattern):
            return 0
        return self.counts[self.encode(pattern)]


def properties(traces: list[tuple[str, ...]], census: PatternCensus) -> dict:
    """The input properties the program's cost depends on."""
    lengths = [len(t) for t in traces]
    distinct = len(set(traces))
    return {
        "traces": len(traces),
        "distinct_variants": distinct,
        "distinct_variant_share": distinct / len(traces),
        "activity_types": len(census.code),
        "mean_trace_length": sum(lengths) / len(lengths),
        "max_trace_length": max(lengths),
        "census_patterns": len(census.counts),
        "f_max": census.f_max,
        "eligible_patterns": sum(1 for n in census.counts.values() if n > TF_RATIO * census.f_max),
    }
