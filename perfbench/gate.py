"""Correctness gate: every artifact a command writes is checked before its time counts.

Two checks, both written against the file formats rather than the package's
readers, so a defect in a reader cannot hide a defect in a writer:

* for any seed, each alignment strips back to its input log, each report and
  sample table parses, and every metric lies in its documented range;
* at the default seed, each artifact's sha256 equals the digest recorded in
  ``digests.json`` for the seed commit (outputs are byte-identical).

Each check returns ``None`` when the artifact passes, otherwise a one-line reason.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import (
    CORRELATE_MAX_MOVES,
    CORRELATE_SAMPLES,
    DEFAULT_SEED,
    TF_RATIO,
    PatternCensus,
    Workload,
)

DIGESTS = Path(__file__).with_name("digests.json")
METRICS = ("ref_free_sps", "ref_based_sps", "column_score", "ms_top", "oms", "ois", "complexity")
# Documented ranges; None means unbounded on that side.
RANGES = {
    "ref_free_sps": (None, None),
    "ref_based_sps": (0.0, 1.0),
    "column_score": (0.0, 1.0),
    "ms_top": (0.0, None),
    "oms": (0.0, None),
    "ois": (0.0, 1.0),
    "complexity": (0.0, 1.0),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _out_of_range(name: str, value) -> str | None:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        return f"{name} is not a finite number: {value!r}"
    lo, hi = RANGES[name]
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        return f"{name}={value} outside [{lo}, {hi}]"
    return None


def check_alignment(path: Path, traces: list[tuple[str, tuple[str, ...]]]) -> str | None:
    """The alignment file must strip back, row for row, to the input log."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 2 or lines[0] != "#tracealign-alignment v1" or not lines[1].startswith("#L="):
        return f"{path.name}: bad header"
    length = int(lines[1][3:])
    rows = lines[2:]
    if len(rows) != len(traces):
        return f"{path.name}: {len(rows)} rows for {len(traces)} traces"
    occupied = [False] * length
    for row, (case_id, activities) in zip(rows, traces):
        parts = row.split("\t")
        if parts[0] != case_id or len(parts) != length + 1:
            return f"{path.name}: row {case_id!r} has the wrong case id or width"
        cells = parts[1:]
        if tuple(c for c in cells if c != "-") != activities:
            return f"{path.name}: row {case_id!r} does not strip back to its trace"
        occupied = [o or c != "-" for o, c in zip(occupied, cells)]
    if not all(occupied):
        return f"{path.name}: all-gap column"
    return None


def check_report(
    path: Path, census: PatternCensus, n_activities: int, with_reference: bool
) -> str | None:
    """A JSON metric report of ``evaluate`` with every value in range."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
        accuracy = report["accuracy"]
        complexity = report["complexity"]
        values = {
            "ref_free_sps": accuracy["ref_free_sps"],
            "ms_top": accuracy["ms_top"],
            "oms": accuracy["oms"],
            "ois": report["confidence"]["ois"],
            "complexity": complexity["value"],
        }
        if with_reference:
            values["ref_based_sps"] = accuracy["ref_based_sps"]
            values["column_score"] = accuracy["column_score"]
        for name, value in values.items():
            problem = _out_of_range(name, value)
            if problem:
                return f"{path.name}: {problem}"
        if report["format"] != "tracealign-report" or report["parameters"]["tf_ratio"] != TF_RATIO:
            return f"{path.name}: wrong format or parameters"
        if not complexity["lower_bound"] - 1e-12 <= complexity["value"] <= complexity["upper_bound"] + 1e-12:
            return f"{path.name}: complexity outside its bounds"
        if census.count(accuracy["top_pattern"]) != census.f_max:
            return f"{path.name}: top_pattern {accuracy['top_pattern']} is not a most frequent pattern"
        n_e = accuracy["n_e"]
        if with_reference != (n_e is not None) or (
            with_reference and not (isinstance(n_e, int) and 0 <= n_e <= n_activities)
        ):
            return f"{path.name}: n_e={n_e!r} out of range"
        if any(e["label"] not in census.code for e in report["consensus"]):
            return f"{path.name}: consensus label outside the alphabet"
    except (ValueError, KeyError, TypeError) as exc:
        return f"{path.name}: does not parse: {exc!r}"
    return None


def check_correlation(csv_path: Path, json_path: Path, seed: int) -> str | None:
    """The sample table and JSON report of ``correlate``."""
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["sample_id", "n_e", *METRICS] or len(rows) != CORRELATE_SAMPLES + 1:
            return f"{csv_path.name}: wrong header or row count"
        for i, row in enumerate(rows[1:]):
            if int(row[0]) != i or int(row[1]) < 0:
                return f"{csv_path.name}: bad sample_id or n_e in row {i}"
            for name, cell in zip(METRICS, row[2:]):
                if cell == "" and name in ("ref_based_sps", "oms"):
                    continue
                problem = _out_of_range(name, float(cell))
                if problem:
                    return f"{csv_path.name}: row {i}: {problem}"
        report = json.loads(json_path.read_text(encoding="utf-8"))
        if report["format"] != "tracealign-correlation" or report["parameters"]["seed"] != seed:
            return f"{json_path.name}: wrong format or seed"
        if len(report["samples"]) != CORRELATE_SAMPLES:
            return f"{json_path.name}: wrong sample count"
        if any(not 0 <= s["moves"] <= CORRELATE_MAX_MOVES for s in report["samples"]):
            return f"{json_path.name}: move count out of range"
        for name, value in report["coefficients"].items():
            if value is not None and not -1.0 <= value <= 1.0:
                return f"{json_path.name}: coefficient {name}={value} outside [-1, 1]"
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{csv_path.name}/{json_path.name}: does not parse: {exc!r}"
    return None


class Gate:
    """Checks the artifacts of one workload's commands in one run directory."""

    def __init__(self, workload: Workload, seed: int, rundir: Path, log, check_digests: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.rundir = rundir
        self.traces = [(t.case_id, tuple(t.activities)) for t in log.traces]
        self.census = PatternCensus([acts for _, acts in self.traces])
        self.n_activities = sum(len(acts) for _, acts in self.traces)
        self.digests = None
        if check_digests:
            self.digests = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload.name, {})

    def check(self, command: str, artifacts: tuple[str, ...]) -> str | None:
        paths = [self.rundir / name for name in artifacts]
        missing = [p.name for p in paths if not p.is_file()]
        if missing:
            return f"{command}: missing {', '.join(missing)}"
        if command in ("align", "consensus"):
            problem = check_alignment(paths[0], self.traces)
        elif command == "evaluate":
            problem = check_report(
                paths[0], self.census, self.n_activities, self.workload.with_reference
            )
        else:
            problem = check_correlation(paths[0], paths[1], self.seed)
        if problem or self.digests is None:
            return problem
        for p in [self.rundir / "log.txt", *paths]:
            if sha256(p) != self.digests.get(p.name):
                return f"{p.name}: sha256 differs from the digest recorded at seed {DEFAULT_SEED}"
        return None
