"""Versioned file formats for logs, alignments, models, and reports.

Every file the command line writes is rendered here.  Log files carry
one trace per line: ``case_id<TAB>label,label,...``.  Alignment files
carry one row per trace: ``case_id<TAB>cell<TAB>...`` with ``-`` as the
gap cell and a ``#L=<columns>`` header.  Both start with a version line
(``#tracealign-log v1`` / ``#tracealign-alignment v1``); parsers accept
missing version lines as v1 but reject any other version explicitly.
Any other line starting with ``#`` is a comment, so the writers refuse
case ids that start with ``#``.  Model specs, metric reports,
correlation reports and pattern tables are JSON documents with explicit
version fields, all serialized by :func:`_json_text`.
"""

from __future__ import annotations

import codecs
import io
import json
from pathlib import Path
from typing import IO

import numpy as np

from .core import GAP, Alignment, EventLog, ModelSpecError, Trace, TraceAlignError
from .experiments import CorrelationReport, ProcessModelSpec
from .metrics import METRIC_ORDER, MetricReport, PatternCensus

LOG_MAGIC = "#tracealign-log"
ALIGNMENT_MAGIC = "#tracealign-alignment"
FORMAT_VERSION = "v1"
REPORT_SCHEMA_VERSION = 1


class FileFormatError(TraceAlignError):
    """Malformed input file; carries path, line, and column."""

    def __init__(self, path: object, line: int, column: int, message: str) -> None:
        self.path = str(path)
        self.line = line
        self.column = column
        super().__init__(f"{path}:{line}:{column}: {message}")


def _check_version(path: object, line_no: int, line: str, magic: str) -> None:
    token = line.split()
    if len(token) != 2 or token[1] != FORMAT_VERSION:
        raise FileFormatError(
            path, line_no, 1, f"unsupported {magic[1:]} version {line[len(magic):].strip()!r}"
        )


def _open_text(path: str | Path) -> io.StringIO:
    """The file's UTF-8 text, read as ``open`` reads it (universal newlines).

    A leading byte-order mark is dropped, so columns count from the first
    character after it.  Undecodable bytes are a :class:`FileFormatError`
    at their line and column, not a ``UnicodeDecodeError`` without a path.
    """
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        head = io.StringIO(data[: exc.start].decode("utf-8"), newline=None).read()
        line = head.count("\n") + 1
        column = len(head) - head.rfind("\n")
        raise FileFormatError(path, line, column, f"not UTF-8 text ({exc.reason})") from None


def _json_text(document: dict) -> str:
    """A JSON document as written to a file: sorted keys, two-space indent, final newline."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _check_case_ids(log: EventLog) -> None:
    """Refuse case ids that the readers would skip as comment lines."""
    hashed = [trace.case_id for trace in log.traces if trace.case_id.startswith("#")]
    if hashed:
        raise ValueError(f"case id {hashed[0]!r} starts with '#' and would read back as a comment")


# ---------------------------------------------------------------------------
# Event logs.


def write_log(log: EventLog, path: str | Path) -> None:
    # Checked first, so a rejected log leaves no file behind.
    _check_case_ids(log)
    commas = [label for trace in log.traces for label in trace.activities if "," in label]
    if commas:
        raise ValueError(f"label {commas[0]!r} contains a comma and cannot be serialized")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{LOG_MAGIC} {FORMAT_VERSION}\n")
        for trace in log.traces:
            fh.write(f"{trace.case_id}\t{','.join(trace.activities)}\n")


def read_log(path: str | Path) -> EventLog:
    traces: list[Trace] = []
    seen: set[str] = set()
    with _open_text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line.startswith(LOG_MAGIC):
                _check_version(path, line_no, line, LOG_MAGIC)
                continue
            if line.startswith(ALIGNMENT_MAGIC):
                raise FileFormatError(path, line_no, 1, "this is an alignment file, not a log")
            if not line or line.startswith("#"):
                continue
            if "\t" not in line:
                raise FileFormatError(
                    path, line_no, 1, "expected 'case_id<TAB>activity,activity,...'"
                )
            case_id, _, rest = line.partition("\t")
            if case_id in seen:
                raise FileFormatError(path, line_no, 1, f"duplicate case id {case_id!r}")
            seen.add(case_id)
            labels = rest.split(",")
            column = len(case_id) + 2
            activities = []
            for label in labels:
                if not label:
                    raise FileFormatError(path, line_no, column, "empty activity label")
                if label == GAP:
                    raise FileFormatError(
                        path, line_no, column, f"label {GAP!r} is reserved for gaps"
                    )
                activities.append(label)
                column += len(label) + 1
            try:
                traces.append(Trace(case_id, activities))
            except ValueError as exc:
                raise FileFormatError(path, line_no, 1, str(exc)) from None
    if not traces:
        raise FileFormatError(path, 1, 1, "log file contains no traces")
    return EventLog(traces)


# ---------------------------------------------------------------------------
# Alignments.


def write_alignment(alignment: Alignment, path: str | Path) -> None:
    _check_case_ids(alignment.source)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{ALIGNMENT_MAGIC} {FORMAT_VERSION}\n")
        fh.write(f"#L={alignment.length}\n")
        for i, trace in enumerate(alignment.source.traces):
            fh.write(trace.case_id + "\t" + "\t".join(alignment.row_labels(i)) + "\n")


def read_alignment(path: str | Path) -> Alignment:
    """Parse an alignment file; the source log is recovered from the rows.

    The rows are not checked against their traces, as
    :meth:`~tracealign.core.Alignment.from_label_rows` checks them: each
    trace is built from its own row's labels, so it cannot differ.
    """
    length: int | None = None
    case_ids: list[str] = []
    rows: list[list[str]] = []
    row_lines: list[int] = []
    seen: set[str] = set()
    with _open_text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line.startswith(ALIGNMENT_MAGIC):
                _check_version(path, line_no, line, ALIGNMENT_MAGIC)
                continue
            if line.startswith(LOG_MAGIC):
                raise FileFormatError(path, line_no, 1, "this is a log file, not an alignment")
            if line.startswith("#L="):
                try:  # ASCII digits only; int() also takes signs, spaces, "_", other digits
                    count = int(line[3:]) if line[3:].encode().isdigit() else 0
                except ValueError:  # more digits than int() converts
                    count = 0
                if count < 1:
                    raise FileFormatError(path, line_no, 4, f"bad column count {line[3:]!r}")
                if length is not None and count != length:
                    message = f"column count {count} contradicts the earlier #L={length}"
                    raise FileFormatError(path, line_no, 4, message)
                length = count
                continue
            if not line or line.startswith("#"):
                continue
            if length is None:
                raise FileFormatError(path, line_no, 1, "missing #L= header before rows")
            parts = line.split("\t")
            if len(parts) != length + 1:
                raise FileFormatError(
                    path, line_no, 1, f"expected {length} cells, found {len(parts) - 1}"
                )
            if parts[0] in seen:
                raise FileFormatError(path, line_no, 1, f"duplicate case id {parts[0]!r}")
            seen.add(parts[0])
            case_ids.append(parts[0])
            rows.append(parts[1:])
            row_lines.append(line_no)
    if not rows:
        raise FileFormatError(path, 1, 1, "alignment file contains no rows")

    traces = []
    for case_id, row, line_no in zip(case_ids, rows, row_lines):
        labels = [cell for cell in row if cell != GAP]
        try:
            traces.append(Trace(case_id, labels))
        except ValueError as exc:
            raise FileFormatError(path, line_no, 1, str(exc)) from None
    # Each trace is its row's labels, so the k-th label of a row is ordinal k.
    occupied = np.array(rows, dtype=object) != GAP
    alignment = Alignment(EventLog(traces), np.where(occupied, occupied.cumsum(axis=1) - 1, -1))
    if alignment.violations:
        raise FileFormatError(path, 1, 1, f"invalid alignment: {alignment.violations[0].message}")
    return alignment


# ---------------------------------------------------------------------------
# Model specs.


def write_model(spec: ProcessModelSpec, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(spec.to_dict()))


def read_model(path: str | Path) -> ProcessModelSpec:
    text = _open_text(path).read()
    try:
        return ProcessModelSpec.from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise FileFormatError(path, exc.lineno, exc.colno, exc.msg) from None
    except ModelSpecError as exc:
        raise ModelSpecError(f"{path}: {exc}") from None
    except ValueError as exc:  # e.g. an integer past Python's digit limit
        raise FileFormatError(path, 1, 1, str(exc)) from None
    except RecursionError:
        raise FileFormatError(path, 1, 1, "model nests too deeply to read") from None


# ---------------------------------------------------------------------------
# Metric reports.


def _format_value(value: float | int | None) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6f}"


def report_to_dict(report: MetricReport) -> dict:
    return {
        "format": "tracealign-report",
        "schema_version": REPORT_SCHEMA_VERSION,
        "accuracy": {
            "ref_based_sps": report.ref_based_sps,
            "ref_free_sps": report.ref_free_sps,
            "column_score": report.column_score,
            "ms_top": report.ms_top,
            "top_pattern": list(report.top_pattern),
            "oms": report.oms,
            "n_e": report.n_e,
        },
        "confidence": {"ois": report.ois},
        "complexity": {
            "value": report.complexity.value,
            "lower_bound": report.complexity.lower_bound,
            "upper_bound": report.complexity.upper_bound,
        },
        "consensus": [
            {"column": e.column, "label": e.label, "tied": e.tied} for e in report.consensus
        ],
        "parameters": {
            "tf_ratio": report.tf_ratio,
            "majority": report.majority,
            "match": report.scheme.match,
            "mismatch": report.scheme.mismatch,
            "gap": report.scheme.gap,
        },
    }


def render_report_human(report: MetricReport) -> str:
    """Plain-text report ordered accuracy, then confidence, then complexity."""
    lines = ["alignment evaluation", "", "accuracy"]
    if report.ref_based_sps is not None:
        lines.append(f"  ref_based_sps   {_format_value(report.ref_based_sps)}")
    lines.append(f"  ref_free_sps    {_format_value(report.ref_free_sps)}")
    if report.column_score is not None:
        lines.append(f"  column_score    {_format_value(report.column_score)}")
    lines.append(f"  ms_top          {_format_value(report.ms_top)}   pattern {report.top_pattern!r}")
    lines.append(f"  oms             {_format_value(report.oms)}")
    if report.n_e is not None:
        lines.append(f"  n_e             {report.n_e}")
    lines.append("confidence")
    lines.append(f"  ois             {_format_value(report.ois)}")
    lines.append("complexity")
    lines.append(
        f"  value           {_format_value(report.complexity.value)}"
        f"   bounds [{_format_value(report.complexity.lower_bound)},"
        f" {_format_value(report.complexity.upper_bound)}]"
    )
    consensus = " ".join(e.label + ("*" if e.tied else "") for e in report.consensus)
    lines.append(f"consensus        {consensus or '(empty)'}")
    return "\n".join(lines) + "\n"


def write_report(report: MetricReport, stream: IO[str], fmt: str = "human") -> None:
    if fmt == "json":
        stream.write(_json_text(report_to_dict(report)))
    elif fmt == "human":
        stream.write(render_report_human(report))
    else:
        raise ValueError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# Correlation sample tables.


def write_samples_csv(report: CorrelationReport, path: str | Path) -> None:
    """Delimited sample table: sample_id, n_e, then one column per metric."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sample_id,n_e," + ",".join(METRIC_ORDER) + "\n")
        for point in report.samples:
            cells = [str(point.sample_id), str(point.n_e)]
            for name in METRIC_ORDER:
                value = point.metrics[name]
                cells.append("" if value is None else repr(float(value)))
            fh.write(",".join(cells) + "\n")


def correlation_to_dict(report: CorrelationReport) -> dict:
    return {
        "format": "tracealign-correlation",
        "schema_version": REPORT_SCHEMA_VERSION,
        "coefficients": report.coefficients,
        "notes": report.notes,
        "parameters": report.parameters,
        "samples": [
            {"sample_id": p.sample_id, "moves": p.moves, "n_e": p.n_e, "metrics": p.metrics}
            for p in report.samples
        ],
    }


def write_correlation_report(report: CorrelationReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(correlation_to_dict(report)))


# ---------------------------------------------------------------------------
# Pattern length-frequency tables.


def render_patterns(census: PatternCensus, buckets: int = 10, fmt: str = "human") -> str:
    """The census's (length, frequency bucket) table as ``human`` text, ``csv`` or ``json``."""
    rows = sorted(census.length_frequency_table(buckets).items())
    if fmt == "json":
        table = [{"length": n, "bucket": b, "patterns": count} for (n, b), count in rows]
        return _json_text({"format": "tracealign-patterns", "schema_version": 1, "table": table,
                           "f_max": census.f_max, "bounds": [census.min_len, census.max_len],
                           "buckets": buckets})
    # Bucket b spans 100 * b // buckets to 100 * (b + 1) // buckets percent of f_max.
    spans = [(n, 100 * b // buckets, 100 * (b + 1) // buckets, count) for (n, b), count in rows]
    if fmt == "csv":
        lines = ["length,bucket_low_pct,bucket_high_pct,patterns"]
        lines += [f"{n},{low},{high},{count}" for n, low, high, count in spans]
    elif fmt == "human":
        lines = [f"pattern census: {len(census)} patterns, f_max={census.f_max}",
                 f"{'length':>6} {'freq bucket':>12} {'patterns':>9}"]
        lines += [f"{n:>6} {f'{low}-{high}%':>12} {count:>9}" for n, low, high, count in spans]
    else:
        raise ValueError(f"unknown pattern table format {fmt!r}")
    return "\n".join(lines) + "\n"
