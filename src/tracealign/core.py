"""Domain model for event logs and trace alignments.

An event log is an ordered collection of traces; a trace is one process
execution as a chronological activity sequence.  An alignment is a
rectangular grid whose rows are the traces of a source log, padded with
gap cells so that related activities share columns.  Gaps never change
the type, count, or order of the original activities, which is the
structural invariant everything else in this package leans on.

Grid cells are stored as integers: ``-1`` for a gap, otherwise the
0-based ordinal of the activity within its own (gap-free) trace.  The
row index together with that ordinal forms an :class:`OccurrenceId`,
the unit of identity used by reference-based metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels

#: Reserved gap symbol used in serialized alignments.
GAP = "-"


class TraceAlignError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidAlignmentError(TraceAlignError):
    """An operation required a structurally valid alignment and got none."""


class SourceMismatchError(TraceAlignError):
    """Two alignments that must share a source log do not."""


class DegenerateReferenceError(TraceAlignError):
    """The reference alignment has no aligned pairs to compare against."""


class ThresholdTooHighError(TraceAlignError):
    """No pattern clears the frequency threshold; lower the ratio."""


class UndefinedCorrelationError(TraceAlignError):
    """Correlation is undefined (zero variance in one of the inputs)."""


class ModelSpecError(TraceAlignError):
    """A generative process model violates its structural constraints."""


class Activity(str):
    """An activity type label.

    Plain string subclass so labels compare, hash and serialize like
    strings.  The literal ``"-"`` is reserved for gaps, and tab/newline
    characters are rejected for file-format safety.
    """

    __slots__ = ()

    def __new__(cls, label: object) -> "Activity":
        text = str(label)
        if not text:
            raise ValueError("activity label must be non-empty")
        if text == GAP:
            raise ValueError(f"activity label {GAP!r} is reserved for gaps")
        if "\t" in text or "\n" in text or "\r" in text:
            raise ValueError(f"activity label {text!r} contains tab/newline")
        return super().__new__(cls, text)


def _check_case_id(case_id: str) -> str:
    if not case_id:
        raise ValueError("case id must be non-empty")
    if "\t" in case_id or "\n" in case_id or "\r" in case_id:
        raise ValueError(f"case id {case_id!r} contains tab/newline")
    return case_id


@dataclass(frozen=True)
class Trace:
    """One process execution: a case id plus its chronological activities."""

    case_id: str
    activities: tuple[Activity, ...]

    def __init__(self, case_id: str, activities: Sequence[object]) -> None:
        object.__setattr__(self, "case_id", _check_case_id(str(case_id)))
        acts = tuple(a if isinstance(a, Activity) else Activity(a) for a in activities)
        if not acts:
            raise ValueError(f"trace {case_id!r} has no activities")
        object.__setattr__(self, "activities", acts)

    def __len__(self) -> int:
        return len(self.activities)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.activities


class OccurrenceId(NamedTuple):
    """Identity of one activity occurrence in the source log."""

    trace_index: int
    ordinal: int


#: A grid cell: ``None`` for a gap, otherwise the occurrence it holds.
Cell = Optional[OccurrenceId]


class EventLog:
    """Ordered collection of traces with unique case ids.

    The alphabet (sorted distinct labels) and the integer encodings
    derived from it are computed lazily; instances are immutable, so the
    cached values can never go stale.
    """

    def __init__(self, traces: Sequence[Trace]) -> None:
        self.traces: tuple[Trace, ...] = tuple(traces)
        seen: set[str] = set()
        for t in self.traces:
            if t.case_id in seen:
                raise ValueError(f"duplicate case id {t.case_id!r}")
            seen.add(t.case_id)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self):
        return iter(self.traces)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return self.traces == other.traces

    def __hash__(self) -> int:
        return hash(self.traces)

    def __repr__(self) -> str:
        return f"EventLog({len(self.traces)} traces, {len(self.alphabet)} activity types)"

    @cached_property
    def alphabet(self) -> tuple[str, ...]:
        """Sorted distinct activity labels over all traces."""
        labels: set[str] = set()
        for t in self.traces:
            labels.update(t.activities)
        return tuple(sorted(labels))

    @cached_property
    def code_of(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.alphabet)}

    @cached_property
    def trace_codes(self) -> tuple[np.ndarray, ...]:
        """Per-trace integer encodings over the log alphabet."""
        code = self.code_of
        out = []
        for t in self.traces:
            arr = np.fromiter((code[a] for a in t.activities), dtype=np.int64, count=len(t))
            arr.setflags(write=False)
            out.append(arr)
        return tuple(out)

    @cached_property
    def lengths(self) -> np.ndarray:
        arr = np.fromiter((len(t) for t in self.traces), dtype=np.int64, count=len(self.traces))
        arr.setflags(write=False)
        return arr

    @cached_property
    def padded_codes(self) -> np.ndarray:
        """(N, max_length) code matrix padded with -1, for batch kernels."""
        n = len(self.traces)
        width = int(self.lengths.max()) if n else 0
        out = np.full((n, width), -1, dtype=np.int64)
        for i, codes in enumerate(self.trace_codes):
            out[i, : codes.size] = codes
        out.setflags(write=False)
        return out

    @property
    def max_trace_length(self) -> int:
        return int(self.lengths.max()) if len(self.traces) else 0

    @property
    def total_activities(self) -> int:
        return int(self.lengths.sum()) if len(self.traces) else 0


class Alignment:
    """Rectangular alignment grid over a source log.

    ``grid[i, j]`` is ``-1`` for a gap, otherwise the ordinal of the
    activity of trace ``i`` placed in column ``j``.  Construction only
    checks shape and that every value is an integer; semantic invariants
    (ordinal order, no all-gap columns, minimum length) are checked by
    :func:`validate_alignment` so that broken grids can be inspected
    rather than merely rejected.
    """

    def __init__(self, source: EventLog, grid: np.ndarray | Sequence[Sequence[int]]) -> None:
        values = np.asarray(grid)
        # NaN, infinities and floats past int64 cast to garbage, which the check below refuses.
        with np.errstate(invalid="ignore"):
            arr = np.array(values, dtype=np.int64)
        if values.dtype.kind == "f" and not np.array_equal(arr, values):
            bad = values[arr != values].flat[0]
            raise ValueError(f"grid value {bad.item()!r} is not an int64 integer")
        if arr.ndim != 2:
            raise ValueError(f"grid must be 2-dimensional, got shape {arr.shape}")
        if arr.shape[0] != len(source):
            raise ValueError(
                f"grid has {arr.shape[0]} rows but the source log has {len(source)} traces"
            )
        arr.setflags(write=False)
        self.source = source
        self.grid = arr

    @property
    def n_rows(self) -> int:
        return self.grid.shape[0]

    @property
    def length(self) -> int:
        """Number of columns (the alignment length)."""
        return self.grid.shape[1]

    @property
    def l_min(self) -> int:
        """Shortest possible alignment length: the longest trace length."""
        return self.source.max_trace_length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alignment):
            return NotImplemented
        return self.source == other.source and np.array_equal(self.grid, other.grid)

    def __repr__(self) -> str:
        return f"Alignment({self.n_rows}x{self.length})"

    def cell(self, i: int, j: int) -> Cell:
        ordinal = int(self.grid[i, j])
        return None if ordinal < 0 else OccurrenceId(i, ordinal)

    def label_at(self, i: int, j: int) -> str:
        ordinal = int(self.grid[i, j])
        if ordinal < 0:
            return GAP
        return self.source.traces[i].activities[ordinal]

    def row_labels(self, i: int) -> list[str]:
        # Every gap reads as -1, which indexes the GAP appended after the activities.
        labels = np.array((*self.source.traces[i].activities, GAP), dtype=object)
        return labels[np.maximum(self.grid[i], -1)].tolist()

    @cached_property
    def codes(self) -> np.ndarray:
        """(R, L) activity-code view of the grid; gaps stay -1."""
        out = grid_codes(self.source, np.arange(self.n_rows), self.grid)
        out.setflags(write=False)
        return out

    @cached_property
    def column_of(self) -> np.ndarray:
        """(R, max_length) map from ordinal to column index, -1 padded."""
        out = np.full((self.n_rows, self.source.max_trace_length), -1, dtype=np.int64)
        rows, cols = np.nonzero(self.grid >= 0)
        out[rows, self.grid[rows, cols]] = cols
        out.setflags(write=False)
        return out

    @cached_property
    def column_counts(self) -> np.ndarray:
        """(L, K+1) per-column symbol counts; column 0 counts gaps."""
        out = _kernels.column_counts(self.codes, len(self.source.alphabet))
        out.setflags(write=False)
        return out

    @cached_property
    def violations(self) -> tuple["Violation", ...]:
        """:func:`validate_alignment`'s report, computed once per alignment."""
        return tuple(validate_alignment(self))

    def column_occurrences(self, j: int) -> list[OccurrenceId]:
        """Occurrences in column ``j``, top to bottom."""
        col = self.grid[:, j]
        return [OccurrenceId(i, int(k)) for i, k in enumerate(col) if k >= 0]

    @classmethod
    def from_label_rows(cls, source: EventLog, rows: Sequence[Sequence[str]]) -> "Alignment":
        """Build from rows of labels/gaps, assigning ordinals by position.

        Every row is checked against its trace: its non-gap labels must
        reproduce the corresponding source trace exactly.
        """
        if len(rows) != len(source):
            raise ValueError(f"{len(rows)} rows for {len(source)} traces")
        grid = []
        for i, (row, trace) in enumerate(zip(rows, source.traces)):
            ordinal = 0
            grid_row = []
            for j, symbol in enumerate(row):
                if symbol == GAP:
                    grid_row.append(-1)
                    continue
                if ordinal >= len(trace) or trace.activities[ordinal] != symbol:
                    raise ValueError(
                        f"row {i} column {j}: label {symbol!r} does not match "
                        f"trace {trace.case_id!r}"
                    )
                grid_row.append(ordinal)
                ordinal += 1
            if ordinal != len(trace):
                raise ValueError(
                    f"row {i}: {ordinal} activities, trace {trace.case_id!r} has {len(trace)}"
                )
            grid.append(grid_row)
        return cls(source, grid)


def grid_codes(source: EventLog, traces: Sequence[int], grid: np.ndarray) -> np.ndarray:
    """Activity codes of ``grid``, whose row r holds trace ``traces[r]``; gaps stay -1."""
    rows = np.asarray(traces)[:, None]
    return np.where(grid >= 0, source.padded_codes[rows, np.clip(grid, 0, None)], -1)


@dataclass(frozen=True)
class Violation:
    """One structural defect found in an alignment grid."""

    kind: str
    row: int | None
    column: int | None
    message: str


ValidationReport = list[Violation]


def validate_alignment(alignment: Alignment) -> ValidationReport:
    """Check every structural invariant; an empty report means valid.

    Violations are data, not errors: callers that need to inspect broken
    grids (perturbation debugging, file ingestion) get coordinates for
    each defect.

    A row is valid when its k-th occupied cell holds ordinal k and it
    has as many occupied cells as its trace has activities; whole-grid
    operations find the rows that are not, and only those are examined
    one by one for their message.
    """
    grid = alignment.grid
    length = grid.shape[1]
    report: ValidationReport = []

    if length < alignment.l_min:
        report.append(
            Violation(
                "length",
                None,
                None,
                f"alignment length {length} is below the minimum {alignment.l_min}",
            )
        )

    if length:
        all_gap = np.nonzero((grid < 0).all(axis=0))[0]
        for j in all_gap:
            report.append(Violation("all_gap_column", None, int(j), f"column {j} is all gaps"))

    occupied = grid >= 0
    counts = occupied.sum(axis=1)
    # Row-major, a row's occupied cells follow those of the rows above it.
    rank = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
    bad = counts != alignment.source.lengths
    bad[np.repeat(np.arange(counts.size), counts)[grid[occupied] != rank]] = True
    for i in np.flatnonzero(bad).tolist():
        expected = int(alignment.source.lengths[i])
        ordinals = grid[i][occupied[i]]
        if sorted(ordinals.tolist()) != list(range(expected)):
            report.append(
                Violation(
                    "row_occurrences",
                    i,
                    None,
                    f"row {i} holds ordinals {ordinals.tolist()}, expected 0..{expected - 1} once each",
                )
            )
        elif not np.all(np.diff(ordinals) > 0):
            report.append(
                Violation("row_order", i, None, f"row {i} lists ordinals out of order")
            )
    return report


def require_valid(alignment: Alignment) -> None:
    """Raise :class:`InvalidAlignmentError` naming the first violation."""
    if alignment.violations:
        raise InvalidAlignmentError(f"invalid alignment: {alignment.violations[0].message}")


def strip_gaps(alignment: Alignment) -> EventLog:
    """Remove all gaps, recovering the original event log."""
    require_valid(alignment)
    traces = []
    for i, trace in enumerate(alignment.source.traces):
        row = alignment.grid[i]
        ordinals = row[row >= 0]
        activities = [trace.activities[int(k)] for k in ordinals]
        traces.append(Trace(trace.case_id, activities))
    return EventLog(traces)


class SymbolCount(NamedTuple):
    count: int
    frequency: float


def column_histogram(alignment: Alignment, j: int) -> dict[str, SymbolCount]:
    """Count symbols in column ``j``; the gap is a first-class symbol."""
    if not 0 <= j < alignment.length:
        raise IndexError(f"column {j} out of range [0, {alignment.length})")
    n_rows = alignment.n_rows
    counts: dict[str, int] = {}
    for i in range(n_rows):
        symbol = alignment.label_at(i, j)
        counts[symbol] = counts.get(symbol, 0) + 1
    return {s: SymbolCount(c, c / n_rows) for s, c in counts.items()}
