import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_refused, random_log
from oracles import label_rows_oracle, validation_oracle
from tracealign import (
    Activity,
    Alignment,
    EventLog,
    InvalidAlignmentError,
    OccurrenceId,
    Trace,
    column_histogram,
    progressive_align,
    strip_gaps,
    validate_alignment,
)


def make_log(*rows: tuple[str, list[str]]) -> EventLog:
    return EventLog([Trace(cid, labels) for cid, labels in rows])


def aligned(rows: list[list[str]]) -> Alignment:
    """Alignment from label rows; source is the gap-stripped log."""
    log = make_log(*((f"t{i}", [s for s in row if s != "-"]) for i, row in enumerate(rows)))
    return Alignment.from_label_rows(log, rows)


class TestActivity:
    def test_is_a_string(self):
        a = Activity("Pupil Assessment")
        assert a == "Pupil Assessment"
        assert isinstance(a, str)

    @pytest.mark.parametrize("bad", ["", "-", "a\tb", "a\nb", "a\rb"])
    def test_rejects_bad_labels(self, bad):
        with pytest.raises(ValueError):
            Activity(bad)


class TestTrace:
    def test_requires_activities(self):
        with pytest.raises(ValueError):
            Trace("t0", [])

    def test_requires_case_id(self):
        with pytest.raises(ValueError):
            Trace("", ["a"])

    def test_order_is_kept(self):
        t = Trace("t0", ["b", "a", "b"])
        assert t.labels == ("b", "a", "b")


class TestEventLog:
    def test_unique_case_ids(self):
        with pytest.raises(ValueError, match="duplicate case id"):
            make_log(("t0", ["a"]), ("t0", ["b"]))

    def test_alphabet_is_sorted_union(self):
        log = make_log(("t0", ["c", "a"]), ("t1", ["b", "a"]))
        assert log.alphabet == ("a", "b", "c")

    def test_counts(self):
        log = make_log(("t0", ["a", "b"]), ("t1", ["a"]))
        assert log.total_activities == 3
        assert log.max_trace_length == 2


class TestAlignmentStructure:
    def test_row_count_must_match_source(self):
        log = make_log(("t0", ["a"]), ("t1", ["a"]))
        with pytest.raises(ValueError, match="rows"):
            Alignment(log, [[0]])

    def test_grid_values_must_be_integers(self):
        log = make_log(("t0", ["a", "b"]), ("t1", ["a", "b"]))
        for grid, bad in [
            ([[0.9, 1.9, -1], [-1, 0.2, 1.5]], "0.9"),
            (np.array([[0.0, 1.0], [0.0, np.nan]]), "nan"),
            (np.array([[0.0, 1.0], [0.0, np.inf]]), "inf"),
            (np.array([[0.0, 1.0], [0.0, 2.0**63]]), "9.223372036854776e+18"),
        ]:
            message = re.escape(f"grid value {bad} is not an int64 integer")
            with pytest.raises(ValueError, match=message):
                Alignment(log, grid)
        # Integral floats are read as the integers they hold.
        integral = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert Alignment(log, integral) == Alignment(log, [[0, 1], [0, 1]])
        assert Alignment(EventLog([]), np.zeros((0, 0))).grid.dtype == np.int64

    def test_grid_is_read_only(self):
        a = aligned([["a", "b"], ["a", "b"]])
        with pytest.raises(ValueError):
            a.grid[0, 0] = -1

    def test_cells(self):
        a = aligned([["a", "-"], ["a", "b"]])
        assert a.cell(0, 0) == OccurrenceId(0, 0)
        assert a.cell(0, 1) is None
        assert a.label_at(0, 1) == "-"
        assert a.label_at(1, 1) == "b"

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_row_labels_match_label_at(self, data):
        traces = data.draw(st.lists(st.text("abc", min_size=1, max_size=5), min_size=1, max_size=4))
        log = make_log(*((f"t{i}", list(t)) for i, t in enumerate(traces)))
        width = data.draw(st.integers(max(map(len, traces)), 8))
        grid = np.full((len(traces), width), -1)
        for row, trace in zip(grid, traces):
            columns = data.draw(st.permutations(range(width)))[: len(trace)]
            row[sorted(columns)] = np.arange(len(trace))
        a = Alignment(log, grid)
        for i in range(a.n_rows):
            labels = a.row_labels(i)
            expected = [a.label_at(i, j) for j in range(a.length)]
            assert labels == expected
            assert [type(x) for x in labels] == [type(x) for x in expected]

    @pytest.mark.parametrize("gap", [-1, -2, -(2**40)])
    def test_row_labels_read_every_negative_value_as_a_gap(self, gap):
        log = make_log(("t0", ["a", "b"]), ("t1", ["b", "x"]))
        a = Alignment(log, [[0, 1, gap], [gap, 0, 1]])
        for i in range(a.n_rows):
            assert a.row_labels(i) == [a.label_at(i, j) for j in range(a.length)]
        assert a.row_labels(1) == ["-", "b", "x"]


class TestFromLabelRows:
    """The grid from label rows, and each error message byte for byte."""

    LOG = make_log(("t0", ["a", "b"]), ("c1", ["b", "a", "b"]))

    def test_ordinals_by_position(self):
        a = Alignment.from_label_rows(self.LOG, [["a", "-", "b", "-"], ["b", "a", "-", "b"]])
        assert a.grid.tolist() == [[0, -1, 1, -1], [0, 1, -1, 2]]

    def test_ragged_rows_are_rejected(self):
        with pytest.raises(ValueError):
            Alignment.from_label_rows(self.LOG, [["a", "b"], ["b", "a", "b"]])

    @pytest.mark.parametrize("rows", [[["a", "b"]], [["a", "b"]] * 3, []])
    def test_wrong_row_count(self, rows):
        with pytest.raises(ValueError) as info:
            Alignment.from_label_rows(self.LOG, rows)
        assert str(info.value) == f"{len(rows)} rows for 2 traces"

    @pytest.mark.parametrize(
        "rows, message",
        [
            # A wrong label, and a later one in the same row.
            (
                [["a", "b", "-"], ["b", "b", "b"]],
                "row 1 column 1: label 'b' does not match trace 'c1'",
            ),
            (
                [["a", "-", "c"], ["b", "a", "b"]],
                "row 0 column 2: label 'c' does not match trace 't0'",
            ),
            # Too many activities: the first extra one is named.
            (
                [["a", "b", "a", "-"], ["b", "a", "b", "-"]],
                "row 0 column 2: label 'a' does not match trace 't0'",
            ),
            (
                [["a", "b", "-", "-"], ["b", "a", "b", "b"]],
                "row 1 column 3: label 'b' does not match trace 'c1'",
            ),
            # The row before wins, even over a shorter row after it.
            (
                [["b", "-", "-"], ["b", "a", "-"]],
                "row 0 column 0: label 'b' does not match trace 't0'",
            ),
            # Too few activities.
            ([["a", "-", "-"], ["b", "a", "b"]], "row 0: 1 activities, trace 't0' has 2"),
            ([["a", "b", "-"], ["-", "-", "-"]], "row 1: 0 activities, trace 'c1' has 3"),
            # A wrong label wins over too few activities.
            (
                [["a", "b", "-"], ["b", "-", "b"]],
                "row 1 column 2: label 'b' does not match trace 'c1'",
            ),
        ],
    )
    def test_label_errors(self, rows, message):
        with pytest.raises(ValueError) as info:
            Alignment.from_label_rows(self.LOG, rows)
        assert str(info.value) == message

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_cell_loop(self, data):
        traces = data.draw(st.lists(st.text("ab", min_size=1, max_size=4), min_size=1, max_size=4))
        log = make_log(*((f"t{i}", list(t)) for i, t in enumerate(traces)))
        width = data.draw(st.integers(0, 6))
        cell = st.sampled_from(["a", "b", "c", "-", "-"])
        rows = [data.draw(st.lists(cell, min_size=width, max_size=width)) for _ in traces]
        try:
            expected = label_rows_oracle(log, rows)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                Alignment.from_label_rows(log, rows)
            assert str(info.value) == str(exc)
        else:
            assert Alignment.from_label_rows(log, rows).grid.tolist() == expected


class TestValidateAlignment:
    def test_identity_grid_is_valid(self):
        a = aligned([["a", "b", "c"], ["a", "b", "c"]])
        assert validate_alignment(a) == []

    def test_all_gap_column_is_flagged(self):
        log = make_log(("t0", ["a", "b"]), ("t1", ["a", "b"]))
        a = Alignment(log, [[0, -1, 1], [0, -1, 1]])
        report = validate_alignment(a)
        assert len(report) == 1
        assert report[0].kind == "all_gap_column"
        assert report[0].column == 1

    def test_swapped_ordinals_flag_the_row(self):
        log = make_log(("t0", ["a", "b", "c"]), ("t1", ["a", "b", "c"]))
        a = Alignment(log, [[0, 2, 1], [0, 1, 2]])
        report = validate_alignment(a)
        assert len(report) == 1
        assert report[0].kind == "row_order"
        assert report[0].row == 0

    def test_missing_ordinal_is_flagged(self):
        log = make_log(("t0", ["a", "b"]), ("t1", ["a", "b"]))
        a = Alignment(log, [[0, 0], [0, 1]])
        report = validate_alignment(a)
        assert any(v.kind == "row_occurrences" and v.row == 0 for v in report)

    def test_too_short_alignment_is_flagged(self):
        log = make_log(("t0", ["a", "b"]), ("t1", ["a"]))
        a = Alignment(log, [[0], [0]])
        kinds = {v.kind for v in validate_alignment(a)}
        assert "length" in kinds
        assert "row_occurrences" in kinds


class TestStripGaps:
    def test_lower_bound_shape(self):
        # 3 traces of lengths 4, 3, 2 aligned into 4 columns: total 9
        # activities, longest trace 4.
        a = aligned(
            [
                ["a", "b", "c", "d"],
                ["e", "f", "g", "-"],
                ["h", "i", "-", "-"],
            ]
        )
        log = strip_gaps(a)
        assert [len(t) for t in log.traces] == [4, 3, 2]
        assert log == a.source

    def test_gapless_square_is_identity(self):
        a = aligned([["a", "b"], ["b", "a"]])
        assert strip_gaps(a) == a.source

    def test_invalid_alignment_raises_with_first_violation(self):
        log = make_log(("t0", ["a", "b"]), ("t1", ["a", "b"]))
        a = Alignment(log, [[0, -1, 1], [0, -1, 1]])
        with pytest.raises(InvalidAlignmentError, match="all gaps"):
            strip_gaps(a)

    def test_roundtrip_over_random_progressive_alignments(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            log = random_log(rng, n_traces=int(rng.integers(2, 6)))
            assert strip_gaps(progressive_align(log)) == log


class TestColumnHistogram:
    def test_single_type(self):
        a = aligned([["a"], ["a"], ["a"], ["a"]])
        hist = column_histogram(a, 0)
        assert hist == {"a": (4, 1.0)}

    def test_half_gaps(self):
        a = aligned([["a", "x"], ["a", "x"], ["-", "x"], ["-", "x"]])
        hist = column_histogram(a, 0)
        assert hist["a"] == (2, 0.5)
        assert hist["-"] == (2, 0.5)

    def test_three_way_split(self):
        a = aligned([["a", "x"], ["b", "x"], ["-", "x"]])
        hist = column_histogram(a, 0)
        assert hist["a"].count == 1
        assert hist["b"].count == 1
        assert hist["-"].count == 1
        for entry in hist.values():
            assert entry.frequency == pytest.approx(1 / 3)

    def test_out_of_range(self):
        a = aligned([["a"], ["a"]])
        with pytest.raises(IndexError):
            column_histogram(a, 1)
        with pytest.raises(IndexError):
            column_histogram(a, -1)

    def test_counts_sum_to_rows_and_frequencies_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            log = random_log(rng, n_traces=int(rng.integers(2, 6)))
            a = progressive_align(log)
            for j in range(a.length):
                hist = column_histogram(a, j)
                assert sum(e.count for e in hist.values()) == a.n_rows
                assert abs(sum(e.frequency for e in hist.values()) - 1.0) < 1e-12


@st.composite
def small_logs(draw):
    alphabet = ["a", "b", "c"]
    n = draw(st.integers(2, 4))
    rows = [
        draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=5)) for _ in range(n)
    ]
    return EventLog([Trace(f"t{i}", row) for i, row in enumerate(rows)])


@settings(max_examples=40, deadline=None)
@given(small_logs())
def test_progressive_alignment_valid_and_invertible(log):
    a = progressive_align(log)
    assert validate_alignment(a) == []
    assert strip_gaps(a) == log


@st.composite
def broken_alignments(draw):
    """A left-aligned grid of a small log with defects drawn on top:
    duplicated, missing, out-of-range and swapped ordinals, all-gap
    columns and dropped columns."""
    log = draw(small_logs())
    width = log.max_trace_length + draw(st.integers(0, 2))
    grid = np.full((len(log), width), -1, dtype=np.int64)
    for i, n in enumerate(log.lengths.tolist()):
        grid[i, :n] = np.arange(n)
    for _ in range(draw(st.integers(0, 4))):
        kinds = ["duplicate", "missing", "out_of_range", "swap", "gap_column", "drop"]
        kind = draw(st.sampled_from(kinds))
        rows, cols = grid.shape
        if cols == 0:
            break
        i = draw(st.integers(0, rows - 1))
        j, k = draw(st.integers(0, cols - 1)), draw(st.integers(0, cols - 1))
        if kind == "duplicate":
            grid[i, j] = grid[i, k]
        elif kind == "missing":
            grid[i, j] = draw(st.sampled_from([-1, -2, -(2**40)]))
        elif kind == "out_of_range":
            n = int(log.lengths[i])
            grid[i, j] = draw(st.sampled_from([n, n + 1, 2**40, 2**63 - 1]))
        elif kind == "swap":
            grid[i, j], grid[i, k] = grid[i, k], grid[i, j]
        elif kind == "gap_column":
            grid = np.insert(grid, j, -1, axis=1)
        else:
            grid = grid[:, : draw(st.integers(0, cols - 1))]
    return Alignment(log, grid)


@settings(max_examples=300, deadline=None)
@given(broken_alignments())
def test_validation_matches_row_by_row_oracle(alignment):
    report = [(v.kind, v.row, v.column, v.message) for v in validate_alignment(alignment)]
    assert report == validation_oracle(alignment)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Trace("a\tb", ["x"]), "case id 'a\\tb' contains tab/newline"),
        (lambda: Trace("a\nb", ["x"]), "case id 'a\\nb' contains tab/newline"),
        (lambda: Trace("a\rb", ["x"]), "case id 'a\\rb' contains tab/newline"),
        (
            lambda: Alignment(EventLog([Trace("t", ["x"])]), [0]),
            "grid must be 2-dimensional, got shape (1,)",
        ),
    ],
    ids=["tab-in-case-id", "newline-in-case-id", "return-in-case-id", "one-dimensional-grid"],
)
def test_refusals(call, message):
    assert_refused(call, ValueError, message)
