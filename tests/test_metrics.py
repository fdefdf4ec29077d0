import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_refused, random_log
from oracles import (
    census_oracle,
    column_score_oracle,
    heuristic_errors_oracle,
    misalignment_oracle,
    ref_based_sps_oracle,
)
from tracealign import (
    Alignment,
    DegenerateReferenceError,
    EventLog,
    InvalidAlignmentError,
    Pattern,
    PatternCensus,
    SourceMismatchError,
    ThresholdTooHighError,
    Trace,
    alignment_complexity,
    column_histogram,
    column_score,
    consensus_sequence,
    count_heuristic_errors,
    evaluate_alignment,
    extract_patterns,
    information_score,
    misalignment_score,
    most_frequent_pattern,
    overall_information_score,
    overall_misalignment_score,
    perturb,
    progressive_align,
    ref_based_sps,
    ref_free_sps,
)
from tracealign import metrics
from tracealign.metrics import _InstanceIndex


def make_log(*rows) -> EventLog:
    return EventLog([Trace(cid, list(labels)) for cid, labels in rows])


def aligned(rows: list[list[str]]) -> Alignment:
    log = make_log(*((f"t{i}", [s for s in row if s != "-"]) for i, row in enumerate(rows)))
    return Alignment.from_label_rows(log, rows)


def realign(reference: Alignment, rows: list[list[str]]) -> Alignment:
    """Another alignment of the same source log, from label rows."""
    return Alignment.from_label_rows(reference.source, rows)


class TestRefFreeSps:
    def test_identical_gapless_rows(self):
        assert ref_free_sps(aligned([["a", "b", "c"], ["a", "b", "c"]])) == 3.0

    def test_mixed_columns(self):
        # (a,a)=+1, (b,c)=-1, (-,c)=0
        assert ref_free_sps(aligned([["a", "b", "-"], ["a", "c", "c"]])) == 0.0

    def test_closed_form_for_identical_rows(self):
        a = aligned([["a", "b"]] * 3)
        assert ref_free_sps(a) == 6.0  # l * k(k-1)/2 = 2 * 3

    def test_invariant_under_row_permutation(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            log = random_log(rng, n_traces=4)
            a = progressive_align(log)
            order = rng.permutation(len(log))
            permuted_log = EventLog([log.traces[i] for i in order])
            permuted = Alignment(permuted_log, a.grid[order])
            assert ref_free_sps(permuted) == ref_free_sps(a)


class TestRefBasedSps:
    def test_identity(self):
        a = aligned([["a", "b"], ["a", "b"]])
        assert ref_based_sps(a, a) == 1.0

    def test_fully_scattered_result_scores_zero(self):
        ref = aligned([["p", "q"], ["p", "q"]])
        scattered = realign(ref, [["p", "q", "-", "-"], ["-", "-", "p", "q"]])
        assert ref_based_sps(scattered, ref) == 0.0

    def test_breaking_two_of_four_pairs(self):
        # Reference: column {p,p,p} (3 pairs) and {q,q} (1 pair).
        ref = aligned([["p", "q"], ["p", "q"], ["p", "-"]])
        moved = realign(ref, [["p", "q", "-"], ["p", "q", "-"], ["-", "-", "p"]])
        assert ref_based_sps(moved, ref) == 0.5

    def test_mismatched_sources_rejected(self):
        a = aligned([["a"], ["a"]])
        b = aligned([["b"], ["b"]])
        with pytest.raises(SourceMismatchError):
            ref_based_sps(a, b)

    def test_degenerate_reference_rejected(self):
        ref = aligned([["a", "-"], ["-", "b"]])
        with pytest.raises(DegenerateReferenceError):
            ref_based_sps(ref, ref)


class TestColumnScore:
    def test_identity(self):
        a = aligned([["a", "b"], ["a", "b"]])
        assert column_score(a, a) == 1.0

    def test_moving_one_occurrence_breaks_both_columns(self):
        ref = aligned(
            [
                ["p", "q", "-", "-"],
                ["p", "q", "r", "s"],
            ]
        )
        moved = realign(
            ref,
            [
                ["p", "-", "q", "-"],
                ["p", "q", "r", "s"],
            ],
        )
        # Row 0's q leaves the shared q column into the r column; those
        # two columns are wrong, the other two still match.
        assert column_score(moved, ref) == 0.5

    def test_insensitive_to_misalignment_count_within_columns(self):
        # One vs. two misaligned activities inside the same two columns
        # produce the same score.
        ref = aligned(
            [
                ["a", "b", "-"],
                ["a", "b", "-"],
                ["a", "b", "-"],
                ["-", "-", "c"],
            ]
        )
        one = realign(
            ref,
            [
                ["a", "b", "-"],
                ["a", "b", "-"],
                ["a", "-", "b"],
                ["-", "-", "c"],
            ],
        )
        two = realign(
            ref,
            [
                ["a", "b", "-"],
                ["a", "-", "b"],
                ["a", "-", "b"],
                ["-", "-", "c"],
            ],
        )
        assert column_score(one, ref) == column_score(two, ref) == pytest.approx(1 / 3)


class TestReferenceMetrics:
    def test_match_set_oracles_exactly(self):
        rng = np.random.default_rng(37)
        pair_free = 0
        for _ in range(60):
            log = random_log(rng, n_traces=int(rng.integers(2, 6)), min_len=1, max_len=6)
            base = progressive_align(log)
            alignments = [base] + [
                perturb(base, moves, int(rng.integers(1 << 30))).alignment for moves in (1, 3, 10)
            ]
            for a, ref in itertools.product(alignments, repeat=2):
                expected = ref_based_sps_oracle(a, ref)
                if expected is None:
                    pair_free += 1
                    with pytest.raises(DegenerateReferenceError):
                        ref_based_sps(a, ref)
                else:
                    sps = ref_based_sps(a, ref)
                    assert type(sps) is float and sps == expected
                score = column_score(a, ref)
                assert type(score) is float and score == column_score_oracle(a, ref)
                n_e = count_heuristic_errors(a, ref)
                assert type(n_e) is int and n_e == heuristic_errors_oracle(a, ref)
        assert pair_free > 0

    @pytest.mark.parametrize("metric", [ref_based_sps, column_score, count_heuristic_errors])
    def test_error_precedence(self, metric):
        pair_free = aligned([["a", "-"], ["-", "b"]])
        broken = Alignment(pair_free.source, [[0, -1, -1], [-1, 0, -1]])
        other = aligned([["a"], ["a"]])
        broken_other = Alignment(other.source, [[0, -1], [0, -1]])
        with pytest.raises(SourceMismatchError):
            metric(broken_other, broken)
        with pytest.raises(InvalidAlignmentError, match="column 2 is all gaps"):
            metric(broken, pair_free)
        with pytest.raises(InvalidAlignmentError, match="column 2 is all gaps"):
            metric(pair_free, broken)


class TestExtractPatterns:
    def test_overlapping_occurrences(self):
        census = extract_patterns(make_log(("t0", "abab")), max_len=2)
        assert census.count(("a", "b")) == 2
        assert census.count(("b", "a")) == 1
        assert census.f_max == 2
        assert len(census) == 2

    def test_repeat_run(self):
        census = extract_patterns(make_log(("t0", "aaa")), min_len=2, max_len=3)
        assert census.count(("a", "a")) == 2
        assert census.count(("a", "a", "a")) == 1
        assert census.f_max == 2

    def test_counts_are_log_wide(self):
        census = extract_patterns(make_log(("t0", "ab"), ("t1", "ab")), max_len=2)
        assert census.count(("a", "b")) == 2

    def test_bounds_validation(self):
        log = make_log(("t0", "abc"))
        with pytest.raises(ValueError):
            extract_patterns(log, min_len=1)
        with pytest.raises(ValueError):
            extract_patterns(log, min_len=3, max_len=2)

    def test_default_bound_on_one_activity_traces_gives_empty_census(self):
        log = make_log(("t0", "a"), ("t1", "b"))
        census = extract_patterns(log)
        assert not census
        assert (census.min_len, census.max_len, census.f_max) == (2, 2, 0)
        assert extract_patterns(log, min_len=4).max_len == 4
        with pytest.raises(ValueError, match="max_len 1 below min_len 2"):
            extract_patterns(log, max_len=1)

    @staticmethod
    def assert_matches_oracle(log, min_len=2, max_len=None):
        census = extract_patterns(log, min_len, max_len)
        expected = census_oracle(log, min_len, max_len)
        # The alphabet is sorted, so window order is label order.
        order = sorted(expected, key=lambda pattern: (len(pattern), pattern))
        f_max = max(expected.values(), default=0)
        assert list(census.items()) == [(p, expected[p]) for p in order]
        assert all(type(n) is int for _, n in census.items())
        assert (len(census), bool(census), census.f_max) == (len(expected), bool(expected), f_max)
        for ratio in (0.2, 0.4, 1.0):
            threshold = ratio * f_max
            assert census.eligible(threshold) == [
                (p, expected[p]) for p in order if expected[p] > threshold
            ]
        for buckets in (1, 3, 10):
            assert census.length_frequency_table(buckets) == dict(
                Counter((len(p), min(int(buckets * n / f_max), buckets - 1))
                        for p, n in expected.items())
            )
        assert all(census.count(p) == n for p, n in expected.items())
        assert census.count(("a", "zz")) == 0 and census.count(order[0] * 9 if order else ()) == 0
        if expected:
            assert most_frequent_pattern(census) == min(
                (p for p in order if expected[p] == f_max), key=lambda p: (len(p), p)
            )

    @pytest.mark.parametrize(
        "buckets, message",
        [
            (0, "buckets must be >= 1, got 0"),
            (2**63, f"buckets must be <= 2**63 - 1, got {2**63}"),
            (10**400, f"buckets must be <= 2**63 - 1, got {10**400}"),
        ],
        ids=["0", "2**63", "10**400"],
    )
    def test_bucket_count_out_of_range_is_refused(self, buckets, message):
        census = extract_patterns(make_log(("t0", "abab"), ("t1", "ab")))
        with pytest.raises(ValueError) as info:
            census.length_frequency_table(buckets)
        assert str(info.value) == message
        # The largest count accepted keeps the float bucketing.
        top = 2**63 - 1
        assert census.length_frequency_table(top) == dict(
            Counter((len(p), min(int(top * n / 3), top - 1)) for p, n in census.items())
        )

    def test_matches_census_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            log = random_log(
                rng,
                n_traces=int(rng.integers(1, 6)),
                min_len=2,
                max_len=10,
                alphabet=("a", "b", "c")[: int(rng.integers(1, 4))],
            )
            for bounds in ((2, None), (3, 5), (4, 4)):
                self.assert_matches_oracle(log, *bounds)

    def test_matches_census_oracle_above_256_types(self):
        # More than 256 types switch the packed codes to uint16.
        rng = np.random.default_rng(24)
        labels = [f"x{i:03d}" for i in range(300)]
        log = EventLog(
            [Trace(f"t{i}", [labels[k] for k in rng.integers(0, 300, size=400)]) for i in range(3)]
            + [Trace("t3", labels[:50] * 2)]
        )
        self.assert_matches_oracle(log, 2, 4)

    def test_matches_census_oracle_above_65536_types(self):
        # Code 65,536 must not wrap onto code 0 and merge two windows.
        labels = [f"x{i:05d}" for i in range(65_537)]
        log = EventLog([Trace("t0", labels + labels[1:2])])
        self.assert_matches_oracle(log, 2, 2)

    def test_count_is_zero_outside_the_census(self):
        log = make_log(("t0", "abcab"), ("t1", "ab"))
        census = extract_patterns(log, min_len=3, max_len=4)
        assert census.count(("a", "b", "c")) == 1
        # Length-2 windows are ranked on the way to length 3, yet not counted;
        # the whole first trace is longer than max_len.
        for outside in (("a", "b"), tuple("abcab"), ("a", "z", "c"), ("a",), ()):
            assert census.count(outside) == 0
            assert outside not in census

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_census_oracle_on_drawn_logs(self, data):
        letters = "abc"[: data.draw(st.integers(1, 3))]
        traces = data.draw(st.lists(st.text(letters, min_size=1, max_size=12), min_size=1, max_size=6))
        min_len = data.draw(st.integers(2, 6))
        max_len = data.draw(st.none() | st.integers(min_len, 13))
        log = EventLog([Trace(f"t{i}", list(t)) for i, t in enumerate(traces)])
        self.assert_matches_oracle(log, min_len, max_len)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from("ab"), min_size=2, max_size=12))
    def test_extension_never_more_frequent(self, symbols):
        log = EventLog([Trace("t0", symbols)])
        census = extract_patterns(log)
        for pattern, count in census.items():
            if len(pattern) == 2:
                continue
            assert count <= census.count(pattern[:-1])
            assert count <= census.count(pattern[1:])


class TestMisalignmentScore:
    def test_co_aligned_pattern_scores_zero(self):
        a = aligned([["x", "y", "q"], ["x", "y", "q"]])
        assert misalignment_score(a, ("x", "y")) == 0.0

    def test_column_distance_between_instance_starts(self):
        # Instances start in columns 3 and 5; every activity of each
        # instance faces a pattern activity in the other trace.
        a = aligned(
            [
                ["q", "q", "q", "x", "y", "y", "x"],
                ["r", "r", "r", "y", "y", "x", "y"],
            ]
        )
        assert misalignment_score(a, ("x", "y")) == 2.0

    def test_facing_outside_activities_adds_one(self):
        # Same 2-column start distance, but the first trace's instance
        # faces non-pattern activities.
        a = aligned(
            [
                ["q", "q", "q", "x", "y", "-", "-"],
                ["r", "r", "r", "r", "r", "x", "y"],
            ]
        )
        assert misalignment_score(a, ("x", "y")) == 3.0

    def test_unmatched_instance_contributes_one(self):
        a = aligned([["x", "y", "x", "y"], ["x", "y", "-", "-"]])
        assert misalignment_score(a, ("x", "y")) == 1.0

    def test_absent_pattern_scores_zero(self):
        a = aligned([["a", "b"], ["a", "b"]])
        assert misalignment_score(a, ("z", "w")) == 0.0

    def test_symmetric_under_trace_swap(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            log = random_log(rng, n_traces=2, min_len=3, max_len=8, alphabet=("a", "b"))
            a = progressive_align(log)
            swapped_log = EventLog([log.traces[1], log.traces[0]])
            swapped = Alignment(swapped_log, a.grid[[1, 0]])
            for pattern in [("a", "b"), ("b", "a"), ("a", "a")]:
                assert misalignment_score(a, pattern) == misalignment_score(swapped, pattern)

    def test_rejects_short_patterns(self):
        a = aligned([["a"], ["a"]])
        with pytest.raises(ValueError):
            misalignment_score(a, ("a",))


small_logs = st.integers(1, 3).flatmap(
    lambda n_types: st.lists(
        st.text("abc"[:n_types], min_size=1, max_size=10), min_size=1, max_size=6
    )
).map(lambda traces: make_log(*((f"t{i}", t) for i, t in enumerate(traces))))
tf_ratios = st.sampled_from([0.05, 0.2, 0.4, 0.7, 1.0])


class TestInstanceIndex:
    @settings(max_examples=150, deadline=None)
    @given(log=small_logs, tf_ratio=tf_ratios)
    def test_holds_the_census_patterns_above_the_cut(self, log, tf_ratio):
        census = extract_patterns(log)
        if not census:
            with pytest.raises(ValueError, match="census is empty"):
                _InstanceIndex.of_log(log, tf_ratio)
            return
        index = _InstanceIndex.of_log(log, tf_ratio)
        cut = min(tf_ratio * census.f_max, census.f_max - 1)
        assert list(zip(index.patterns, index.counts)) == census.eligible(cut)
        assert index.f_max == census.f_max
        # Instances, trace by trace, in start order.
        for p, pattern in enumerate(index.patterns):
            for i, trace in enumerate(log.traces):
                labels = tuple(trace.activities)
                starts = [s for s in range(len(labels)) if labels[s : s + len(pattern)] == pattern]
                assert index.starts[index.slot_pattern == p, i].tolist()[: len(starts)] == starts
                assert (index.starts[index.slot_pattern == p, i][len(starts) :] == -1).all()

    @settings(max_examples=150, deadline=None)
    @given(log=small_logs, tf_ratio=tf_ratios)
    def test_frequent_census_indexes_as_the_full_census(self, log, tf_ratio):
        census = extract_patterns(log)
        if not census:
            return
        index = _InstanceIndex.of_log(log, tf_ratio)
        full = _InstanceIndex.of_census(census, log, tf_ratio)
        assert index.patterns == full.patterns and index.counts == full.counts
        assert index.f_max == full.f_max
        for name in ("slot_pattern", "starts", "unmatched", "pat_len", "member"):
            ours, theirs = getattr(index, name), getattr(full, name)
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name

    def test_window_as_long_as_the_longest_trace(self):
        # Every window of "abcab" occurs in all three traces, so the census
        # runs out of lengths with windows still above the cut.
        log = make_log(("t0", "abcab"), ("t1", "abcab"), ("t2", "abcab"), ("t3", "ca"))
        census = extract_patterns(log)
        index = _InstanceIndex.of_log(log, 0.4)
        assert max(len(p) for p in index.patterns) == log.max_trace_length == 5
        assert list(zip(index.patterns, index.counts)) == census.eligible(0.4 * census.f_max)
        a = perturb(progressive_align(log), 6, seed=3).alignment
        assert index.scores(a) == [misalignment_oracle(a, p) for p in index.patterns]
        assert evaluate_alignment(a) == evaluate_alignment(a, census=census)

    def test_stops_at_the_first_length_without_an_eligible_window(self, monkeypatch):
        # Only (a, b) clears the cut: length 2 is kept and length 3 is read
        # and rejected, so lengths 4 and 5 are never counted.
        rank_tables, drawn = metrics._rank_tables, []

        def counted(*args):
            for table in rank_tables(*args):
                drawn.append(table)
                yield table

        monkeypatch.setattr(metrics, "_rank_tables", counted)
        log = make_log(("t0", "abxab"), ("t1", "abyab"), ("t2", "ab"))
        index = _InstanceIndex.of_log(log, 0.4)
        assert len(drawn) == 2
        assert index.patterns == [Pattern("ab")] and index.counts == [5]
        assert index.unmatched.tolist() == [2]


class TestOverallMisalignmentScore:
    def test_single_eligible_pattern_passes_through(self):
        # (x, y) occurs 3 times, every other pattern once; with
        # tf_ratio 0.4 the threshold is 1.2, so (x, y) alone is eligible
        # and carries weight f_p/f_max = 1.
        log = make_log(("t0", ["x", "y", "x", "y"]), ("t1", ["x", "y"]))
        a = progressive_align(log)
        census = extract_patterns(log)
        assert census.f_max == 3
        oms = overall_misalignment_score(a, census, tf_ratio=0.40)
        assert oms == misalignment_score(a, ("x", "y"))
        # The short trace sits against the second instance: the mapped
        # first instances are 2 columns apart and face gaps (+1), and
        # the second instance is unmatched (+1).
        assert oms == 4.0

    def test_perfectly_aligned_log_scores_zero(self):
        log = make_log(*((f"t{i}", "abcab") for i in range(3)))
        a = progressive_align(log)
        assert overall_misalignment_score(a, extract_patterns(log)) == 0.0

    def test_matches_hand_aggregation(self):
        rng = np.random.default_rng(32)
        log = random_log(rng, n_traces=4, min_len=3, max_len=7, alphabet=("a", "b"))
        a = progressive_align(log)
        census = extract_patterns(log)
        ratio = 0.40
        eligible = [(p, n) for p, n in census.items() if n > ratio * census.f_max]
        expected = sum(
            misalignment_score(a, p) * (n / census.f_max) for p, n in eligible
        ) / len(eligible)
        assert overall_misalignment_score(a, census, ratio) == pytest.approx(expected)

    def test_threshold_too_high(self):
        log = make_log(("t0", "ab"), ("t1", "ab"))
        a = progressive_align(log)
        census = extract_patterns(log)
        with pytest.raises(ThresholdTooHighError, match="lower tf_ratio"):
            overall_misalignment_score(a, census, tf_ratio=1.0)

    def test_empty_census_rejected(self):
        log = make_log(("t0", "ab"), ("t1", "ab"))
        a = progressive_align(log)
        # No trace is long enough for a window of length 3 or 4.
        census = extract_patterns(log, min_len=3, max_len=4)
        assert (len(census), bool(census), census.f_max) == (0, False, 0)
        with pytest.raises(ValueError, match="census is empty"):
            overall_misalignment_score(a, census)


class TestInformationScore:
    def test_single_type_column(self):
        a = aligned([["a"], ["a"], ["a"]])
        assert information_score(column_histogram(a, 0), n_types=3) == 1.0

    def test_uniform_column_hits_zero(self):
        # Two types plus the gap, all at 1/3, with n_types=2.
        a = aligned([["a", "x"], ["b", "x"], ["-", "x"]])
        assert information_score(column_histogram(a, 0), n_types=2) == pytest.approx(0.0)

    def test_half_gap_column(self):
        a = aligned([["a", "x"], ["a", "x"], ["-", "x"], ["-", "x"]])
        assert information_score(column_histogram(a, 0), n_types=3) == pytest.approx(0.5)

    def test_requires_types(self):
        a = aligned([["a"], ["a"]])
        with pytest.raises(ValueError):
            information_score(column_histogram(a, 0), n_types=0)


class TestOverallInformationScore:
    def test_identical_gapless_alignment(self):
        a = aligned([["a", "b", "c"]] * 3)
        assert overall_information_score(a) == 1.0

    def test_compact_beats_split(self):
        compact = aligned(
            [
                ["a", "b", "c"],
                ["a", "b", "c"],
                ["a", "-", "c"],
                ["a", "-", "c"],
            ]
        )
        split = aligned(
            [
                ["a", "b", "-", "c"],
                ["a", "-", "b", "c"],
                ["a", "-", "-", "c"],
                ["a", "-", "-", "c"],
            ]
        )
        ois_compact = overall_information_score(compact)
        ois_split = overall_information_score(split)
        assert ois_compact == pytest.approx(5 / 6, abs=1e-12)
        e_split = 2 * (-0.25 * math.log2(0.25) - 0.75 * math.log2(0.75))
        assert ois_split == pytest.approx(1 - e_split / 8, abs=1e-12)
        assert ois_compact > ois_split

    def test_equals_mean_of_per_column_scores(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            log = random_log(rng, n_traces=4)
            a = progressive_align(log)
            n_types = len(log.alphabet)
            per_column = [
                information_score(column_histogram(a, j), n_types) for j in range(a.length)
            ]
            assert overall_information_score(a) == pytest.approx(np.mean(per_column), abs=1e-12)


@pytest.mark.parametrize(
    "metric, name",
    [(alignment_complexity, "complexity"), (overall_information_score, "information score")],
)
def test_empty_log_alignment_is_refused_after_validation(metric, name):
    empty = EventLog([])
    with pytest.raises(InvalidAlignmentError, match="column 0 is all gaps"):
        metric(Alignment(empty, np.zeros((0, 1))))
    with pytest.raises(ValueError, match=f"^the {name} of an empty log's alignment is undefined$"):
        metric(Alignment(empty, np.zeros((0, 0))))


class TestAlignmentComplexity:
    def test_lower_bound_instance(self):
        a = aligned(
            [
                ["a", "b", "c", "d"],
                ["e", "f", "g", "-"],
                ["h", "i", "-", "-"],
            ]
        )
        result = alignment_complexity(a)
        assert result.value == 0.25
        assert result.lower_bound == 0.25

    def test_upper_bound_instance(self):
        rows = []
        labels = list("abcdefghi")
        lengths = [4, 3, 2]
        start = 0
        for n in lengths:
            row = ["-"] * 9
            for k in range(n):
                row[start + k] = labels[start + k]
            rows.append(row)
            start += n
        result = alignment_complexity(aligned(rows))
        assert result.value == pytest.approx(2 / 3, abs=1e-12)
        assert result.upper_bound == pytest.approx(2 / 3, abs=1e-12)

    def test_single_gapless_trace(self):
        a = aligned([["a", "b", "c"]])
        assert alignment_complexity(a).value == 0.0

    def test_bounds_hold_for_progressive_alignments(self):
        rng = np.random.default_rng(34)
        for k in range(25):
            log = random_log(rng, n_traces=int(rng.integers(2, 7)))
            base = progressive_align(log)
            for a in (base, perturb(base, 3, k).alignment, perturb(base, 30, k).alignment):
                result = alignment_complexity(a)
                assert result.lower_bound <= result.value <= result.upper_bound


class TestConsensusSequence:
    def test_identical_alignment_yields_full_trace(self):
        a = aligned([["a", "b", "c"]] * 4)
        entries = consensus_sequence(a)
        assert [(e.column, e.label) for e in entries] == [(0, "a"), (1, "b"), (2, "c")]

    def test_exact_half_is_not_a_majority(self):
        a = aligned([["a", "x"], ["a", "x"], ["b", "x"], ["b", "x"]])
        entries = consensus_sequence(a, majority=0.5)
        assert [(e.column, e.label) for e in entries] == [(1, "x")]

    def test_half_gap_column_is_excluded(self):
        a = aligned(
            [
                ["a", "b", "c"],
                ["a", "b", "c"],
                ["a", "-", "c"],
                ["a", "-", "c"],
            ]
        )
        entries = consensus_sequence(a, majority=0.5)
        assert [e.label for e in entries] == ["a", "c"]

    def test_tie_flag(self):
        a = aligned([["b", "x"], ["a", "x"], ["-", "x"], ["-", "x"]])
        entries = consensus_sequence(a, majority=0.2)
        assert entries[0].label == "a"
        assert entries[0].tied is True


class TestCountHeuristicErrors:
    def test_identity(self):
        a = aligned([["p", "q"], ["p", "q"]])
        assert count_heuristic_errors(a, a) == 0

    def test_abandoning_a_partner_counts_both(self):
        ref = aligned([["p", "q"], ["p", "q"]])
        moved = realign(ref, [["p", "q", "-"], ["p", "-", "q"]])
        assert count_heuristic_errors(moved, ref) == 2

    def test_lone_occurrence_relocation_counts_nothing(self):
        ref = aligned([["p", "q", "-", "s"], ["p", "-", "x", "s"]])
        swapped = realign(ref, [["p", "-", "q", "s"], ["p", "x", "-", "s"]])
        assert count_heuristic_errors(swapped, ref) == 0

    def test_zero_iff_pair_sets_match(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            log = random_log(rng, n_traces=3, min_len=2, max_len=5)
            a = progressive_align(log)
            assert count_heuristic_errors(a, a) == 0


class TestPatternHelpers:
    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            Pattern(("a",))
        with pytest.raises(ValueError):
            Pattern(("a", "-"))

    def test_most_frequent_breaks_ties_deterministically(self):
        census = extract_patterns(make_log(("t0", "abab"), ("t1", "baba")), max_len=2)
        # (a,b) and (b,a) both occur 3 times; shortest-then-lexicographic.
        assert census.count(("a", "b")) == 3
        assert census.count(("b", "a")) == 3
        assert most_frequent_pattern(census) == ("a", "b")

    @pytest.mark.parametrize(
        "traces, tied",
        [
            # Every pattern of "cabc" occurs twice: lengths 2 to 4 tie.
            (["cabc", "cabc"], 6),
            # (b, c), (c, a) and (b, c, a) twice each, (a, b) once.
            (["bca", "bca", "ab"], 3),
            # Every pattern of "dcba" occurs twice; (b, a) is the
            # lexicographically smallest of the pairs.
            (["dcba", "dcba"], 6),
        ],
    )
    def test_most_frequent_pattern_breaks_ties_like_a_full_scan(self, traces, tied):
        census = extract_patterns(make_log(*((f"t{i}", t) for i, t in enumerate(traces))))
        counts = [n for _, n in census.items()]
        assert counts.count(max(counts)) == tied
        expected = min(census.items(), key=lambda entry: (-entry[1], len(entry[0]), entry[0]))
        assert most_frequent_pattern(census) == expected[0]


class TestEvaluateAlignment:
    def test_reference_fields_only_with_reference(self):
        log = make_log(("t0", "abc"), ("t1", "abc"), ("t2", "ac"))
        a = progressive_align(log)
        report = evaluate_alignment(a)
        assert report.ref_based_sps is None
        assert report.column_score is None
        assert report.n_e is None

        with_ref = evaluate_alignment(a, a)
        assert with_ref.ref_based_sps == 1.0
        assert with_ref.column_score == 1.0
        assert with_ref.n_e == 0

    def test_errors_keep_their_precedence(self):
        """Each step mends the error that wins; the next one in line then shows."""
        log = make_log(("t0", "abc"), ("t1", "abc"))
        valid = Alignment(log, [[0, 1, 2], [0, 1, 2]])
        other = make_log(("u0", "ab"), ("u1", "ab"))
        kwargs = {
            "alignment": Alignment(log, [[0, 1, 2, -1], [0, 1, 2, -1]]),
            "census": PatternCensus(log.alphabet, [], 2, 3),
            "tf_ratio": 1.5,
            "majority": 0.0,
            # On another log, and invalid too.
            "reference": Alignment(other, [[0, 1], [1, 0]]),
        }
        steps = [
            ("alignment", valid, InvalidAlignmentError, "column 3 is all gaps"),
            ("census", extract_patterns(log), ValueError, "pattern census is empty"),
            ("tf_ratio", 1.0, ValueError, r"tf_ratio must be in \(0, 1\], got 1.5"),
            ("tf_ratio", 0.4, ThresholdTooHighError, "no pattern occurs more than 2 times"),
            ("majority", 0.5, ValueError, r"majority must be in \(0, 1\], got 0.0"),
            (
                "reference",
                Alignment(log, [[0, 1, 2, -1, -1], [-1, -1, -1, 0, 1]]),
                SourceMismatchError,
                "do not share a source log",
            ),
            (
                "reference",
                Alignment(log, [[0, 1, 2, -1, -1, -1], [-1, -1, -1, 0, 1, 2]]),
                InvalidAlignmentError,
                "row 1 holds ordinals",
            ),
            ("reference", valid, DegenerateReferenceError, "no aligned pairs"),
        ]
        for name, mended, error, message in steps:
            with pytest.raises(error, match=message):
                evaluate_alignment(**kwargs)
            kwargs[name] = mended
        assert evaluate_alignment(**kwargs).n_e == 0

    @pytest.mark.parametrize("tf_ratio", [0.2, 0.4, 1.0])
    def test_index_of_the_log_equals_a_passed_census(self, tf_ratio):
        rng = np.random.default_rng(41)
        for case in range(12):
            log = random_log(rng, n_traces=int(rng.integers(2, 6)), min_len=2, max_len=9,
                             alphabet=("a", "b", "c"))
            a = perturb(progressive_align(log), int(rng.integers(0, 8)), seed=case).alignment
            reports = []
            for census in (None, extract_patterns(log), extract_patterns(log, 3, 4)):
                try:
                    reports.append(evaluate_alignment(a, a, tf_ratio=tf_ratio, census=census))
                except (ThresholdTooHighError, ValueError) as exc:
                    reports.append(str(exc))
            expected = self.oracle_report(a, extract_patterns(log), tf_ratio)
            assert reports[0] == reports[1] == expected
            assert reports[2] == self.oracle_report(a, extract_patterns(log, 3, 4), tf_ratio)

    @staticmethod
    def oracle_report(a, census, tf_ratio):
        """OMS and ms_top from ``census`` and the per-pair oracle, or the error."""
        if not census:
            return "pattern census is empty"
        chosen = [(p, n) for p, n in census.items() if n > tf_ratio * census.f_max]
        if not chosen:
            threshold = tf_ratio * census.f_max
            return f"no pattern occurs more than {threshold:g} times; lower tf_ratio below {tf_ratio}"
        total = 0.0
        for p, n in chosen:
            total += misalignment_oracle(a, p) * (n / census.f_max)
        # Highest count, then shortest, then first in label order.
        top = min(census.items(), key=lambda entry: (-entry[1], len(entry[0]), entry[0]))[0]
        report = evaluate_alignment(a, a, tf_ratio=tf_ratio, census=census)
        assert report.top_pattern == top == most_frequent_pattern(census)
        assert report.ms_top == misalignment_oracle(a, top)
        assert report.oms == total / len(chosen)
        return report

    @pytest.mark.parametrize("census", [None, "full"])
    def test_one_activity_traces_leave_the_census_empty_first(self, census):
        log = make_log(("t0", "a"), ("t1", "b"))
        a = Alignment(log, [[0, -1], [-1, 0]])
        census = extract_patterns(log) if census else None
        with pytest.raises(ValueError, match="^pattern census is empty$"):
            evaluate_alignment(a, tf_ratio=1.5, majority=0.0, census=census)
        with pytest.raises(ValueError, match="^pattern census is empty$"):
            evaluate_alignment(a, census=census)
        with pytest.raises(ValueError, match="^cannot extract patterns from an empty log$"):
            evaluate_alignment(Alignment(EventLog([]), np.zeros((0, 0))), census=None)

    def test_complexity_bounds_ordering(self):
        log = make_log(("t0", "abc"), ("t1", "abc"), ("t2", "ac"))
        report = evaluate_alignment(progressive_align(log))
        c = report.complexity
        assert c.lower_bound <= c.value <= c.upper_bound


@pytest.mark.parametrize(
    "call",
    [lambda: extract_patterns(EventLog([])), lambda: _InstanceIndex.of_log(EventLog([]), 0.4)],
    ids=["census", "instance-index"],
)
def test_refusals(call):
    assert_refused(call, ValueError, "cannot extract patterns from an empty log")
