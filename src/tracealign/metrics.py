"""Alignment quality metrics: accuracy, confidence, and complexity.

Accuracy is measured by sum-of-pairs scores (reference-free and
reference-based), the column score, and pattern misalignment scores
aggregated into a frequency-weighted overall misalignment score.
Confidence is the entropy-based information score, per column and
averaged over the whole alignment.  Complexity is the gap fraction,
bounded below by the padding any alignment needs and above by the
one-occurrence-per-column worst case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, takewhile
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .aligner import DEFAULT_SCHEME, ScoringScheme
from .core import (
    GAP,
    Alignment,
    DegenerateReferenceError,
    EventLog,
    SourceMismatchError,
    SymbolCount,
    ThresholdTooHighError,
    require_valid,
)

__all__ = [
    "Pattern",
    "PatternCensus",
    "ComplexityResult",
    "ConsensusEntry",
    "MetricReport",
    "METRIC_ORDER",
    "ref_free_sps",
    "ref_based_sps",
    "column_score",
    "extract_patterns",
    "misalignment_score",
    "overall_misalignment_score",
    "information_score",
    "overall_information_score",
    "alignment_complexity",
    "consensus_sequence",
    "count_heuristic_errors",
    "most_frequent_pattern",
    "evaluate_alignment",
]


class Pattern(tuple):
    """A contiguous, gap-free activity subsequence of length >= 2."""

    __slots__ = ()

    def __new__(cls, symbols: Sequence[str]) -> "Pattern":
        items = tuple(str(s) for s in symbols)
        if len(items) < 2:
            raise ValueError(f"pattern needs at least 2 activities, got {len(items)}")
        if GAP in items:
            raise ValueError("patterns never contain the gap symbol")
        return super().__new__(cls, items)

    def __repr__(self) -> str:
        return "<" + ", ".join(self) + ">"


class _RankTable(NamedTuple):
    """The distinct windows of one length, numbered by rank.

    ``keys`` are sorted, one per distinct window: the rank of its prefix
    one activity shorter times the alphabet size, plus its last code.
    A window's rank is its index in ``keys``.  ``counts`` holds each
    window's occurrences and ``first`` one flat position where it starts.
    """

    keys: np.ndarray
    counts: np.ndarray
    first: np.ndarray


class PatternCensus:
    """Occurrence counts of every contiguous subsequence within bounds.

    Overlapping occurrences count, and counting is log-wide.  ``tables``
    holds one rank table per window length, from 2 up to the longest
    counted length, and ``codes`` the log's trace codes concatenated
    (a census without tables needs none).  A rank table's sorted keys
    put its windows in lexicographic order, and its first positions let
    a window be read back from ``codes``.  Iteration decodes to
    :class:`Pattern` on demand, by length and then in window order;
    lengths below ``min_len`` only serve :meth:`count`.
    """

    def __init__(
        self,
        alphabet: tuple[str, ...],
        tables: Sequence[_RankTable],
        min_len: int,
        max_len: int,
        codes: np.ndarray | None = None,
    ) -> None:
        self.alphabet = alphabet
        self._tables = tuple(tables)
        self._codes = codes
        self.min_len = min_len
        self.max_len = max_len
        self.f_max = max((int(t.counts.max()) for _, t in self._counted()), default=0)

    def _counted(self) -> Iterator[tuple[int, _RankTable]]:
        """(window length, rank table) for each length in the census bounds."""
        return enumerate(self._tables[self.min_len - 2 :], self.min_len)

    def __len__(self) -> int:
        return sum(t.counts.size for _, t in self._counted())

    def __bool__(self) -> bool:
        return len(self._tables) > self.min_len - 2

    @cached_property
    def _code_of(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.alphabet)}

    def count(self, pattern: Sequence[str]) -> int:
        if not self.min_len <= len(pattern) <= len(self._tables) + 1:
            return 0
        try:
            codes = [self._code_of[s] for s in pattern]
        except KeyError:
            return 0
        # Extend the prefix's rank one activity at a time.
        rank = codes[0]
        for table, code in zip(self._tables, codes[1:]):
            key = rank * len(self.alphabet) + code
            rank = int(np.searchsorted(table.keys, key))
            if rank == table.keys.size or table.keys[rank] != key:
                return 0
        return int(self._tables[len(pattern) - 2].counts[rank])

    def __contains__(self, pattern: Sequence[str]) -> bool:
        return self.count(pattern) > 0

    def _entries(self, threshold: float) -> Iterator[tuple[Pattern, int]]:
        for m, table in self._counted():
            keep = table.counts > threshold
            windows = self._codes[table.first[keep, None] + np.arange(m)]
            for row, n in zip(windows.tolist(), table.counts[keep].tolist()):
                yield Pattern(self.alphabet[c] for c in row), n

    def items(self) -> Iterator[tuple[Pattern, int]]:
        yield from self._entries(0)

    def eligible(self, threshold: float) -> list[tuple[Pattern, int]]:
        """Patterns occurring strictly more often than ``threshold``."""
        return list(self._entries(threshold))

    def length_frequency_table(self, buckets: int = 10) -> dict[tuple[int, int], int]:
        """Pattern counts keyed by (pattern length, frequency bucket).

        The bucket index is floor(buckets * f_p / f_max), with the upper
        edge folded into the last bucket.  Keys come in ascending order.
        """
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        table: dict[tuple[int, int], int] = {}
        for m, rank_table in self._counted():
            # Buckets rise with f_p, so each distinct count is bucketed once.
            values, tally = np.unique(rank_table.counts, return_counts=True)
            for n, k in zip(values.tolist(), tally.tolist()):
                entry = (m, min(int(buckets * n / self.f_max), buckets - 1))
                table[entry] = table.get(entry, 0) + k
        return table


def _rank_tables(
    codes: np.ndarray, lengths: np.ndarray, n_types: int, max_len: int
) -> Iterator[_RankTable]:
    """The rank table of each window length from 2 to ``max_len``.

    ``codes`` are the log's trace codes concatenated and ``lengths`` the
    trace lengths.
    """
    # Activities left in each position's trace, its own included.
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(codes.size)
    starts = np.arange(codes.size)
    ranks = codes
    for m in range(2, max_len + 1):
        # Keep the starts whose trace has m activities left.
        room = left[starts] >= m
        starts = starts[room]
        # Ranks and codes are below the number of positions, so keys stay
        # far inside int64 for any log that fits in memory.
        keys = ranks[room] * n_types + codes[starts + m - 1]
        keys, first, ranks, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        yield _RankTable(keys, counts, starts[first])


def extract_patterns(log: EventLog, min_len: int = 2, max_len: int | None = None) -> PatternCensus:
    """Count every contiguous activity subsequence of bounded length.

    Windows are numbered by extending ranks (Karp, Miller and Rosenberg
    1972): a window of length m is keyed by the rank of its first m - 1
    activities times the alphabet size plus its last code, so each
    length is one ``np.unique`` over int64 keys, in lexicographic order
    because the alphabet is sorted.  Each length keeps only the starts
    whose trace still has m activities left.
    """
    if len(log) == 0:
        raise ValueError("cannot extract patterns from an empty log")
    if min_len < 2:
        raise ValueError(f"min_len must be >= 2, got {min_len}")
    longest = log.max_trace_length
    if max_len is None:
        # One-activity traces leave the default census empty, not invalid.
        max_len = max(longest, min_len)
    if max_len < min_len:
        raise ValueError(f"max_len {max_len} below min_len {min_len}")

    codes = np.concatenate(log.trace_codes)
    tables = list(_rank_tables(codes, log.lengths, len(log.alphabet), min(max_len, longest)))
    return PatternCensus(log.alphabet, tables, min_len, max_len, codes)


def _frequent_census(log: EventLog, tf_ratio: float) -> PatternCensus:
    """The default census, cut after the last length with a pattern
    counted more than ``min(tf_ratio * f_max, f_max - 1)``.

    Those patterns are the most frequent ones and every pattern
    :func:`overall_misalignment_score` finds eligible at ``tf_ratio``.
    Extending a window never raises its count, so the loop stops at the
    first length without one.
    """
    if len(log) == 0:
        raise ValueError("cannot extract patterns from an empty log")
    codes = np.concatenate(log.trace_codes)
    levels = _rank_tables(codes, log.lengths, len(log.alphabet), log.max_trace_length)
    tables = list(islice(levels, 1))
    if not tables:
        raise ValueError("pattern census is empty")
    _check_tf_ratio(tf_ratio)
    f_max = int(tables[0].counts.max())
    cut = min(tf_ratio * f_max, f_max - 1)
    tables.extend(takewhile(lambda table: table.counts.max() > cut, levels))
    return PatternCensus(log.alphabet, tables, 2, len(tables) + 1, codes)


class _InstanceIndex:
    """Patterns of one log with their instances, for batched misalignment scoring.

    ``patterns`` come with their occurrence ``counts``; ``f_max`` is the
    census's highest count.  Slot g holds the t-th instance of pattern
    ``slot_pattern[g]`` in every trace that has more than t, and
    ``starts[g, i]`` is its start ordinal in trace i, -1 where there is
    none.  ``unmatched[p]`` sums |c_i - c_j| over trace pairs for the
    instance counts c of pattern p.  Everything here depends only on the
    log, so one index serves every alignment of it.
    """

    def __init__(self, log: EventLog, entries: Sequence[tuple[Pattern, int]], f_max: int) -> None:
        """Find each (pattern, count) entry's instances in ``log`` by one sliding-window match."""
        self.patterns = [p for p, _ in entries]
        self.counts = [n for _, n in entries]
        self.f_max = f_max
        n, n_patterns = len(log), len(self.patterns)
        padded = log.padded_codes
        c = np.zeros((n_patterns, n), dtype=np.int64)
        self.member = np.zeros((n_patterns, len(log.alphabet) + 1), dtype=np.bool_)
        found = []
        for p, pattern in enumerate(self.patterns):
            # Labels outside the log get a code that, like the -1 padding, never matches.
            codes = [log.code_of.get(s, -2) for s in pattern]
            self.member[p, [code for code in codes if code >= 0]] = True
            span = max(padded.shape[1] - len(pattern) + 1, 0)
            hits = padded[:, :span] == codes[0]
            for u in range(1, len(pattern)):
                hits &= padded[:, u : u + span] == codes[u]
            trace, start = np.nonzero(hits)
            # Slot of each instance: its place among its trace's instances.
            found.append((np.arange(trace.size) - np.searchsorted(trace, trace), trace, start))
            c[p] = np.bincount(trace, minlength=n)
        n_slots = c.max(axis=1, initial=0)
        first_slot = np.cumsum(n_slots) - n_slots
        self.slot_pattern = np.repeat(np.arange(n_patterns), n_slots)
        self.starts = np.full((self.slot_pattern.size, n), -1, dtype=np.int64)
        for p, (slot, trace, start) in enumerate(found):
            self.starts[first_slot[p] + slot, trace] = start
        # Unmatched instances: sum over pairs of |c_i - c_j|, from the sorted counts.
        c.sort(axis=1)
        self.unmatched = (c * (2 * np.arange(n) - n + 1)).sum(axis=1)
        self.pat_len = np.array([len(p) for p in self.patterns], dtype=np.int64)

    @classmethod
    def of_census(cls, census: PatternCensus, log: EventLog, tf_ratio: float) -> "_InstanceIndex":
        """The patterns of ``census`` counted more than ``min(tf_ratio * f_max, f_max - 1)``,
        in census order, found in ``log``.

        They are the most frequent patterns and every pattern
        :func:`overall_misalignment_score` finds eligible at ``tf_ratio``.
        """
        if not census:
            raise ValueError("pattern census is empty")
        _check_tf_ratio(tf_ratio)
        cut = min(tf_ratio * census.f_max, census.f_max - 1)
        return cls(log, census.eligible(cut), census.f_max)

    def scores(self, alignment: Alignment) -> list[float]:
        """:func:`misalignment_score` of every indexed pattern, from one kernel call."""
        require_valid(alignment)
        matched = _kernels.ms_pattern(
            self.starts,
            self.slot_pattern,
            self.pat_len,
            self.member,
            alignment.column_of,
            alignment.codes,
        )
        return (matched + self.unmatched).astype(np.float64).tolist()


def ref_free_sps(alignment: Alignment, scheme: ScoringScheme = DEFAULT_SCHEME) -> float:
    """Sum over columns and row pairs of match/mismatch/gap scores.

    Gap-vs-gap pairs contribute nothing.  Under the default scheme the
    result is integral.
    """
    require_valid(alignment)
    counts = alignment.column_counts
    return _kernels.sps_from_counts(counts, scheme.match, scheme.mismatch, scheme.gap)


def _reference_metrics(
    a: Alignment, ref: Alignment, undefined: tuple[type[Exception], ...] = ()
) -> tuple[float | None, float, int]:
    """``ref_based_sps``, ``column_score`` and ``count_heuristic_errors``
    from one tally of the occurrences by their (column in ``a``, column in
    ``ref``) cell.

    A cell is exact when it holds the whole of its column in both
    alignments: exactly then do its occurrences have the same column
    partners in both.  ``ref_based_sps`` is ``None`` when the reference
    has no aligned pairs and ``DegenerateReferenceError`` is in
    ``undefined``.
    """
    if a.source != ref.source:
        raise SourceMismatchError("alignments do not share a source log")
    require_valid(a)
    require_valid(ref)
    occupied = a.column_of >= 0
    ca = a.column_of[occupied]
    cr = ref.column_of[occupied]
    cells, counts = np.unique(ca * ref.length + cr, return_counts=True)
    sizes = np.bincount(ca, minlength=a.length)
    ref_sizes = np.bincount(cr, minlength=ref.length)
    exact = (counts == sizes[cells // ref.length]) & (counts == ref_sizes[cells % ref.length])
    ref_pairs = int((ref_sizes * (ref_sizes - 1)).sum()) // 2
    if ref_pairs == 0 and not issubclass(DegenerateReferenceError, undefined):
        raise DegenerateReferenceError("reference alignment has no aligned pairs")
    # Two occurrences share a column in both alignments iff they share a cell.
    common = int((counts * (counts - 1)).sum()) // 2
    sps = common / ref_pairs if ref_pairs else None
    return sps, int(exact.sum()) / a.length, int(counts.sum() - counts[exact].sum())


def ref_based_sps(a: Alignment, ref: Alignment) -> float:
    """Fraction of the reference's aligned pairs preserved by ``a``.

    A pair is two occurrences sharing a column; identity is by
    occurrence, so repeated activities of one type stay distinct.
    """
    return _reference_metrics(a, ref)[0]


def column_score(a: Alignment, ref: Alignment) -> float:
    """Fraction of columns whose occurrence set matches a reference column.

    Occurrence sets of distinct columns are disjoint, so each reference
    column can match at most one result column.
    """
    return _reference_metrics(a, ref, (DegenerateReferenceError,))[1]


def misalignment_score(alignment: Alignment, pattern: Sequence[str]) -> float:
    """Summed pairwise misalignment of a pattern's instances.

    For each trace pair, instances are matched in start order; a matched
    pair contributes the column distance between the instance starts,
    plus 1 when either instance faces a gap or an activity outside the
    pattern in the other trace.  Unmatched instances contribute 1 each.
    A pattern absent from every trace scores 0.
    """
    require_valid(alignment)
    pattern = Pattern(pattern)
    return _InstanceIndex(alignment.source, [(pattern, 0)], 0).scores(alignment)[0]


def overall_misalignment_score(
    alignment: Alignment,
    census: PatternCensus,
    tf_ratio: float = 0.40,
) -> float:
    """Frequency-weighted mean misalignment over eligible patterns.

    Patterns with occurrence count strictly above ``tf_ratio * f_max``
    are eligible; each contributes its misalignment score weighted by
    its frequency relative to the most frequent pattern.
    """
    index = _InstanceIndex.of_census(census, alignment.source, tf_ratio)
    chosen = _eligible(index, tf_ratio)
    return _weighted_misalignment(index, chosen, index.scores(alignment))


def _check_tf_ratio(tf_ratio: float) -> None:
    if not 0.0 < tf_ratio <= 1.0:
        raise ValueError(f"tf_ratio must be in (0, 1], got {tf_ratio}")


def _eligible(index: _InstanceIndex, tf_ratio: float) -> list[int]:
    """Positions in ``index`` of the patterns counted more than ``tf_ratio * f_max``."""
    threshold = tf_ratio * index.f_max
    chosen = [p for p, f_p in enumerate(index.counts) if f_p > threshold]
    if not chosen:
        raise ThresholdTooHighError(
            f"no pattern occurs more than {threshold:g} times; lower tf_ratio below {tf_ratio}"
        )
    return chosen


def _weighted_misalignment(
    index: _InstanceIndex, chosen: Sequence[int], scores: Sequence[float | np.ndarray]
) -> float | np.ndarray:
    """The weighting of :func:`overall_misalignment_score` over ``chosen`` patterns.

    ``scores[p]`` is pattern p's misalignment: a float, or an array
    holding one per alignment, which yields one OMS per alignment with
    each element computed by the same float operations.
    """
    total = 0.0
    for p in chosen:
        total += scores[p] * (index.counts[p] / index.f_max)
    return total / len(chosen)


def most_frequent_pattern(census: PatternCensus) -> Pattern:
    """Highest-count pattern; ties go to the shortest, then lexicographic."""
    if not census:
        raise ValueError("pattern census is empty")
    # Lengths come in ascending order and windows in code order, which is
    # label order because the alphabet is sorted.
    return census.eligible(census.f_max - 1)[0][0]


def information_score(histogram: Mapping[str, SymbolCount], n_types: int) -> float:
    """1 - (column entropy / maximum entropy), in [0, 1].

    The gap counts as a symbol, so the entropy ceiling is
    log2(n_types + 1) for a log with n_types activity types.
    """
    if n_types < 1:
        raise ValueError(f"need at least one activity type, got {n_types}")
    entropy = 0.0
    for symbol_count in histogram.values():
        p = symbol_count.frequency
        if p > 0:
            entropy -= p * np.log2(p)
    e_max = np.log2(n_types + 1)
    return float(np.clip(1.0 - entropy / e_max, 0.0, 1.0))


def overall_information_score(alignment: Alignment) -> float:
    """Length-normalized cumulative column entropy, as a score in [0, 1].

    Algebraically the mean of the per-column information scores.
    """
    require_valid(alignment)
    if alignment.n_rows == 0:
        raise ValueError("the information score of an empty log's alignment is undefined")
    entropies = _kernels.entropy_per_column(alignment.column_counts)
    e_max = np.log2(len(alignment.source.alphabet) + 1)
    return float(1.0 - entropies.sum() / (e_max * alignment.length))


class ComplexityResult(NamedTuple):
    value: float
    lower_bound: float
    upper_bound: float


def alignment_complexity(alignment: Alignment) -> ComplexityResult:
    """Gap fraction 1 - M/(N*L) with its structural bounds.

    The lower bound is forced by padding every trace to the longest
    one; the upper bound is reached when each column holds a single
    occurrence.
    """
    require_valid(alignment)
    if alignment.n_rows == 0:
        raise ValueError("the complexity of an empty log's alignment is undefined")
    m = alignment.source.total_activities
    n = alignment.n_rows
    length = alignment.length
    value = 1.0 - m / (n * length)
    lower = 1.0 - m / (n * alignment.l_min)
    upper = 1.0 - 1.0 / n
    # Exact bounds: valid means l_min <= length <= m, and rounded division is monotone.
    return ComplexityResult(value, lower, upper)


class ConsensusEntry(NamedTuple):
    column: int
    label: str
    tied: bool


def consensus_sequence(alignment: Alignment, majority: float = 0.5) -> list[ConsensusEntry]:
    """Per-column strict-majority activities, in column order.

    A column contributes its most frequent non-gap label only when that
    label's frequency over all rows strictly exceeds ``majority``; label
    ties are broken lexicographically and flagged.
    """
    require_valid(alignment)
    if not 0.0 < majority <= 1.0:
        raise ValueError(f"majority must be in (0, 1], got {majority}")
    if alignment.length == 0:
        return []
    alphabet = alignment.source.alphabet
    occupied = alignment.column_counts[:, 1:]
    best = occupied.max(axis=1)
    # argmax takes the lowest tied code, and the alphabet is sorted, so
    # it picks the lexicographically smallest label.
    winner = occupied.argmax(axis=1)
    ties = np.count_nonzero(occupied == best[:, None], axis=1) > 1
    return [
        ConsensusEntry(int(j), alphabet[winner[j]], bool(ties[j]))
        for j in np.nonzero(best / alignment.n_rows > majority)[0]
    ]


def count_heuristic_errors(a: Alignment, ref: Alignment) -> int:
    """Occurrences whose same-column partner set differs from the reference."""
    return _reference_metrics(a, ref, (DegenerateReferenceError,))[2]


METRIC_ORDER = (
    "ref_free_sps",
    "ref_based_sps",
    "column_score",
    "ms_top",
    "oms",
    "ois",
    "complexity",
)


@dataclass
class MetricReport:
    """All metric values for one alignment, reference metrics optional."""

    ref_free_sps: float
    ms_top: float
    oms: float | None
    ois: float
    complexity: ComplexityResult
    consensus: list[ConsensusEntry]
    top_pattern: Pattern
    ref_based_sps: float | None = None
    column_score: float | None = None
    n_e: int | None = None
    tf_ratio: float = 0.40
    majority: float = 0.5
    scheme: ScoringScheme = field(default_factory=ScoringScheme)

    def values(self) -> dict[str, float | None]:
        """Metric values keyed in report order."""
        return {
            "ref_free_sps": self.ref_free_sps,
            "ref_based_sps": self.ref_based_sps,
            "column_score": self.column_score,
            "ms_top": self.ms_top,
            "oms": self.oms,
            "ois": self.ois,
            "complexity": self.complexity.value,
        }


def evaluate_alignment(
    alignment: Alignment,
    reference: Alignment | None = None,
    scheme: ScoringScheme = DEFAULT_SCHEME,
    tf_ratio: float = 0.40,
    majority: float = 0.5,
    census: PatternCensus | None = None,
) -> MetricReport:
    """Compute the full metric suite for one alignment.

    Reference-based metrics are filled only when a reference sharing the
    source log is supplied.  The pattern census defaults to the source
    log's full census, of which only the patterns OMS and ``ms_top`` read
    are counted; a census passed in gives the patterns and counts instead.
    """
    require_valid(alignment)
    if census is None:
        census = _frequent_census(alignment.source, tf_ratio)
    index = _InstanceIndex.of_census(census, alignment.source, tf_ratio)
    return _metric_report(alignment, reference, scheme, tf_ratio, majority, index, undefined=())


def _metric_report(
    alignment: Alignment,
    reference: Alignment | None,
    scheme: ScoringScheme,
    tf_ratio: float,
    majority: float,
    index: _InstanceIndex,
    undefined: tuple[type[Exception], ...],
) -> MetricReport:
    """:func:`evaluate_alignment`'s body, reading the ``undefined`` errors as ``None``.

    ``index`` must cover the patterns OMS reads at ``tf_ratio`` and the
    top pattern.  Only OMS and ``ref_based_sps`` can read as ``None``;
    ``()`` lets every error out.
    """
    scores = index.scores(alignment)
    # The first pattern at f_max in census order is most_frequent_pattern's.
    top = index.counts.index(index.f_max)
    try:
        oms = _weighted_misalignment(index, _eligible(index, tf_ratio), scores)
    except undefined:
        oms = None
    report = MetricReport(
        ref_free_sps=ref_free_sps(alignment, scheme),
        ms_top=scores[top],
        oms=oms,
        ois=overall_information_score(alignment),
        complexity=alignment_complexity(alignment),
        consensus=consensus_sequence(alignment, majority),
        top_pattern=index.patterns[top],
        tf_ratio=tf_ratio,
        majority=majority,
        scheme=scheme,
    )
    if reference is not None:
        report.ref_based_sps, report.column_score, report.n_e = _reference_metrics(
            alignment, reference, undefined
        )
    return report
