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
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

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


class PatternCensus:
    """Occurrence counts of every contiguous subsequence within bounds.

    Overlapping occurrences count, and counting is log-wide.  Each
    pattern length keeps the ``np.unique`` table of its windows: the
    distinct windows as sorted rows of packed codes, and their counts.
    That keeps million-entry censuses cheap; iteration decodes to
    :class:`Pattern` on demand, by length and then in window order.
    """

    def __init__(
        self,
        alphabet: tuple[str, ...],
        tables: Sequence[tuple[np.ndarray, np.ndarray]],
        min_len: int,
        max_len: int,
    ) -> None:
        self.alphabet = alphabet
        self._tables = tuple(tables)
        self.min_len = min_len
        self.max_len = max_len
        self.f_max = max((int(counts.max()) for _, counts in self._tables), default=0)

    def __len__(self) -> int:
        return sum(counts.size for _, counts in self._tables)

    def __bool__(self) -> bool:
        return bool(self._tables)

    def count(self, pattern: Sequence[str]) -> int:
        for windows, counts in self._tables:
            if windows.shape[1] == len(pattern):
                try:
                    codes = [self.alphabet.index(s) for s in pattern]
                except ValueError:
                    return 0
                hit = np.flatnonzero((windows == codes).all(axis=1))
                return int(counts[hit[0]]) if hit.size else 0
        return 0

    def __contains__(self, pattern: Sequence[str]) -> bool:
        return self.count(pattern) > 0

    def _entries(self, threshold: float) -> Iterator[tuple[Pattern, int]]:
        for windows, counts in self._tables:
            keep = counts > threshold
            for row, n in zip(windows[keep].tolist(), counts[keep].tolist()):
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
        for windows, counts in self._tables:
            # Buckets rise with f_p, so each distinct count is bucketed once.
            values, tally = np.unique(counts, return_counts=True)
            for n, k in zip(values.tolist(), tally.tolist()):
                entry = (windows.shape[1], min(int(buckets * n / self.f_max), buckets - 1))
                table[entry] = table.get(entry, 0) + k
        return table


def extract_patterns(log: EventLog, min_len: int = 2, max_len: int | None = None) -> PatternCensus:
    """Count every contiguous activity subsequence of bounded length.

    Sliding windows of each length are stacked across traces and
    deduplicated in one sort per length, so the census stays vectorized
    even for long traces.
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

    dtype = np.uint8 if len(log.alphabet) <= 256 else np.uint16
    tables = []
    for m in range(min_len, min(max_len, longest) + 1):
        chunks = [
            np.lib.stride_tricks.sliding_window_view(codes, m)
            for codes in log.trace_codes
            if codes.size >= m
        ]
        if chunks:
            tables.append(np.unique(np.vstack(chunks).astype(dtype), axis=0, return_counts=True))
    return PatternCensus(log.alphabet, tables, min_len, max_len)


def ref_free_sps(alignment: Alignment, scheme: ScoringScheme = DEFAULT_SCHEME) -> float:
    """Sum over columns and row pairs of match/mismatch/gap scores.

    Gap-vs-gap pairs contribute nothing.  Under the default scheme the
    result is integral.
    """
    require_valid(alignment)
    counts = alignment.column_counts
    return _kernels.sps_from_counts(counts, scheme.match, scheme.mismatch, scheme.gap)


def _cell_table(a: Alignment, ref: Alignment) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occurrences tallied by their (column in ``a``, column in ``ref``) cell.

    Returns ``(counts, exact, ref_sizes)``: ``counts`` holds the
    occurrences of each nonempty cell and ``ref_sizes`` those of each
    reference column.  A cell is ``exact``
    when it holds the whole of its column in both alignments: exactly
    then do its occurrences have the same column partners in both.
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
    return counts, exact, ref_sizes


def ref_based_sps(a: Alignment, ref: Alignment) -> float:
    """Fraction of the reference's aligned pairs preserved by ``a``.

    A pair is two occurrences sharing a column; identity is by
    occurrence, so repeated activities of one type stay distinct.
    """
    counts, _, ref_sizes = _cell_table(a, ref)
    ref_pairs = int((ref_sizes * (ref_sizes - 1)).sum()) // 2
    if ref_pairs == 0:
        raise DegenerateReferenceError("reference alignment has no aligned pairs")
    # Two occurrences share a column in both alignments iff they share a cell.
    common = int((counts * (counts - 1)).sum()) // 2
    return common / ref_pairs


def column_score(a: Alignment, ref: Alignment) -> float:
    """Fraction of columns whose occurrence set matches a reference column.

    Occurrence sets of distinct columns are disjoint, so each reference
    column can match at most one result column.
    """
    _, exact, _ = _cell_table(a, ref)
    return int(exact.sum()) / a.length


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
    log = alignment.source
    code_of = log.code_of
    if any(s not in code_of for s in pattern):
        return 0.0
    pattern_codes = np.array([code_of[s] for s in pattern], dtype=np.int64)

    # Instance starts of every trace from one sliding-window comparison;
    # the -1 padding never matches a pattern code.
    m = pattern_codes.size
    padded = log.padded_codes
    span = padded.shape[1] - m + 1
    if span <= 0:
        return 0.0
    hits = padded[:, :span] == pattern_codes[0]
    for u in range(1, m):
        hits &= padded[:, u : u + span] == pattern_codes[u]
    n_starts = np.count_nonzero(hits, axis=1)
    if n_starts.sum() == 0:
        return 0.0
    rows, starts = np.nonzero(hits)
    slot = np.arange(rows.size) - (np.cumsum(n_starts) - n_starts)[rows]
    starts_padded = np.zeros((len(log), int(n_starts.max())), dtype=np.int64)
    starts_padded[rows, slot] = starts

    in_pattern = np.zeros(len(log.alphabet), dtype=np.bool_)
    in_pattern[pattern_codes] = True
    return float(
        _kernels.ms_pattern(
            starts_padded,
            n_starts,
            alignment.column_of,
            alignment.codes,
            m,
            in_pattern,
        )
    )


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
    if not census:
        raise ValueError("pattern census is empty")
    _check_tf_ratio(tf_ratio)
    return _weighted_misalignment(census, tf_ratio, lambda p: misalignment_score(alignment, p))


def _check_tf_ratio(tf_ratio: float) -> None:
    if not 0.0 < tf_ratio <= 1.0:
        raise ValueError(f"tf_ratio must be in (0, 1], got {tf_ratio}")


def _weighted_misalignment(
    census: PatternCensus,
    tf_ratio: float,
    score: Callable[[Pattern], float | np.ndarray],
) -> float | np.ndarray:
    """The eligibility cut and weighting of :func:`overall_misalignment_score`.

    ``score(pattern)`` gives a pattern's misalignment: a float, or an
    array holding one per alignment, which yields one OMS per alignment
    with each element computed by the same float operations.
    """
    threshold = tf_ratio * census.f_max
    chosen = census.eligible(threshold)
    if not chosen:
        raise ThresholdTooHighError(
            f"no pattern occurs more than {threshold:g} times; lower tf_ratio below {tf_ratio}"
        )
    total = 0.0
    for pattern, f_p in chosen:
        total += score(pattern) * (f_p / census.f_max)
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
    counts, exact, _ = _cell_table(a, ref)
    return int(counts.sum() - counts[exact].sum())


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
    log's full census and can be passed in when evaluating many
    alignments of the same log.
    """
    return _metric_report(alignment, reference, scheme, tf_ratio, majority, census, undefined=())


def _metric_report(
    alignment: Alignment,
    reference: Alignment | None,
    scheme: ScoringScheme,
    tf_ratio: float,
    majority: float,
    census: PatternCensus | None,
    undefined: tuple[type[Exception], ...],
) -> MetricReport:
    """:func:`evaluate_alignment`'s body, reading the ``undefined`` errors as ``None``.

    Only OMS and ``ref_based_sps`` can read as ``None``; ``()`` lets every error out.
    """

    def defined(metric: Callable[..., float], *args: object) -> float | None:
        try:
            return metric(*args)
        except undefined:
            return None

    require_valid(alignment)
    if census is None:
        census = extract_patterns(alignment.source)
    top = most_frequent_pattern(census)
    report = MetricReport(
        ref_free_sps=ref_free_sps(alignment, scheme),
        ms_top=misalignment_score(alignment, top),
        oms=defined(overall_misalignment_score, alignment, census, tf_ratio),
        ois=overall_information_score(alignment),
        complexity=alignment_complexity(alignment),
        consensus=consensus_sequence(alignment, majority),
        top_pattern=top,
        tf_ratio=tf_ratio,
        majority=majority,
        scheme=scheme,
    )
    if reference is not None:
        report.ref_based_sps = defined(ref_based_sps, alignment, reference)
        report.column_score = column_score(alignment, reference)
        report.n_e = count_heuristic_errors(alignment, reference)
    return report
