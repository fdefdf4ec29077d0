"""Pairwise and progressive multi-trace alignment.

Pairwise alignment is a full global dynamic program (no heuristics).
Multi-trace alignment is progressive: a guide tree built from pairwise
distances fixes the merge order, and profiles (intermediate alignments
summarized as per-column symbol frequencies) are merged bottom-up.
Gaps introduced by a merge are never removed later, which keeps every
row a faithful gap-padded copy of its original trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from . import _kernels
from .core import Alignment, EventLog, Trace

__all__ = [
    "ScoringScheme",
    "DEFAULT_SCHEME",
    "GuideTree",
    "Profile",
    "pairwise_align",
    "distance_matrix",
    "build_guide_tree",
    "align_profiles",
    "progressive_align",
    "consensus_reference",
]


@dataclass(frozen=True)
class ScoringScheme:
    """Column scoring: same type / different type / against a gap."""

    match: float = 1.0
    mismatch: float = -1.0
    gap: float = 0.0

    def __post_init__(self) -> None:
        for name in ("match", "mismatch", "gap"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} score must be finite, got {getattr(self, name)}")
        if not self.match > self.mismatch:
            raise ValueError(
                f"degenerate scheme: match ({self.match}) must exceed mismatch ({self.mismatch})"
            )


DEFAULT_SCHEME = ScoringScheme()


@dataclass(frozen=True)
class GuideTree:
    """Binary merge order; leaves carry trace indices, internal nodes the
    inter-cluster distance at which the merge happened."""

    index: int | None = None
    left: Optional["GuideTree"] = None
    right: Optional["GuideTree"] = None
    distance: float = 0.0

    @classmethod
    def leaf(cls, index: int) -> "GuideTree":
        return cls(index=index)

    @classmethod
    def join(cls, left: "GuideTree", right: "GuideTree", distance: float) -> "GuideTree":
        return cls(index=None, left=left, right=right, distance=distance)

    @property
    def is_leaf(self) -> bool:
        return self.index is not None

    def leaves(self) -> list[int]:
        """Leaf trace indices in left-to-right order."""
        return [node.index for node in _postorder(self) if node.is_leaf]


def _postorder(tree: GuideTree) -> Iterator[GuideTree]:
    """Every node of ``tree``: left subtree, right subtree, then the node.

    Iterative, so a chain as deep as the log is long (identical traces
    join one at a time) walks without recursion.  The node-right-left
    preorder, reversed, is exactly the post-order.
    """
    order: list[GuideTree] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        if not node.is_leaf:
            stack.append(node.left)
            stack.append(node.right)
    return reversed(order)


class Profile:
    """Partial alignment of a subset of the log's traces.

    ``grid`` rows follow ``members`` order and hold ordinals (-1 for
    gaps) exactly like :class:`Alignment` rows.  The per-column symbol
    frequency vectors used for profile-profile scoring are derived
    lazily from the rows.
    """

    def __init__(self, source: EventLog, members: Sequence[int], grid: np.ndarray) -> None:
        self.source = source
        self.members = tuple(members)
        grid = np.asarray(grid, dtype=np.int64)
        grid.setflags(write=False)
        self.grid = grid

    @classmethod
    def singleton(cls, source: EventLog, trace_index: int) -> "Profile":
        n = len(source.traces[trace_index])
        return cls(source, (trace_index,), np.arange(n, dtype=np.int64).reshape(1, n))

    @property
    def length(self) -> int:
        return self.grid.shape[1]

    @cached_property
    def codes(self) -> np.ndarray:
        """(rows, L) activity codes of the member rows; gaps are -1."""
        padded = self.source.padded_codes
        member_rows = padded[np.asarray(self.members)]
        safe = np.clip(self.grid, 0, None)
        rows = np.arange(len(self.members))[:, None]
        return np.where(self.grid >= 0, member_rows[rows, safe], -1)

    @cached_property
    def frequencies(self) -> np.ndarray:
        """(L, K+1) per-column frequencies; index 0 is the gap symbol."""
        counts = _kernels.column_counts(self.codes, len(self.source.alphabet))
        return counts / len(self.members)


def _two_trace_log(t1: Trace, t2: Trace) -> EventLog:
    if t1.case_id == t2.case_id:
        raise ValueError(f"traces share case id {t1.case_id!r}")
    return EventLog([t1, t2])


def pairwise_align(
    t1: Trace, t2: Trace, scheme: ScoringScheme = DEFAULT_SCHEME
) -> tuple[Alignment, float]:
    """Optimal global alignment of two traces.

    Returns the aligned grid and its score, which is the maximum over
    all global alignments under ``scheme``.  Traceback ties prefer the
    diagonal, then a gap in the second trace, then a gap in the first.
    """
    log = _two_trace_log(t1, t2)
    a, b = log.trace_codes
    h, ptr = _kernels.nw_fill(a, b, scheme.match, scheme.mismatch, scheme.gap)
    row1, row2 = _kernels.traceback(ptr)
    alignment = Alignment(log, np.stack([row1, row2]))
    return alignment, float(h[-1, -1])


def distance_matrix(log: EventLog, scheme: ScoringScheme = DEFAULT_SCHEME) -> np.ndarray:
    """Symmetric normalized alignment-score distances in [0, 1].

    d(i,j) = 1 - score(i,j) / (match * min(|Ti|, |Tj|)), clamped; a pair
    scoring at the match ceiling is at distance 0, a pair scoring <= 0
    lands at 1.
    """
    n = len(log)
    if n < 2:
        raise ValueError(f"need at least 2 traces, got {n}")
    scores = _kernels.nw_scores(
        log.padded_codes, log.lengths, scheme.match, scheme.mismatch, scheme.gap
    )
    best = scheme.match * np.minimum.outer(log.lengths, log.lengths).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(best > 0, 1.0 - scores / best, 1.0)
    d = np.clip(d, 0.0, 1.0)
    np.fill_diagonal(d, 0.0)
    return d


def build_guide_tree(distances: np.ndarray) -> GuideTree:
    """Deterministic average-linkage agglomeration of the distance matrix.

    At each step the two clusters at minimal average inter-cluster
    distance merge; ties are broken by the smallest minimum leaf index
    of the left cluster, then of the right.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 traces, got {n}")
    if not np.array_equal(d, d.T):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.diagonal(d) != 0.0):
        raise ValueError("distance matrix must have a zero diagonal")

    # A merged cluster keeps the slot of its smaller minimum leaf, so every
    # active slot is its own minimum leaf and ``active`` stays sorted: the
    # tie-break is the first minimum of the active upper triangle, row-major.
    trees = [GuideTree.leaf(i) for i in range(n)]
    sizes = [1] * n
    dist = d.copy()
    active = np.arange(n)
    while active.size > 1:
        rows, cols = np.triu_indices(active.size, 1)
        best = int(np.argmin(dist[active[rows], active[cols]]))
        ci, cj = int(active[rows[best]]), int(active[cols[best]])
        trees[ci] = GuideTree.join(trees[ci], trees[cj], float(dist[ci, cj]))
        active = active[active != cj]
        # Average linkage via the Lance-Williams update; slot ci holds the merge.
        others = active[active != ci]
        wi, wj = sizes[ci], sizes[cj]
        merged = (wi * dist[ci, others] + wj * dist[cj, others]) / (wi + wj)
        dist[ci, others] = dist[others, ci] = merged
        sizes[ci] = wi + wj
    return trees[int(active[0])]


_SCORE_BLOCK_CELLS = 1 << 16


def _column_pair_scores(p1: Profile, p2: Profile, scheme: ScoringScheme):
    """Expected pairwise score of every column pair, plus the cost of
    aligning each column against a fresh gap column."""
    f1 = p1.frequencies
    f2 = p2.frequencies
    a = f1[:, 1:]
    b = f2[:, 1:]
    occ1 = a.sum(axis=1)
    occ2 = b.sum(axis=1)
    # match * same + mismatch * (cross - same) + gap * gap_faces, written
    # over ``same`` one block of rows at a time: the same float64
    # operations per cell, but one (L1, L2) buffer, so the peak memory of
    # a merge no longer triples with its size.
    s = a @ b.T
    step = max(1, _SCORE_BLOCK_CELLS // max(1, s.shape[1]))
    for lo in range(0, s.shape[0], step):
        rows = slice(lo, lo + step)
        same = s[rows]
        block = np.outer(occ1[rows], occ2)
        block -= same
        block *= scheme.mismatch
        same *= scheme.match
        block += same
        gap_faces = np.outer(f1[rows, 0], occ2)
        gap_faces += np.outer(occ1[rows], f2[:, 0])
        gap_faces *= scheme.gap
        block += gap_faces
        same[...] = block
    return s, scheme.gap * occ1, scheme.gap * occ2


def align_profiles(p1: Profile, p2: Profile, scheme: ScoringScheme = DEFAULT_SCHEME) -> Profile:
    """Merge two profiles with a global DP over their columns.

    A column pair scores the frequency-weighted sum of symbol-pair
    scores (gap-vs-gap contributes 0); putting a column against a gap
    column costs its occupancy times the gap score.  Existing columns
    are never reordered or dropped, so gaps already present survive the
    merge.
    """
    if p1.source is not p2.source and p1.source.alphabet != p2.source.alphabet:
        raise ValueError("profiles are built over different alphabets")
    overlap = set(p1.members) & set(p2.members)
    if overlap:
        raise ValueError(f"profiles share members {sorted(overlap)}")
    s, ga, gb = _column_pair_scores(p1, p2, scheme)
    ptr = _kernels.profile_fill(s, ga, gb)
    take1, take2 = _kernels.traceback(ptr)

    def spread(grid: np.ndarray, take: np.ndarray) -> np.ndarray:
        safe = np.clip(take, 0, None)
        rows = grid[:, safe]
        return np.where(take[None, :] >= 0, rows, -1)

    merged = np.vstack([spread(p1.grid, take1), spread(p2.grid, take2)])
    return Profile(p1.source, p1.members + p2.members, merged)


def _drop_all_gap_columns(grid: np.ndarray) -> np.ndarray:
    keep = (grid >= 0).any(axis=0)
    return grid[:, keep]


def _profile_to_alignment(profile: Profile) -> Alignment:
    grid = np.full((len(profile.source), profile.length), -1, dtype=np.int64)
    for row, member in enumerate(profile.members):
        grid[member] = profile.grid[row]
    return Alignment(profile.source, grid)


def progressive_align(
    log: EventLog,
    scheme: ScoringScheme = DEFAULT_SCHEME,
    tree: GuideTree | None = None,
) -> Alignment:
    """Align all traces by folding profile merges over the guide tree."""
    if len(log) < 2:
        raise ValueError(f"need at least 2 traces, got {len(log)}")
    if tree is None:
        tree = build_guide_tree(distance_matrix(log, scheme))
    leaves = sorted(tree.leaves())
    if leaves != list(range(len(log))):
        raise ValueError(f"guide tree leaves {leaves} do not cover 0..{len(log) - 1}")

    # In post-order both children's profiles are the top two pending.
    pending: list[Profile] = []
    for node in _postorder(tree):
        if node.is_leaf:
            pending.append(Profile.singleton(log, node.index))
        else:
            right = pending.pop()
            left = pending.pop()
            pending.append(align_profiles(left, right, scheme))
    return _profile_to_alignment(pending.pop())


def _perturbed_distances(d: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Multiplicative noise in [0.9, 1.1] applied symmetrically."""
    n = d.shape[0]
    factors = rng.uniform(0.9, 1.1, size=(n, n))
    upper = np.triu(factors, 1)
    return d * (upper + upper.T)


def consensus_reference(
    log: EventLog,
    scheme: ScoringScheme = DEFAULT_SCHEME,
    k: int = 8,
    seed: int = 0,
) -> Alignment:
    """Best-of-k progressive alignment used as a reference.

    Candidate 0 uses the deterministic guide tree; the others use trees
    built from noise-perturbed distance matrices.  Candidates are ranked
    by reference-free sum-of-pairs score, with ties broken by lower
    alignment complexity and then by earlier candidate index.
    """
    from .metrics import alignment_complexity, ref_free_sps

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    d = distance_matrix(log, scheme)
    rng = np.random.default_rng(seed)
    best: Alignment | None = None
    best_key: tuple[float, float] | None = None
    for i in range(k):
        matrix = d if i == 0 else _perturbed_distances(d, rng)
        candidate = progressive_align(log, scheme, build_guide_tree(matrix))
        sps = ref_free_sps(candidate, scheme)
        complexity = alignment_complexity(candidate).value
        key = (-sps, complexity)
        if best_key is None or key < best_key:
            best_key = key
            best = candidate
    return best
