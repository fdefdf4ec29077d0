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
from .core import Alignment, EventLog, Trace, _check_count, grid_codes
from .metrics import DEFAULT_SCHEME, ScoringScheme, alignment_complexity, ref_free_sps

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

    @property
    def codes(self) -> np.ndarray:
        """(rows, L) activity codes of the member rows; gaps are -1.

        Not kept: ``frequencies`` reads it once, and a kept copy would
        stay alive, rows x columns, with every profile still to merge.
        """
        return grid_codes(self.source, self.members, self.grid)

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
    # One merge: every array has a last, merge axis of length 1.
    s = np.where(a[:, None, None] == b[None, :, None], scheme.match, scheme.mismatch)
    ga, gb = np.full((a.size, 1), scheme.gap), np.full((b.size, 1), scheme.gap)
    # First column and row at gap * k, as in ``nw_scores``, so both score alike.
    col0 = scheme.gap * np.arange(a.size + 1)[:, None]
    row0 = scheme.gap * np.arange(b.size + 1)[:, None]
    ptr, base, step, corner = _kernels.profile_fill(s, ga, gb, col0, row0)
    row1, row2 = _kernels.traceback(ptr[:, 0], base, step, a.size, b.size)
    return Alignment(log, np.stack([row1, row2])), float(corner[0])


def _variant_ids(log: EventLog) -> np.ndarray:
    """Each trace's variant: distinct activity sequences numbered 0, 1, ...
    in order of first occurrence."""
    ids: dict[tuple[str, ...], int] = {}
    return np.fromiter(
        (ids.setdefault(t.activities, len(ids)) for t in log.traces), dtype=np.int64, count=len(log)
    )


def distance_matrix(log: EventLog, scheme: ScoringScheme = DEFAULT_SCHEME) -> np.ndarray:
    """Symmetric normalized alignment-score distances in [0, 1].

    d(i,j) = 1 - score(i,j) / (match * min(|Ti|, |Tj|)), clamped; a pair
    scoring at the match ceiling is at distance 0, a pair scoring <= 0
    lands at 1.

    Scores are computed once per pair of distinct variants and spread to
    every trace of both.  Two copies of one variant need not be at
    distance 0, as summing ``match`` cell by cell can fall short of the
    ceiling in the last bit, so each repeated variant's first two
    occurrences are scored too and give its self-distance.  Only the
    diagonal is set to 0.  A scheme under which some pair's ceiling is
    not finite raises ValueError before any pair is scored.
    """
    n = len(log)
    if n < 2:
        raise ValueError(f"need at least 2 traces, got {n}")
    # The longest shorter side of a pair of traces, two copies of a variant too.
    events = sorted(log.lengths.tolist())[-2]
    if not math.isfinite(scheme.match * events):
        raise ValueError(
            f"distance ceiling overflows: match score {scheme.match} x {events} events"
            " is not finite"
        )
    ids = _variant_ids(log)
    first = np.unique(ids, return_index=True)[1]
    later = np.delete(np.arange(n), first)
    repeated, second = np.unique(ids[later], return_index=True)
    rows = np.concatenate([first, later[second]])
    scores = _kernels.nw_scores(
        log.padded_codes[rows], log.lengths[rows], scheme.match, scheme.mismatch, scheme.gap
    )
    v = first.size
    scores[repeated, repeated] = scores[repeated, v + np.arange(repeated.size)]
    lengths = log.lengths[first]
    # Past the check, only the ceiling of a lone variant with itself can
    # overflow, and no distance reads it.
    with np.errstate(over="ignore"):
        best = scheme.match * np.minimum.outer(lengths, lengths).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(best > 0, 1.0 - scores[:v, :v] / best, 1.0)
    d = np.clip(d, 0.0, 1.0)[np.ix_(ids, ids)]
    np.fill_diagonal(d, 0.0)
    return d


def build_guide_tree(distances: np.ndarray) -> GuideTree:
    """Deterministic average-linkage agglomeration of the distance matrix.

    At each step the two clusters at minimal average inter-cluster
    distance merge; ties are broken by the smallest minimum leaf index
    of the left cluster, then of the right.  Distances must be finite.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 traces, got {n}")
    if not np.isfinite(d).all():
        raise ValueError("distance matrix must be finite")
    if not np.array_equal(d, d.T):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.diagonal(d) != 0.0):
        raise ValueError("distance matrix must have a zero diagonal")

    # +inf fills the diagonal and every merged-away slot, and a merged
    # cluster keeps the slot of its smaller minimum leaf, so the first
    # minimum of the symmetric array, row-major, is the tie-break pair.
    trees = [GuideTree.leaf(i) for i in range(n)]
    sizes = [1] * n
    dist = d.copy()
    np.fill_diagonal(dist, np.inf)
    for _ in range(n - 1):
        ci, cj = divmod(int(np.argmin(dist)), n)
        if dist[ci, cj] == np.inf:  # every distance left overflowed
            ci, cj = np.flatnonzero(sizes)[:2].tolist()
        trees[ci] = GuideTree.join(trees[ci], trees[cj], float(dist[ci, cj]))
        # Average linkage via the Lance-Williams update; slot ci holds the merge.
        wi, wj = sizes[ci], sizes[cj]
        dist[ci] = dist[:, ci] = (wi * dist[ci] + wj * dist[cj]) / (wi + wj)
        dist[cj] = dist[:, cj] = dist[ci, ci] = np.inf
        sizes[ci], sizes[cj] = wi + wj, 0
    return trees[0]


# The merges of one guide-tree level share a ``profile_fill`` sweep in
# groups whose slab holds at most this many ``_kernels._BLOCK_CELLS``
# (one megabyte of float64).  Larger slabs save few diagonals but raise
# the peak resident memory of ``align``.
_LEVEL_BLOCKS = 8


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
    # operations per cell, but one (L1, L2) matrix and at most three
    # block buffers, so the peak memory of a merge no longer triples with
    # its size.  ``same += block`` adds the same two floats as
    # ``block + same``.
    s = a @ b.T
    step = max(1, _kernels._BLOCK_CELLS // max(1, s.shape[1]))
    shape = (min(step, s.shape[0]), s.shape[1])
    cross = np.empty(shape)
    # The faces are finite and >= 0, so a zero gap makes each term a zero
    # of the gap's sign.  Adding -0.0 leaves every float as it is; adding
    # +0.0 only turns -0.0 into +0.0, and a +0.0 gap takes the line sweep
    # of ``profile_fill``, whose h is never -0.0, so h + s is the same.
    if scheme.gap:
        faces, other = np.empty(shape), np.empty(shape)
    for lo in range(0, s.shape[0], step):
        rows = slice(lo, lo + step)
        same = s[rows]
        k = same.shape[0]
        block = np.multiply(occ1[rows, None], occ2, out=cross[:k])
        block -= same
        block *= scheme.mismatch
        same *= scheme.match
        same += block
        if scheme.gap:
            gap_faces = np.multiply(f1[rows, 0, None], occ2, out=faces[:k])
            gap_faces += np.multiply(occ1[rows, None], f2[:, 0], out=other[:k])
            gap_faces *= scheme.gap
            same += gap_faces
    return s, scheme.gap * occ1, scheme.gap * occ2


def align_profiles(p1: Profile, p2: Profile, scheme: ScoringScheme = DEFAULT_SCHEME) -> Profile:
    """Merge two profiles with a global DP over their columns.

    A column pair scores the frequency-weighted sum of symbol-pair
    scores (gap-vs-gap contributes 0); putting a column against a gap
    column costs its occupancy times the gap score.  Existing columns
    are never reordered or dropped, so gaps already present survive the
    merge.  Both profiles must be of one log, the same object or an
    equal one, because member ordinals index its traces.
    """
    if p1.source is not p2.source and p1.source != p2.source:
        raise ValueError("profiles are built over different logs")
    overlap = set(p1.members) & set(p2.members)
    if overlap:
        raise ValueError(f"profiles share members {sorted(overlap)}")
    return _merge_profiles([(p1, p2)], scheme)[0]


def _merge_profiles(pairs: list, scheme: ScoringScheme) -> list[Profile]:
    """Merge each ``(p1, p2)`` of ``pairs`` as ``align_profiles`` does, all
    in one ``profile_fill`` sweep.

    Merge m is the last axis of the slab (``progressive_align`` takes its
    groups from ``_kernels.runs``): its pair scores, gap costs and first
    column and row (running sums, which can differ from gap * k) fill the
    corner of its own sides, and zeros pad the rest.  A lone merge is the
    slab with M = 1, on its pair scores as they are.  Each side's rows are
    one gather of the traceback's takes from its grid with a gap column
    appended, which a take of -1 reads.  Each pair is set to None once its
    merge is spread, so its profiles can be freed.
    """
    la = np.array([p1.length for p1, _ in pairs], dtype=np.int64)
    lb = np.array([p2.length for _, p2 in pairs], dtype=np.int64)
    A, B, M = int(la.max()), int(lb.max()), len(pairs)
    s = np.zeros((A, B, M)) if M > 1 else None
    ga, gb = np.zeros((A, M)), np.zeros((B, M))
    col0, row0 = np.zeros((A + 1, M)), np.zeros((B + 1, M))
    with np.errstate(over="ignore"):
        for m, (p1, p2) in enumerate(pairs):
            s_m, ga[: la[m], m], gb[: lb[m], m] = _column_pair_scores(p1, p2, scheme)
            if M > 1:
                s[: la[m], : lb[m], m] = s_m
            else:
                s = s_m[:, :, None]
            del s_m
            np.cumsum(ga[: la[m], m], out=col0[1 : la[m] + 1, m])
            np.cumsum(gb[: lb[m], m], out=row0[1 : lb[m] + 1, m])
    ptr, base, step, _ = _kernels.profile_fill(s, ga, gb, col0, row0)
    del s
    merged = []
    for m in range(M):
        p1, p2 = pairs[m]
        pairs[m] = None
        takes = _kernels.traceback(ptr[:, m], base, step, la[m], lb[m])
        gapped = [np.concatenate([p.grid, np.full((len(p.members), 1), -1)], 1) for p in (p1, p2)]
        grid = np.vstack([side[:, take] for side, take in zip(gapped, takes)])
        merged.append(Profile(p1.source, p1.members + p2.members, grid))
    return merged


def _profile_to_alignment(profile: Profile) -> Alignment:
    grid = np.full((len(profile.source), profile.length), -1, dtype=np.int64)
    grid[list(profile.members)] = profile.grid
    return Alignment(profile.source, grid)


def progressive_align(
    log: EventLog,
    scheme: ScoringScheme = DEFAULT_SCHEME,
    tree: GuideTree | None = None,
) -> Alignment:
    """Align all traces by folding profile merges over the guide tree.

    The fold goes by height, a merge's height being one more than its
    taller child's: once the lower heights are done, every merge of the
    next one has both children.  ``_kernels.runs`` cuts each height's
    merges, sorted by their sides, into groups whose zero-padded slab
    holds at most ``_LEVEL_BLOCKS`` times ``_kernels._BLOCK_CELLS``
    cells, and each group is one ``profile_fill`` sweep.  A group of one
    merge runs as ``align_profiles``, on its own pair scores.  Every
    merge is the one a post-order fold makes, so the alignment is too.
    """
    if len(log) < 2:
        raise ValueError(f"need at least 2 traces, got {len(log)}")
    if tree is None:
        tree = build_guide_tree(distance_matrix(log, scheme))
    leaves = sorted(tree.leaves())
    if leaves != list(range(len(log))):
        raise ValueError(f"guide tree leaves {leaves} do not cover 0..{len(log) - 1}")

    # A node's height is one more than its taller child's, so every merge of
    # one height has both children ready once the lower heights are done.
    height: dict[int, int] = {}
    levels: list[list[GuideTree]] = []
    for node in _postorder(tree):
        if node.is_leaf:
            height[id(node)] = 0
            continue
        h = height[id(node)] = 1 + max(height[id(node.left)], height[id(node.right)])
        if h > len(levels):
            levels.append([])
        levels[h - 1].append(node)

    # The profile of every merged node not yet merged again; a leaf's
    # profile is made when its merge comes.
    profiles: dict[int, Profile] = {}

    def take(node: GuideTree) -> Profile:
        return Profile.singleton(log, node.index) if node.is_leaf else profiles.pop(id(node))

    def length(node: GuideTree) -> int:
        return len(log.traces[node.index]) if node.is_leaf else profiles[id(node)].length

    cap = _LEVEL_BLOCKS * _kernels._BLOCK_CELLS
    for level in levels:
        la = np.array([length(n.left) for n in level], dtype=np.int64)
        lb = np.array([length(n.right) for n in level], dtype=np.int64)
        # A group's slab holds merges x longest first side x longest second side cells.
        for run in _kernels.runs(la, lb, lambda k, a, b: k * a * b, cap):
            group = [level[k] for k in run.tolist()]
            pairs = [(take(n.left), take(n.right)) for n in group]
            if len(pairs) == 1:
                merged = [align_profiles(*pairs.pop(), scheme)]
            else:
                merged = _merge_profiles(pairs, scheme)
            for node, profile in zip(group, merged):
                profiles[id(node)] = profile
    return _profile_to_alignment(profiles.pop(id(tree)))


def _perturbed_distances(d: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Multiplicative noise in [0.9, 1.1] applied symmetrically."""
    n = d.shape[0]
    factors = rng.uniform(0.9, 1.1, size=(n, n))
    upper = np.triu(factors, 1)
    return d * (upper + upper.T)


def _shape_key(tree: GuideTree, variants: np.ndarray) -> tuple[int, ...]:
    """``tree`` in post-order, each leaf read as its trace's variant, each join as -1.

    A post-order sequence of binary joins decodes to exactly one tree, so
    two trees get the same key exactly when they have the same shape and
    the same variants in the same leaf positions.
    """
    return tuple(int(variants[node.index]) if node.is_leaf else -1 for node in _postorder(tree))


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


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

    A candidate whose tree has the shape and leaf variants of an earlier
    one is not aligned: its rows are the earlier candidate's, permuted
    among copies of one variant, so its columns, score and complexity are
    the same and it loses the tie.  Every candidate's noise is still
    drawn, so later candidates see the same trees.
    """
    _check_count("k", k, 1)
    _check_seed(seed)
    d = distance_matrix(log, scheme)
    variants = _variant_ids(log)
    seen: set[tuple[int, ...]] = set()
    rng = np.random.default_rng(seed)
    best: Alignment | None = None
    best_key: tuple[float, float] | None = None
    for i in range(k):
        matrix = d if i == 0 else _perturbed_distances(d, rng)
        tree = build_guide_tree(matrix)
        shape = _shape_key(tree, variants)
        if shape in seen:
            continue
        seen.add(shape)
        candidate = progressive_align(log, scheme, tree)
        sps = ref_free_sps(candidate, scheme)
        complexity = alignment_complexity(candidate).value
        key = (-sps, complexity)
        if best_key is None or key < best_key:
            best_key = key
            best = candidate
    return best
