"""Hot numeric kernels, one numpy implementation each.

``profile_fill`` is the one pointer-table DP: global alignment over a
matrix of pair scores and per-position gap costs.  Pairwise alignment
and every profile merge run it.  All-pairs scoring (``nw_scores``) runs
its recurrence for constant scores, keeping only the scores, with the
same float64 operations, fill order and tie-breaking.  Misalignment
scoring (``ms_pattern``) and the column statistics are whole-array
numpy passes.  There is no other backend.
"""

from __future__ import annotations

import numpy as np

# The kernel implementation, named in benchmark environment records.
BACKEND = "numpy"


# Traceback pointer codes. Fill order prefers DIAG (consume one symbol of
# each side), then UP (consume from the first side only), then LEFT.
DIAG, UP, LEFT = 0, 1, 2


# ---------------------------------------------------------------------------
# All-pairs global alignment scores over integer-coded sequences.

# Cell budget of one block of the all-pairs sweep, counted as
# pairs x (A + B + 1) for the block's longest sides A and B.  It bounds
# both the rolling diagonals and the gathered codes, so a block's
# temporaries stay well under a megabyte.  ``ms_pattern`` cuts its rows
# under the same budget, counted as rows x slots x pattern length x N.
_BLOCK_CELLS = 1 << 14


def nw_scores(padded, lengths, match, mismatch, gap):
    """All-pairs best global alignment scores, (N, N) and symmetric.

    Every pair (i < j) runs the recurrence of ``profile_fill`` as
    ``pairwise_align`` sets it up (constant gap costs, boundary
    ``gap * k``), with trace i as the first side, but many pairs share
    one numpy sweep over the anti-diagonals: pairs are sorted by
    (la, lb), cut into blocks under ``_BLOCK_CELLS`` and each block
    keeps three rolling ``(pairs, A+1)`` diagonals with
    ``H_d[:, i] = h[i, d - i]``.  Each cell does the same float64
    operations in the same order, so scores equal ``pairwise_align``'s
    bit for bit.  Cells past a pair's own (la, lb) read -1 padding, but
    they never feed that pair's cells, which only look up and left.
    """
    n = lengths.size
    out = np.zeros((n, n), dtype=np.float64)
    first, second = np.triu_indices(n, 1)
    order = np.lexsort((lengths[second], lengths[first]))
    first, second = first[order], second[order]
    la_all, lb_all = lengths[first], lengths[second]
    start = 0
    while start < first.size:
        window = slice(start, start + _BLOCK_CELLS)
        cost = np.arange(1, la_all[window].size + 1) * (
            la_all[window] + np.maximum.accumulate(lb_all[window]) + 1
        )
        stop = start + max(1, int(np.count_nonzero(cost <= _BLOCK_CELLS)))
        block = slice(start, stop)
        scores = _nw_block(
            padded, first[block], second[block], la_all[block], lb_all[block], match, mismatch, gap
        )
        out[first[block], second[block]] = scores
        out[second[block], first[block]] = scores
        start = stop
    return out


def _nw_block(padded, first, second, la, lb, match, mismatch, gap):
    """Best scores of the pairs (padded[first[p]], padded[second[p]]), one sweep."""
    A, B = int(la.max()), int(lb.max())
    a = padded[first, :A]
    b_rev = padded[second, :B][:, ::-1]
    total = la + lb
    by_total = np.argsort(total, kind="stable")
    bounds = np.searchsorted(total[by_total], np.arange(A + B + 2))
    scores = np.empty(la.size, dtype=np.float64)
    prev2, prev1, cur = (np.empty((la.size, A + 1), dtype=np.float64) for _ in range(3))
    for d in range(A + B + 1):
        prev2, prev1, cur = prev1, cur, prev2
        if d <= B:
            cur[:, 0] = gap * d
        if d <= A:
            cur[:, d] = gap * d
        lo, hi = max(1, d - B), min(A, d - 1)
        if lo <= hi:
            # b_rev[:, B - d + i] is b[:, d - i - 1], the code facing a[:, i - 1].
            facing = b_rev[:, B - d + lo : B - d + hi + 1]
            sub = np.where(a[:, lo - 1 : hi] == facing, match, mismatch)
            diag = prev2[:, lo - 1 : hi] + sub
            up = prev1[:, lo - 1 : hi] + gap
            left = prev1[:, lo : hi + 1] + gap
            np.maximum(diag, np.maximum(up, left), out=cur[:, lo : hi + 1])
        done = by_total[bounds[d] : bounds[d + 1]]
        scores[done] = cur[done, la[done]]
    return scores


# ---------------------------------------------------------------------------
# Global alignment with traceback.  Callers precompute the pair scores
# into s and the gap costs into ga/gb, so one kernel serves pairwise
# alignment and profile merges alike.


def profile_fill(s, ga, gb, col0, row0):
    """Traceback pointers and best score of a global alignment DP.

    ``s[i, j]`` scores position i of the first side against position j
    of the second, and ``ga[i]`` / ``gb[j]`` score a position against a
    gap.  ``col0`` (la + 1 values) and ``row0`` (lb + 1 values) are the
    score table's first column and first row; both start with the
    corner h[0, 0].  The caller passes them because the same gap costs
    summed two ways can differ in the last bit: a profile merge passes
    running sums of ``ga`` and ``gb``, ``pairwise_align`` passes
    ``gap * k``.

    Only the pointer table is kept: the scores live on three rolling
    anti-diagonals with ``H_d[i] = h[i, d - i]``, so memory is linear in
    the side lengths.  Ties prefer DIAG, then UP, then LEFT.  Returns
    ``(ptr, score)`` with ``score = h[la, lb]``.
    """
    la, lb = s.shape
    ptr = np.empty((la + 1, lb + 1), dtype=np.uint8)
    ptr[0, :] = LEFT
    ptr[:, 0] = UP
    ptr[0, 0] = DIAG
    flat = ptr.reshape(-1)
    s_flip = s[:, ::-1]
    gb_rev = gb[::-1]
    prev2, prev1, cur = (np.empty(la + 1, dtype=np.float64) for _ in range(3))
    for d in range(la + lb + 1):
        prev2, prev1, cur = prev1, cur, prev2
        if d <= lb:
            cur[0] = row0[d]
        if d <= la:
            cur[d] = col0[d]
        lo, hi = max(1, d - lb), min(la, d - 1)
        if lo > hi:
            continue
        # The diagonal of s_flip at offset lb - d + 1 starts at row lo - 1
        # and holds s[i - 1, d - i - 1] for i = lo..hi.
        diag = prev2[lo - 1 : hi] + np.diagonal(s_flip, lb - d + 1)
        up = prev1[lo - 1 : hi] + ga[lo - 1 : hi]
        left = prev1[lo : hi + 1] + gb_rev[lb - d + lo : lb - d + hi + 1]
        best = np.maximum(diag, np.maximum(up, left), out=cur[lo : hi + 1])
        # Cell (i, d - i) sits at flat offset i * lb + d.
        flat[lo * lb + d : hi * lb + d + 1 : lb] = np.where(
            diag == best, DIAG, np.where(up == best, UP, LEFT)
        )
    return ptr, float(cur[la])


def traceback(ptr):
    """Walk a pointer table from the bottom-right corner.

    Returns two index arrays of equal length: for each output column the
    consumed position of the first/second side, or -1 where that side
    takes a gap.
    """
    i = ptr.shape[0] - 1
    j = ptr.shape[1] - 1
    first: list[int] = []
    second: list[int] = []
    while i > 0 or j > 0:
        p = ptr[i, j]
        if i > 0 and j > 0 and p == DIAG:
            first.append(i - 1)
            second.append(j - 1)
            i -= 1
            j -= 1
        elif i > 0 and (p == UP or j == 0):
            first.append(i - 1)
            second.append(-1)
            i -= 1
        else:
            first.append(-1)
            second.append(j - 1)
            j -= 1
    first.reverse()
    second.reverse()
    return np.asarray(first, dtype=np.int64), np.asarray(second, dtype=np.int64)


# ---------------------------------------------------------------------------
# Misalignment scoring for one pattern.


def ms_pattern(starts, n_starts, col_of, codes_grid, pat_len, in_pattern):
    """Sum of pairwise misalignment contributions for one pattern.

    starts:     (N, S) instance start ordinals per trace; slots past a
                trace's count hold any in-range ordinal and are ignored
    n_starts:   (N,)   instance counts
    col_of:     (N, W) ordinal -> column map
    codes_grid: (N, L) activity codes with -1 gaps
    in_pattern: (K,)   membership mask over the alphabet

    Instance t of trace i is bad against trace j when one of its columns
    holds a gap or an activity outside the pattern in row j.  A matched
    pair (i, j, t), t < min(c_i, c_j), adds the column distance of the
    two starts plus bad[i, t, j] | bad[j, t, i]; each pair also adds
    |c_i - c_j| for its unmatched instances.  Every term is an integer,
    so the sum runs in int64.  The diagonal adds 0, so the sum over
    i < j is half the sum over all ordered pairs.  Rows are processed in
    blocks under ``_BLOCK_CELLS``.
    """
    n, width = starts.shape
    valid = np.arange(width)[None, :] < n_starts[:, None]
    # (N, S, m) columns of every instance slot; padded slots read
    # arbitrary columns and are masked out below.
    cols = col_of[np.arange(n)[:, None, None], starts[:, :, None] + np.arange(pat_len)]
    # fits[c, j]: column c of row j holds a pattern activity.  Index -1
    # (a gap) reads the appended False.
    fits = np.ascontiguousarray(np.append(in_pattern, False)[codes_grid].T)
    rows = max(1, _BLOCK_CELLS // (width * pat_len * n))
    bad = np.empty((n, width, n), dtype=np.bool_)
    for lo in range(0, n, rows):
        bad[lo : lo + rows] = ~fits[cols[lo : lo + rows]].all(axis=2)

    first = cols[:, :, 0]
    both = valid.T[None, :, :]
    ordered = 0
    for lo in range(0, n, rows):
        block = slice(lo, lo + rows)
        matched = valid[block, :, None] & both
        distance = np.abs(first[block, :, None] - first.T[None, :, :])
        either = bad[block] | bad[:, :, block].transpose(2, 1, 0)
        ordered += int(distance[matched].sum()) + int(np.count_nonzero(either & matched))
    unmatched = int(np.abs(n_starts[:, None] - n_starts[None, :]).sum())
    return float((ordered + unmatched) // 2)


# ---------------------------------------------------------------------------
# Column statistics.


def column_counts(codes_grid: np.ndarray, n_symbols: int) -> np.ndarray:
    """(L, n_symbols+1) per-column symbol counts; column 0 counts gaps."""
    n_rows, length = codes_grid.shape
    if length == 0:
        return np.zeros((0, n_symbols + 1), dtype=np.int64)
    width = n_symbols + 1
    flat = (np.arange(length)[None, :] * width + (codes_grid + 1)).ravel()
    counts = np.bincount(flat, minlength=length * width)
    return counts.reshape(length, width)


def sps_from_counts(counts: np.ndarray, match: float, mismatch: float, gap: float) -> float:
    """Sum-of-pairs score from per-column counts; gap/gap pairs score 0."""
    occupied = counts[:, 1:]
    match_pairs = int((occupied * (occupied - 1) // 2).sum())
    non_gap = occupied.sum(axis=1)
    all_pairs = int((non_gap * (non_gap - 1) // 2).sum())
    gap_pairs = int((counts[:, 0] * non_gap).sum())
    return match * match_pairs + mismatch * (all_pairs - match_pairs) + gap * gap_pairs


def entropy_per_column(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of each column's symbol distribution."""
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        freq = counts / totals
        logs = np.log2(freq, out=np.zeros_like(freq), where=counts > 0)
        terms = np.where(counts > 0, -freq * logs, 0.0)
    return terms.sum(axis=1)
