"""Hot numeric kernels, one numpy implementation each.

``profile_fill`` is the one pointer-table DP: global alignment over a
matrix of pair scores and per-position gap costs.  Pairwise alignment
and every profile merge run it.  It sweeps anti-diagonals and derives
the pointer codes of a block of diagonals at a time.  All-pairs scoring
(``nw_scores``) runs its recurrence for constant scores, keeping only
the scores, with the same float64 operations, fill order and
tie-breaking; its pairs are the columns of each array, so a block of
pairs sweeps one contiguous slab per diagonal.  Misalignment
scoring (``ms_pattern``) scores every pattern of an instance index in
one blocked pass per alignment, summing each pattern in int64; it and
the column statistics are whole-array numpy passes.  There is no other
backend.
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
# temporaries stay well under a megabyte.  ``profile_fill`` buffers that
# many cells of candidates before it writes their pointer codes, and
# ``ms_pattern`` cuts its work under the same budget, counted as (N, N)
# pair tables and as instance rows x pattern length x N, but never below
# one (N, N) table.
_BLOCK_CELLS = 1 << 14


def nw_scores(padded, lengths, match, mismatch, gap):
    """All-pairs best global alignment scores, (N, N) and symmetric.

    Every pair (i < j) runs the recurrence of ``profile_fill`` as
    ``pairwise_align`` sets it up (constant gap costs, boundary
    ``gap * k``), with trace i as the first side, but many pairs share
    one numpy sweep over the anti-diagonals: pairs are sorted by
    (la, lb), cut into blocks under ``_BLOCK_CELLS`` and each block
    keeps three rolling ``(A+1, pairs)`` diagonals with
    ``H_d[i, p] = h_p[i, d - i]``.  Each cell does the same float64
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
    """Best scores of the pairs (padded[first[p]], padded[second[p]]), one sweep.

    Pair p is column p of every array: the gathered codes are ``(A, pairs)``
    and the diagonals ``(A+1, pairs)``, so the cells i = lo..hi of one
    diagonal, for the whole block, are one contiguous slab.
    """
    A, B = int(la.max()), int(lb.max())
    a_t = np.ascontiguousarray(padded[first, :A].T)
    b_rev_t = np.ascontiguousarray(padded[second, :B][:, ::-1].T)
    total = la + lb
    by_total = np.argsort(total, kind="stable")
    bounds = np.searchsorted(total[by_total], np.arange(A + B + 2))
    scores = np.empty(la.size, dtype=np.float64)
    prev2, prev1, cur = (np.empty((A + 1, la.size), dtype=np.float64) for _ in range(3))
    for d in range(A + B + 1):
        prev2, prev1, cur = prev1, cur, prev2
        if d <= B:
            cur[0] = gap * d
        if d <= A:
            cur[d] = gap * d
        lo, hi = max(1, d - B), min(A, d - 1)
        if lo <= hi:
            # b_rev_t[B - d + i] is b[d - i - 1], the code facing a_t[i - 1].
            facing = b_rev_t[B - d + lo : B - d + hi + 1]
            sub = np.where(a_t[lo - 1 : hi] == facing, match, mismatch)
            diag = prev2[lo - 1 : hi] + sub
            up = prev1[lo - 1 : hi] + gap
            left = prev1[lo : hi + 1] + gap
            np.maximum(diag, np.maximum(up, left), out=cur[lo : hi + 1])
        done = by_total[bounds[d] : bounds[d + 1]]
        scores[done] = cur[la[done], done]
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
    the side lengths.  Each diagonal's DIAG and UP candidates and its
    best scores go to block buffers of ``_BLOCK_CELLS`` cells (la * lb
    if the table is smaller, one diagonal's cells if that is larger),
    and the pointer codes of a full block come from four whole-block
    array operations.  Ties prefer DIAG, then UP, then LEFT.  Returns
    ``(ptr, score)`` with ``score = h[la, lb]``.
    """
    la, lb = s.shape
    ptr = np.empty((la + 1, lb + 1), dtype=np.uint8)
    ptr[0, :] = LEFT
    ptr[:, 0] = UP
    ptr[0, 0] = DIAG
    flat = ptr.reshape(-1)
    s_flat = s.reshape(-1)
    # A diagonal of one cell, all there is when lb == 1, takes any step.
    step = max(lb - 1, 1)
    gb_rev = gb[::-1]
    prev2, prev1, cur = (np.empty(la + 1, dtype=np.float64) for _ in range(3))
    size = max(min(_BLOCK_CELLS, la * lb), min(la, lb))
    diag_buf, up_buf, best_buf = (np.empty(size, dtype=np.float64) for _ in range(3))
    # (flat offset of the diagonal's first cell, cell count) per buffered diagonal.
    pending: list[tuple[int, int]] = []
    used = 0
    for d in range(la + lb + 1):
        prev2, prev1, cur = prev1, cur, prev2
        if d <= lb:
            cur[0] = row0[d]
        if d <= la:
            cur[d] = col0[d]
        lo, hi = max(1, d - lb), min(la, d - 1)
        if lo > hi:
            continue
        n = hi - lo + 1
        if used + n > size:
            _write_codes(flat, lb, pending, diag_buf[:used], up_buf[:used], best_buf[:used])
            pending.clear()
            used = 0
        cells = slice(used, used + n)
        # s[i - 1, d - i - 1] for i = lo..hi, at flat offsets i * (lb - 1) + d - lb - 1.
        at = lo * (lb - 1) + d - lb - 1
        diag = np.add(prev2[lo - 1 : hi], s_flat[at : at + n * step : step], out=diag_buf[cells])
        up = np.add(prev1[lo - 1 : hi], ga[lo - 1 : hi], out=up_buf[cells])
        left = prev1[lo : hi + 1] + gb_rev[lb - d + lo : lb - d + hi + 1]
        best_buf[cells] = np.maximum(diag, np.maximum(up, left), out=cur[lo : hi + 1])
        # Cell (i, d - i) of the pointer table sits at flat offset i * lb + d.
        pending.append((lo * lb + d, n))
        used += n
    _write_codes(flat, lb, pending, diag_buf[:used], up_buf[:used], best_buf[:used])
    return ptr, float(cur[la])


def _write_codes(flat, lb, pending, diag, up, best):
    """Write the pointer codes of the buffered diagonals into ``flat``.

    A cell is DIAG (0) where its DIAG candidate equals the best, else UP
    (1) where its UP candidate does, else LEFT (2), so its code counts
    the tests that fail.  A NaN equals nothing, so a NaN best is LEFT.
    """
    not_diag = diag != best
    not_up = up != best
    not_up &= not_diag
    codes = np.add(not_diag, not_up, dtype=np.uint8)
    start = 0
    for at, n in pending:
        flat[at : at + n * lb : lb] = codes[start : start + n]
        start += n


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
# Misalignment scoring for many patterns at once.


def ms_pattern(starts, slot_pattern, pat_len, member, col_of, codes_grid):
    """Summed misalignment of the matched instance pairs of every pattern.

    starts:       (G, N) start ordinal of the instance in slot g of each
                  trace, -1 where the trace has no instance in that slot
    slot_pattern: (G,)   pattern of each slot, non-decreasing
    pat_len:      (P,)   pattern lengths
    member:       (P, K+1) membership over the alphabet; the last column
                  is False, so a gap code of -1 reads it
    col_of:       (N, W) ordinal -> column map
    codes_grid:   (N, L) activity codes with -1 gaps

    A slot holds the t-th instance of one pattern in every trace that has
    t + 1 or more, so two traces' instances in one slot are a matched
    pair.  Instance x is bad against row j when one of its columns holds
    a gap or an activity outside its pattern in row j.  A matched pair
    (x, y) adds the column distance of the two starts plus
    bad[x, row y] | bad[y, row x].  Every term is an integer, so each
    pattern's sum over unordered pairs comes out in int64; the count of
    unmatched instances, which depends only on the log, is not included.
    Slots are processed in blocks, and their instance rows in chunks,
    under ``_BLOCK_CELLS`` or one slot's (N, N) pair table, whichever is
    larger.
    """
    n_slots, n = starts.shape
    out = np.zeros(pat_len.size, dtype=np.int64)
    if n_slots == 0:
        return out
    valid = starts >= 0
    slot_len = pat_len[slot_pattern]
    width = int(slot_len.max())
    # Instance columns, a pattern shorter than the widest repeating its
    # last one (repeats leave "every column fits" unchanged).
    offsets = np.minimum(np.arange(width), slot_len[:, None] - 1)
    codes_t = np.ascontiguousarray(codes_grid.T)
    length = codes_t.shape[0]

    # Distances: the sum over pairs of |a - b| is sum_k a_(k) (2k - n + 1)
    # over the n sorted starts; empty slots sort last and weigh 0.
    first = np.where(valid, col_of[np.arange(n), np.maximum(starts, 0)], np.iinfo(np.int64).max)
    first.sort(axis=1)
    n_valid = valid.sum(axis=1)[:, None]
    rank = np.arange(n)
    weight = np.where(rank < n_valid, 2 * rank - n_valid + 1, 0)
    np.add.at(out, slot_pattern, (first * weight).sum(axis=1))

    # A block holds whole slots' (N, N) pair tables, one slot at least, and
    # a chunk of its instance rows gathers as many (row, column, trace) cells.
    cells = max(_BLOCK_CELLS, n * n)
    slots_per_block = cells // (n * n)
    rows_per_chunk = max(1, cells // (width * n))
    for lo in range(0, n_slots, slots_per_block):
        block = slice(lo, lo + slots_per_block)
        live = np.flatnonzero(valid[block])
        bad = np.zeros((valid[block].size, n), dtype=np.bool_)
        for r in range(0, live.size, rows_per_chunk):
            rows = live[r : r + rows_per_chunk]
            g, i = lo + rows // n, rows % n
            cols = col_of[i[:, None], starts[g, i][:, None] + offsets[g]]
            # Look each (pattern, column) pair up once: fits[u, j] says
            # whether row j holds an activity of the pattern in that column.
            keys, which = np.unique(slot_pattern[g][:, None] * length + cols, return_inverse=True)
            fits = member[keys[:, None] // length, codes_t[keys % length]]
            bad[rows] = ~fits[which.reshape(cols.shape)].all(axis=1)
        bad = bad.reshape(-1, n, n)
        both = valid[block, :, None] & valid[block, None, :]
        either = (bad | bad.transpose(0, 2, 1)) & both
        np.add.at(out, slot_pattern[block], either.sum(axis=(1, 2)) // 2)
    return out


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
