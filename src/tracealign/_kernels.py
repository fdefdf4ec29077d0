"""Hot numeric kernels, one numpy implementation each.

``profile_fill`` is the one pointer-table DP: global alignment over a
matrix of pair scores and per-position gap costs.  Pairwise alignment
and every profile merge run it, and the merges of one guide-tree level
run it together: merge m is the last axis of a zero-padded (A, B, M)
slab, so one anti-diagonal of every merge is one strided slice.  It
fills the whole slab, keeps a block of whole diagonals in one buffer,
derives the pointer codes of the block at once and returns the slab's
last cell, the score of every merge as large as the slab.  All-pairs
scoring (``nw_scores``) runs its recurrence for constant scores, keeping
only the scores, with the same float64 results, fill order and
tie-breaking; its pairs are the columns of each array, so a block of
pairs sweeps one contiguous slab per diagonal.  Both sweeps let float
overflow run to +-inf, which is exact, without a warning.  Misalignment
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
# many cells of candidates before it writes their pointer codes,
# ``aligner._column_pair_scores`` writes pair scores in blocks of rows of
# that many cells, and ``ms_pattern`` cuts its work under the same
# budget, counted as (N, N) pair tables and as instance rows x pattern
# length x N, but never below one (N, N) table.
_BLOCK_CELLS = 1 << 14


def nw_scores(padded, lengths, match, mismatch, gap):
    """All-pairs best global alignment scores, (N, N) and symmetric.

    Every pair (i < j) runs the recurrence of ``profile_fill`` as
    ``pairwise_align`` sets it up (constant gap costs, boundary
    ``gap * k``), with trace i as the first side, but many pairs share
    one numpy sweep over the anti-diagonals: pairs are sorted by
    (la, lb), cut into blocks under ``_BLOCK_CELLS`` and each block
    keeps three rolling ``(A+1, pairs)`` diagonals with
    ``H_d[i, p] = h_p[i, d - i]``.  A cell adds the constant gap once,
    to the larger of its UP and LEFT predecessors: rounding is monotone,
    so that is the larger of the two sums ``profile_fill`` takes, and
    scores equal ``pairwise_align``'s bit for bit.  Cells past a pair's
    own (la, lb) read -1 padding, but they never feed that pair's cells,
    which only look up and left.
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
    with np.errstate(over="ignore"):
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
                # Both gap candidates add the same constant, and rounding is
                # monotone, so adding it after the maximum gives the same float.
                gapped = np.maximum(prev1[lo - 1 : hi], prev1[lo : hi + 1])
                gapped += gap
                np.maximum(diag, gapped, out=cur[lo : hi + 1])
            done = by_total[bounds[d] : bounds[d + 1]]
            scores[done] = cur[la[done], done]
    return scores


# ---------------------------------------------------------------------------
# Global alignment with traceback.  Callers precompute the pair scores
# into s and the gap costs into ga/gb, so one kernel serves pairwise
# alignment and profile merges alike.


def profile_fill(s, ga, gb, col0, row0):
    """Traceback pointers of M global alignment DPs over one slab, one sweep.

    Merge m is the last axis of every array.  ``s[i, j, m]`` scores
    position i of merge m's first side against position j of its second,
    and ``ga[i, m]`` / ``gb[j, m]`` score a position against a gap.
    ``col0`` (A + 1 rows) and ``row0`` (B + 1 rows) are the first column
    and row of each merge's score table; both start with the corner
    h[0, 0].  The caller passes them because the same gap costs summed two
    ways can differ in the last bit: a profile merge passes running sums
    of ``ga`` and ``gb``, ``pairwise_align`` passes ``gap * k``.  Every
    merge fills the whole (A, B) slab, zero-padded past its own sides.  A
    padding cell never feeds a real one, whose candidates only look up and
    left, and zeros keep it finite wherever the real cells are, so it adds
    no float warning.  One merge (``M = 1``) needs no padding, and its
    arrays drop the merge axis inside the sweep.

    The sweep runs over anti-diagonals; one diagonal of every merge is
    one ``(cells, M)`` basic strided slice of ``s``.  Diagonal d keeps
    ``h[i, d - i]`` for its cells i = lo..hi and for the slot on either
    side, which holds ``h[0, d]`` or ``h[d, 0]`` where that lies on the
    first row or column.  A block of whole diagonals, about
    ``_BLOCK_CELLS`` cells, follows in one buffer the two diagonals it
    reads from the block before, so each diagonal takes five array
    operations and memory is linear in the side lengths.  The pointer
    codes of a block come from four whole-block operations and are kept
    diagonal by diagonal, in sweep order: the code of cell (i, j), for
    1 <= i <= A and 1 <= j <= B, is ``ptr[base[i + j] + i]``, and the
    first row and column, where a traceback has one way to go, have none.
    Ties prefer DIAG, then UP, then LEFT.  Float overflow to +-inf is
    exact here and raises no warning.  Returns ``(ptr, base, corner)``:
    ``ptr`` is (rows, M), ``base`` a list of A + B + 1 offsets and
    ``corner[m] = h_m[A, B]``, the best score of every merge whose sides
    are the slab's.
    """
    A, B, M = s.shape

    def by_cell(x):
        """``x`` as (cells, M) rows, or as (cells,) for one merge."""
        return x.reshape(-1, M) if M > 1 else x.reshape(-1)

    # The pair score of (i - 1, j - 1) is row (i - 1) * B + j - 1 of ``s``.
    s_cells, ga, col0, row0 = by_cell(s), by_cell(ga), by_cell(col0), by_cell(row0)
    gb_rev = np.ascontiguousarray(by_cell(gb)[::-1])
    # A diagonal of one cell, all there is when B == 1, takes any step.
    step = max(B - 1, 1)
    diagonals = np.arange(A + B + 1)
    lo, hi = np.maximum(1, diagonals - B), np.minimum(A, diagonals - 1)
    # Diagonal d holds h[lo - 1 .. hi + 1, d - i] in rows seg[d] to
    # seg[d + 1] - 1 of ``ptr``, and, less ``shift``, of the block buffers.
    seg = np.zeros(A + B + 2, dtype=np.int64)
    np.cumsum(hi - lo + 3, out=seg[1:])
    base = (seg[:-1] - lo + 1).tolist()
    # The rows of h[0, d] for d <= B and of h[d, 0] for d <= A.
    top, bottom = seg[: B + 1], seg[1 : A + 2] - 1
    ptr = np.empty((int(seg[-1]), M), dtype=np.uint8)
    ptr_cells = by_cell(ptr)
    # Scores, DIAG and UP candidates: two kept diagonals, then a block.
    # A diagonal has at most min(A, B) + 2 rows, so three always fit, and
    # no buffer outgrows the whole sweep.
    size = min(max(_BLOCK_CELLS // M, 3 * (min(A, B) + 2)), int(seg[-1]))
    h, diag_buf, up_buf = (by_cell(np.zeros((size, M))) for _ in range(3))
    seg_at, lo_at, hi_at = seg.tolist(), lo.tolist(), hi.tolist()
    first = shift = 0  # the block's first diagonal; the ``seg`` row of h[0]
    with np.errstate(over="ignore"):
        while first <= A + B:
            last = int(np.searchsorted(seg, shift + size, side="right")) - 1
            last = min(max(last, first + 1), A + B + 1)
            top_end, bottom_end = min(last, B + 1), min(last, A + 1)
            h[top[first:top_end] - shift] = row0[first:top_end]
            h[bottom[first:bottom_end] - shift] = col0[first:bottom_end]
            for d in range(max(first, 2), last):
                i0, i1 = lo_at[d], hi_at[d]
                if i0 > i1:
                    continue
                n = i1 - i0 + 1
                out = slice(seg_at[d] + 1 - shift, seg_at[d] + 1 - shift + n)
                up_at = base[d - 1] - shift + i0 - 1
                diag_at = base[d - 2] - shift + i0 - 1
                # s[i - 1, d - i - 1] for i = i0..i1, at rows (i - 1) * (B - 1) + d - 2.
                at = (i0 - 1) * (B - 1) + d - 2
                pair = s_cells[at : at + n * step : step]
                diag = np.add(h[diag_at : diag_at + n], pair, out=diag_buf[out])
                up = np.add(h[up_at : up_at + n], ga[i0 - 1 : i1], out=up_buf[out])
                gb_d = gb_rev[B - d + i0 : B - d + i1 + 1]
                best = np.add(h[up_at + 1 : up_at + n + 1], gb_d, out=h[out])
                np.maximum(up, best, out=best)
                np.maximum(diag, best, out=best)
            rows = slice(seg_at[first] - shift, seg_at[last] - shift)
            codes = ptr_cells[seg_at[first] : seg_at[last]]
            _write_codes(codes, diag_buf[rows], up_buf[rows], h[rows])
            # The next block reads the last two diagonals of this one.
            keep = seg_at[max(last - 2, 0)]
            h[: seg_at[last] - keep] = h[keep - shift : seg_at[last] - shift].copy()
            first, shift = last, keep
    # The last block kept diagonal A + B in h; h[A, B] is its row base + A, less shift.
    corner = h.reshape(-1, M)[base[A + B] - shift + A].copy()
    return ptr, base, corner


def _write_codes(out, diag, up, best):
    """Write the pointer codes of a block's candidates into ``out``.

    A cell is DIAG (0) where its DIAG candidate equals the best, else UP
    (1) where its UP candidate does, else LEFT (2), so its code counts
    the tests that fail.  A NaN equals nothing, so a NaN best is LEFT.
    The slots beside each diagonal's cells get a code too, never read.
    """
    not_diag = diag != best
    not_up = up != best
    not_up &= not_diag
    np.add(not_diag, not_up, out=out, dtype=np.uint8)


def traceback(ptr, base, la, lb):
    """Walk one merge's pointer codes from cell (la, lb) back to (0, 0).

    ``ptr`` and ``base`` are as ``profile_fill`` returns them, ``ptr``
    cut to the merge's own column ``ptr[:, m]``.  Returns two index
    arrays of equal length: for each output column the consumed position
    of the first/second side, or -1 where that side takes a gap.  Once
    either side is used up, the other takes the rest.
    """
    codes = memoryview(np.ascontiguousarray(ptr))
    i, j = int(la), int(lb)
    first: list[int] = []
    second: list[int] = []
    while i > 0 and j > 0:
        p = codes[base[i + j] + i]
        if p == DIAG:
            i -= 1
            j -= 1
            first.append(i)
            second.append(j)
        elif p == UP:
            i -= 1
            first.append(i)
            second.append(-1)
        else:
            j -= 1
            first.append(-1)
            second.append(j)
    first += range(i - 1, -1, -1)
    second += [-1] * i
    first += [-1] * j
    second += range(j - 1, -1, -1)
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
