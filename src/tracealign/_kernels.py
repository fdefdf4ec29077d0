"""Hot numeric kernels, numpy only.

``profile_fill`` is the one pointer-table DP: global alignment over a
matrix of pair scores and per-position gap costs.  Pairwise alignment
and every profile merge run it, and a group of merges of one guide-tree
level runs it together: merge m is the last axis of a zero-padded
(A, B, M) slab, a lone merge's too (M = 1).  It fills the whole slab,
derives the pointer codes of a block of cells at once, keeps them in
the order of its sweep, read by one rule, and returns the slab's last
cell, the score of every merge as large as the slab.  All-pairs scoring
(``nw_scores``) runs its recurrence for constant scores, keeping only
the scores, with the same float64 results.  Each DP picks its sweep
from its inputs: where a gap step adds exactly +0.0, ``profile_fill``
sweeps line by line, each line a prefix maximum, and ``nw_scores``
counts the longest common subsequence with bit-parallel words for each
pair whose first side is at least as long as its match masks; every
other input sweeps the anti-diagonals, each pair or merge one column
of every array.  ``runs`` is the one cut of both: it sorts items by
their sides and cuts them under a cell budget, pairs into blocks and a
level's merges into groups.  The sweeps let float overflow run to
+-inf, which is exact, without a warning.  Misalignment scoring
(``ms_pattern``) scores every pattern of an instance index in one
blocked pass per alignment, summing each pattern in int64; it and the
column statistics are whole-array numpy passes.  There is no other
backend.
"""

from __future__ import annotations

import math

import numpy as np

# The kernel implementation, named in benchmark environment records.
BACKEND = "numpy"


# Traceback pointer codes. Fill order prefers DIAG (consume one symbol of
# each side), then UP (consume from the first side only), then LEFT.
DIAG, UP, LEFT = 0, 1, 2


# ---------------------------------------------------------------------------
# All-pairs global alignment scores over integer-coded sequences.

# Cell budget of one block of the all-pairs sweep, which ``runs`` cuts
# the pairs under, for the block's longest sides A and B: pairs x
# (A + B + 1) on the anti-diagonals; for the bit-parallel LCS, with W
# the 64-bit words of A (one at least), pairs x (4 W + 2) for the bit
# vectors, their temporaries and the codes of a step, plus the match
# masks, symbols x W for each distinct first side, of which there are at
# most one a pair and one a sequence.  A merge group's slab gets
# ``aligner._LEVEL_BLOCKS`` times as many cells.  It bounds the rolling
# diagonals or bit vectors, the match masks and the gathered codes, so a
# block's temporaries stay well under a megabyte.  Both sweeps of
# ``profile_fill`` buffer that many cells of candidates before they
# write their pointer codes, ``aligner._column_pair_scores`` writes pair
# scores in blocks of rows of that many cells, and ``ms_pattern`` cuts
# its work under the same budget, counted as (N, N) pair tables and as
# instance rows x pattern length x N, but never below one (N, N) table.
_BLOCK_CELLS = 1 << 14


def nw_scores(padded, lengths, match, mismatch, gap):
    """All-pairs best global alignment scores, (N, N) and symmetric.

    Every pair (i < j) gets the score of the recurrence of ``profile_fill``
    as ``pairwise_align`` sets it up (constant gap costs, boundary
    ``gap * k``), with trace i as the first side, bit for bit, but many
    pairs share one numpy sweep: ``runs`` cuts the pairs, sorted by
    (la, lb), into blocks under ``_BLOCK_CELLS``.

    When ``gap`` is +0.0 and ``mismatch`` is finite with
    ``mismatch <= 0 < match``, a pair scores ``sums[LCS]``, its longest
    common subsequence's matches summed one by one.  That is the DP's
    float: a gap adds +0.0, a mismatch never beats two gaps, and rounding
    is monotone, so every cell holds ``sums`` of its own LCS, overflow to
    +inf and subnormal ``match`` included.  A pair whose first side is at
    least as long as its match masks, one 64-bit word or more for each
    symbol, takes that way, and its block is one bit-parallel LCS sweep
    (``_lcs_lengths``): all pairs of 50 traces of 100 events over 14
    symbols share one.

    Every other pair sweeps the anti-diagonals (``_nw_block``): each
    block keeps three rolling ``(A+1, pairs)`` diagonals with
    ``H_d[i, p] = h_p[i, d - i]``.  A cell adds the constant gap once,
    to the larger of its UP and LEFT predecessors: rounding is monotone,
    so that is the larger of the two sums ``profile_fill`` takes.  Cells
    past a pair's own (la, lb) read -1 padding, but they never feed that
    pair's cells, which only look up and left.
    """
    n = lengths.size
    out = np.zeros((n, n), dtype=np.float64)
    first, second = np.triu_indices(n, 1)
    la, lb = lengths[first], lengths[second]

    def diagonal_cells(k, a, b):
        return k * (a + b + 1)

    def diagonal_block(i, j, a, b):
        return _nw_block(padded, i, j, a, b, match, mismatch, gap)

    sweeps = [(np.arange(la.size), diagonal_cells, diagonal_block)]
    if gap == 0 and math.copysign(1.0, gap) > 0 and -math.inf < mismatch <= 0 < match:
        # Code -1, then every code of the log: the rows of a match mask table.
        symbols = int(padded.max(initial=-1)) + 2
        with np.errstate(over="ignore"):
            sums = np.add.accumulate(np.append(0.0, np.full(lengths.max(initial=0), match)))

        def lcs_cells(k, a, b):
            # Per pair and per distinct first side, as ``_BLOCK_CELLS`` says.
            words = np.maximum(1, (a + 63) // 64)
            return (4 * k + symbols * np.minimum(k, n)) * words + 2 * k

        def lcs_block(i, j, a, b):
            return sums[_lcs_lengths(padded, i, j, a, b, symbols)]

        # A pair takes the LCS where the masks of its first side, one word
        # or more a symbol, are no longer than the side itself.
        lcs = symbols * np.maximum(1, (la + 63) // 64) <= la
        sweeps = [
            (np.flatnonzero(lcs), lcs_cells, lcs_block),
            (np.flatnonzero(~lcs), diagonal_cells, diagonal_block),
        ]
    for pairs, cells, block in sweeps:
        for run in runs(la[pairs], lb[pairs], cells, _BLOCK_CELLS):
            run = pairs[run]
            i, j = first[run], second[run]
            scores = block(i, j, la[run], lb[run])
            out[i, j] = scores
            out[j, i] = scores
    return out


def runs(la, lb, cells, cap):
    """Index arrays of items with sides ``la`` and ``lb``, cut under ``cap``.

    Sorted by (la, lb), each run is the longest prefix of the items left,
    one item at least, whose ``cells(k, a, b)`` stays within ``cap``: k
    items, a the last one's ``la``, b the running max of ``lb``.  ``cells``
    grows with k and is at least k, so ``cap`` items hold every run.
    """
    order = np.lexsort((lb, la))
    la, lb = la[order], lb[order]
    start = 0
    while start < order.size:
        a, b = la[start : start + cap], lb[start : start + cap]
        cost = cells(np.arange(1, a.size + 1), a, np.maximum.accumulate(b))
        stop = start + max(1, int(np.count_nonzero(cost <= cap)))
        yield order[start:stop]
        start = stop


# The number of one bits of every byte.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
_BYTE_BITS = _BYTE_BITS.sum(axis=1, dtype=np.uint8)


def _lcs_lengths(padded, first, second, la, lb, symbols):
    """LCS lengths of the pairs (padded[first[p]], padded[second[p]]), one sweep.

    The bit-parallel row step of Allison and Dix (1986) as Hyyro (2004)
    writes it, over 64-bit words, for a whole block at once: the first
    side of pair p is the bit vector, column p of ``v``, and each code of
    its second side is one step ``u = v & mask[code]``,
    ``v = (v + u) | (v & ~u)``, the sum carried from word to word.  The
    LCS is the count of zero bits of ``v``.  A bit past the first side's
    end has no mask bit, so it stays 1; a code of -1, padding past either
    side's end, reads an empty mask and leaves ``v`` as it is.  Each step
    gathers its codes from the log, not from a per-pair table, so a pair
    holds only its words and the block's temporaries.
    """
    A, B = int(la.max()), int(lb.max())
    words = max(1, -(-A // 64))
    # Word w of masks column t * symbols + c + 1 has bit q set where the
    # t-th distinct first side holds code c at position 64 * w + q; column
    # t * symbols, which code -1 reads, stays empty.
    present = np.zeros(padded.shape[0], dtype=np.bool_)
    present[first] = True
    sides = np.flatnonzero(present)
    masks = np.zeros((words, sides.size * symbols), dtype=np.uint64)
    at = np.arange(A)
    bits = np.left_shift(np.uint64(1), (at % 64).astype(np.uint64))
    columns = np.arange(sides.size)[:, None] * symbols + padded[sides, :A] + 1
    np.bitwise_or.at(masks, (at // 64, columns), bits)
    masks[:, ::symbols] = 0
    # Step r reads column codes[r, second[p]] + offset[p] of the masks.
    # Every index is in range; mode="clip" lets ``take`` fill ``out``
    # without a buffer.
    codes = np.ascontiguousarray(padded[:, :B].T)
    offset = np.searchsorted(sides, first) * symbols + 1
    column = np.empty_like(offset)
    ones = np.uint64(np.iinfo(np.uint64).max)
    v = np.full((words, first.size), ones, dtype=np.uint64)
    u, keep, last = (np.empty_like(v) for _ in range(3))
    # Carry lookahead: word w + 1 takes a carry where the last word k <= w
    # whose own sum is not all ones wrapped.  Word k stands for itself as
    # 2k + 2 + wrapped, an all-ones sum as 0, so the running maximum over
    # the words ends in the carry bit.
    code = np.arange(2, 2 * words + 2, 2, dtype=np.uint64)[:, None]
    for r in range(B):
        np.take(codes[r], second, out=column, mode="clip")
        column += offset
        masks.take(column, axis=1, out=u, mode="clip")
        u &= v
        np.bitwise_xor(v, u, out=keep)  # v & ~u, as u lies within v
        v += u  # word by word; the carries follow
        if words > 1:
            np.add(code, v < u, out=last)
            last *= v != ones
            np.maximum.accumulate(last, axis=0, out=last)
            last &= 1
            v[1:] += last[:-1]
        v |= keep
    zeros = np.ascontiguousarray((~v).T).view(np.uint8)
    return _BYTE_BITS[zeros].sum(axis=1)



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
    no float warning.  A lone merge is the slab with M = 1: every array of
    the sweep is ``(cells, M)``, one shape for any M.

    When every entry of ``ga``, ``gb``, ``col0`` and ``row0`` is +0.0,
    ``_line_fill`` sweeps the slab line by line, each line a prefix
    maximum.  Every other input sweeps the anti-diagonals
    (``_diagonal_fill``).  Each sweep keeps the pointer codes in its own
    order, and one rule reads both: the code of cell (i, j), for
    1 <= i <= A and 1 <= j <= B, is ``ptr[base[i + j] + step * i]``.  The
    first row and column, where a traceback has one way to go, have none.
    Ties prefer DIAG, then UP, then LEFT.  Float overflow to +-inf is
    exact here and raises no warning.  Returns ``(ptr, base, step,
    corner)``: ``ptr`` is (rows, M), ``base`` a list of A + B + 1 offsets,
    ``step`` an int and ``corner[m] = h_m[A, B]``, the best score of every
    merge whose sides are the slab's.
    """
    with np.errstate(over="ignore"):
        if any(x.any() or np.signbit(x).any() for x in (ga, gb, col0, row0)):
            return _diagonal_fill(s, ga, gb, col0, row0)
        return _line_fill(s)


def _line_fill(s):
    """``profile_fill`` with every gap cost and edge +0.0, line by line.

    h starts at +0.0 and never becomes -0.0, so ``x + 0.0 == x`` for every
    value it holds, and a row of h is the prefix maximum of
    ``max(h_prev[:-1] + s_row, h_prev[1:])`` from the edge +0.0: the
    floats of the anti-diagonal sweep, taken in another order, a NaN
    spreading along the row as the LEFT chain spreads it.  The lines run
    along the shorter side, so where A > B they are the columns, read
    through the strided view ``s.transpose(1, 0, 2)``.  A block of lines,
    about ``_BLOCK_CELLS`` cells, keeps its DIAG candidates and scores,
    plus the line before it, and writes its pointer codes at once, in
    line order, straight into ``ptr``: UP is the line before where the
    lines are rows, and the cell before where they are columns.  Cell
    (i, j) is row (i - 1) * B + j - 1 of ``ptr`` on rows, so ``base[d] =
    d - 1 - B`` and ``step = B - 1``; it is row (j - 1) * A + i - 1 on
    columns, so ``base[d] = A * d - A - 1`` and ``step = 1 - A``.
    """
    A, B, M = s.shape
    rows = A <= B
    lines = s if rows else s.transpose(1, 0, 2)
    count, length = lines.shape[:2]
    ptr = np.empty((A * B, M), dtype=np.uint8)
    codes = ptr.reshape(count, length, M)
    size = max(1, min(_BLOCK_CELLS // ((length + 1) * M), count))
    # h[0] is the line before the block; position 0 of every line is its
    # edge.  With no lines, h[0, -1] is the edge h[A, B] = +0.0.
    h = np.zeros((size + 1, length + 1, M))
    diag = np.empty((size, length, M))
    for first in range(0, count, size):
        n = min(size, count - first)
        for r in range(n):
            np.add(h[r, :-1], lines[first + r], out=diag[r])
            np.maximum(diag[r], h[r, 1:], out=h[r + 1, 1:])
            np.maximum.accumulate(h[r + 1], axis=0, out=h[r + 1])
        best = h[1 : n + 1, 1:]
        up = h[:n, 1:] if rows else h[1 : n + 1, :-1]
        _write_codes(codes[first : first + n], diag[:n], up, best)
        h[0] = h[n]
    diagonals = range(A + B + 1)
    if rows:
        base, step = [d - 1 - B for d in diagonals], B - 1
    else:
        base, step = [A * d - A - 1 for d in diagonals], 1 - A
    return ptr, base, step, h[0, -1].copy()


def _diagonal_fill(s, ga, gb, col0, row0):
    """``profile_fill`` for any gap costs and edges, over anti-diagonals.

    One diagonal of every merge is one ``(cells, M)`` basic strided slice
    of ``s``.  Diagonal d keeps ``h[i, d - i]`` for its cells i = lo..hi
    and for the slot on either side, which holds ``h[0, d]`` or
    ``h[d, 0]`` where that lies on the first row or column.  A block of
    whole diagonals, about ``_BLOCK_CELLS`` cells, follows in one buffer
    the two diagonals it reads from the block before, so each diagonal
    takes five array operations and memory is linear in the side
    lengths.  The pointer codes of a block come from four whole-block
    operations, in sweep order, so ``ptr`` holds every diagonal's slots
    too: cell (i, j) is row ``base[i + j] + i``, ``step = 1``.
    """
    A, B, M = s.shape
    diagonals = np.arange(A + B + 1)
    lo, hi = np.maximum(1, diagonals - B), np.minimum(A, diagonals - 1)
    # Diagonal d holds h[lo - 1 .. hi + 1, d - i] in rows seg[d] to
    # seg[d + 1] - 1 of ``ptr``: its cells and the slot on either side.
    seg = np.zeros(A + B + 2, dtype=np.int64)
    np.cumsum(hi - lo + 3, out=seg[1:])
    ptr = np.empty((int(seg[-1]), M), dtype=np.uint8)
    base = (seg[:-1] - lo + 1).tolist()
    # The pair score of (i - 1, j - 1) is row (i - 1) * B + j - 1 of ``s``.
    s_cells = s.reshape(-1, M)
    gb_rev = np.ascontiguousarray(gb[::-1])
    # A diagonal of one cell, all there is when B == 1, takes any step.
    step = max(B - 1, 1)
    # The rows of h[0, d] for d <= B and of h[d, 0] for d <= A.
    top, bottom = seg[: B + 1], seg[1 : A + 2] - 1
    # Scores, DIAG and UP candidates: two kept diagonals, then a block.
    # A diagonal has at most min(A, B) + 2 rows, so three always fit, and
    # no buffer outgrows the whole sweep.  Block rows are ``seg`` rows
    # less ``shift``.
    size = min(max(_BLOCK_CELLS // M, 3 * (min(A, B) + 2)), int(seg[-1]))
    h, diag_buf, up_buf = (np.zeros((size, M)) for _ in range(3))
    seg_at, lo_at, hi_at = seg.tolist(), lo.tolist(), hi.tolist()
    first = shift = 0  # the block's first diagonal; the ``seg`` row of h[0]
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
        codes = ptr[seg_at[first] : seg_at[last]]
        _write_codes(codes, diag_buf[rows], up_buf[rows], h[rows])
        # The next block reads the last two diagonals of this one.
        keep = seg_at[max(last - 2, 0)]
        h[: seg_at[last] - keep] = h[keep - shift : seg_at[last] - shift].copy()
        first, shift = last, keep
    # The last block kept diagonal A + B in h; h[A, B] is its row base + A, less shift.
    return ptr, base, 1, h[base[A + B] - shift + A].copy()


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


def traceback(ptr, base, step, la, lb):
    """Walk one merge's pointer codes from cell (la, lb) back to (0, 0).

    ``ptr``, ``base`` and ``step`` are as ``profile_fill`` returns them,
    ``ptr`` cut to the merge's own column ``ptr[:, m]``: the code of cell
    (i, j) is ``ptr[base[i + j] + step * i]``.  Returns two index
    arrays of equal length: for each output column the consumed position
    of the first/second side, or -1 where that side takes a gap.  Once
    either side is used up, the other takes the rest.
    """
    codes = memoryview(np.ascontiguousarray(ptr))
    i, j = int(la), int(lb)
    first: list[int] = []
    second: list[int] = []
    while i > 0 and j > 0:
        p = codes[base[i + j] + step * i]
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
