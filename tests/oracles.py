"""Independent oracles used to check the production implementations.

These deliberately avoid the package's DP formulations. The pairwise
oracle enumerates every global alignment path of an (la, lb) grid
explicitly, once per (la, lb), and keeps each path as a 0/1 row over
the grid's cells plus its gap-column count; a pair's best score is then
the maximum over all paths, scored together with one matrix product.
The three-trace oracle is a direct 7-transition dynamic program over
all column compositions.  The misalignment oracle walks every trace pair
in plain Python, straight from the ``misalignment_score`` docstring.
Two frozen full-table fills pin the one pointer DP: ``nw_fill`` with
its first row and column at ``gap * k``, as ``pairwise_align`` runs it,
and ``full_table_profile_fill`` with running sums of the gap costs, as
a profile merge runs it.
The reference-metric oracles compare sets of occurrence ids, as the
docstrings of ``ref_based_sps``, ``column_score`` and
``count_heuristic_errors`` define them.  The guide-tree oracle is a
frozen copy of the pairwise-loop agglomeration, and the census oracle
counts tuple windows in a ``Counter``.  The guide-tree walk oracles
recurse over the tree: one lists its leaves, the other folds a merge
function bottom-up.  The consensus oracle is a frozen copy of the
best-of-k loop that aligns and scores every candidate, and the distance
oracle scores every trace pair with ``nw_fill``.  The label-rows oracle
is a frozen copy of the cell-by-cell loop that built a grid from label
rows, with its error messages, and the validation oracle is a frozen
copy of the row-by-row loop that checked an alignment's rows.  The
traceback oracle walks a full pointer table, as the kernel did before it
kept its codes diagonal by diagonal.  The perturbation oracle is a
frozen copy of the ``perturb`` loop that rescanned the whole grid on
every move and spliced in each inserted column.
"""

import itertools
from collections import Counter
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _path_templates(la, lb):
    """Every global alignment path of two sequences of lengths la and lb.

    Returns ``(cells, gaps)``: ``cells[p, i * lb + j]`` is 1 iff path
    ``p`` puts ``a[i]`` and ``b[j]`` in one column, and ``gaps[p]`` is
    the number of gap columns of path ``p``. There are Delannoy(la, lb)
    paths, so this is for tiny inputs only.
    """
    paths = []
    diagonal = []

    def walk(i, j):
        if i == la and j == lb:
            paths.append(list(diagonal))
            return
        if i < la and j < lb:
            diagonal.append(i * lb + j)
            walk(i + 1, j + 1)
            diagonal.pop()
        if i < la:
            walk(i + 1, j)
        if j < lb:
            walk(i, j + 1)

    walk(0, 0)
    cells = np.zeros((len(paths), la * lb))
    gaps = np.empty(len(paths))
    for p, path in enumerate(paths):
        cells[p, path] = 1.0
        gaps[p] = la + lb - 2 * len(path)
    cells.flags.writeable = False
    gaps.flags.writeable = False
    return cells, gaps


def brute_force_best_score(a, b, match, mismatch, gap):
    """Max score over all global alignments of two code sequences."""
    a = np.asarray(a)
    b = np.asarray(b)
    cells, gaps = _path_templates(a.size, b.size)
    sub = np.where(a[:, None] == b[None, :], match, mismatch)
    return float((cells @ sub.ravel() + gap * gaps).max())


def enumerate_alignment_scores(a, b, match=1.0, mismatch=-1.0, gap=0.0):
    """All global alignment scores of two code sequences (tiny inputs)."""
    out = []

    def walk(i, j, acc):
        if i == len(a) and j == len(b):
            out.append(acc)
            return
        if i < len(a) and j < len(b):
            walk(i + 1, j + 1, acc + (match if a[i] == b[j] else mismatch))
        if i < len(a):
            walk(i + 1, j, acc + gap)
        if j < len(b):
            walk(i, j + 1, acc + gap)

    walk(0, 0, 0.0)
    return out


def three_way_optimum(c1, c2, c3, match=1.0, mismatch=-1.0, gap=0.0):
    """Exact maximum sum-of-pairs score of any 3-trace alignment.

    Full dynamic program over (i, j, k) with the seven non-empty advance
    combinations; a column scores its three symbol pairs (gap-gap pairs
    score 0).
    """

    def pair(x, y):
        if x < 0 and y < 0:
            return 0.0
        if x < 0 or y < 0:
            return gap
        return match if x == y else mismatch

    def column(x, y, z):
        return pair(x, y) + pair(x, z) + pair(y, z)

    l1, l2, l3 = len(c1), len(c2), len(c3)
    neg = -1e300
    h = np.full((l1 + 1, l2 + 1, l3 + 1), neg)
    h[0, 0, 0] = 0.0
    moves = [(d1, d2, d3) for d1 in (0, 1) for d2 in (0, 1) for d3 in (0, 1)][1:]
    for i in range(l1 + 1):
        for j in range(l2 + 1):
            for k in range(l3 + 1):
                if i == 0 and j == 0 and k == 0:
                    continue
                best = neg
                for d1, d2, d3 in moves:
                    pi, pj, pk = i - d1, j - d2, k - d3
                    if pi < 0 or pj < 0 or pk < 0:
                        continue
                    prev = h[pi, pj, pk]
                    if prev == neg:
                        continue
                    x = c1[pi] if d1 else -1
                    y = c2[pj] if d2 else -1
                    z = c3[pk] if d3 else -1
                    score = prev + column(x, y, z)
                    if score > best:
                        best = score
                h[i, j, k] = best
    return float(h[l1, l2, l3])


def misalignment_oracle(alignment, pattern):
    """Summed pairwise misalignment of ``pattern``, one trace pair at a time.

    For each trace pair, instances are matched in start order; a matched
    pair adds the column distance of the instance starts, plus 1 when
    either instance faces a gap or an activity outside the pattern in
    the other row.  Each unmatched instance adds 1.
    """
    pattern = tuple(pattern)
    m = len(pattern)
    rows = []
    for trace, grid_row in zip(alignment.source.traces, alignment.grid.tolist()):
        labels = list(trace.activities)
        cells = [None if k < 0 else labels[k] for k in grid_row]
        column = [j for j, k in enumerate(grid_row) if k >= 0]
        instances = [
            column[s : s + m]
            for s in range(len(labels) - m + 1)
            if tuple(labels[s : s + m]) == pattern
        ]
        rows.append((cells, instances))
    total = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            cells_i, inst_i = rows[i]
            cells_j, inst_j = rows[j]
            for cols_i, cols_j in zip(inst_i, inst_j):
                total += abs(cols_i[0] - cols_j[0])
                if any(cells_j[c] not in pattern for c in cols_i) or any(
                    cells_i[c] not in pattern for c in cols_j
                ):
                    total += 1
            total += abs(len(inst_i) - len(inst_j))
    return float(total)


DIAG, UP, LEFT = 0, 1, 2


def nw_fill(a, b, match, mismatch, gap):
    """DP table + traceback pointers, sweeping anti-diagonals in numpy.

    A frozen copy of the full-table pairwise fill; pointer codes are
    0 diagonal, 1 up, 2 left.
    """
    la, lb = a.size, b.size
    h = np.empty((la + 1, lb + 1), dtype=np.float64)
    ptr = np.empty((la + 1, lb + 1), dtype=np.uint8)
    h[0, :] = gap * np.arange(lb + 1)
    h[:, 0] = gap * np.arange(la + 1)
    ptr[0, :] = LEFT
    ptr[:, 0] = UP
    ptr[0, 0] = DIAG
    if la == 0 or lb == 0:
        return h, ptr
    sub = np.where(a[:, None] == b[None, :], match, mismatch)
    for d in range(2, la + lb + 1):
        lo = max(1, d - lb)
        hi = min(la, d - 1)
        if lo > hi:
            continue
        i = np.arange(lo, hi + 1)
        j = d - i
        diag = h[i - 1, j - 1] + sub[i - 1, j - 1]
        up = h[i - 1, j] + gap
        left = h[i, j - 1] + gap
        best = np.maximum(diag, np.maximum(up, left))
        h[i, j] = best
        ptr[i, j] = np.where(diag == best, DIAG, np.where(up == best, UP, LEFT))
    return h, ptr


def full_table_profile_fill(s, ga, gb):
    """Score table and traceback pointers of the profile DP, kept whole.

    A frozen copy of the full-table anti-diagonal fill the profile
    kernel replaced; pointer codes are 0 diagonal, 1 up, 2 left.
    """
    la, lb = s.shape
    h = np.empty((la + 1, lb + 1), dtype=np.float64)
    ptr = np.empty((la + 1, lb + 1), dtype=np.uint8)
    h[0, 0] = 0.0
    h[0, 1:] = np.cumsum(gb)
    h[1:, 0] = np.cumsum(ga)
    ptr[0, :] = 2
    ptr[:, 0] = 1
    ptr[0, 0] = 0
    for d in range(2, la + lb + 1):
        lo = max(1, d - lb)
        hi = min(la, d - 1)
        if lo > hi:
            continue
        i = np.arange(lo, hi + 1)
        j = d - i
        diag = h[i - 1, j - 1] + s[i - 1, j - 1]
        up = h[i - 1, j] + ga[i - 1]
        left = h[i, j - 1] + gb[j - 1]
        best = np.maximum(diag, np.maximum(up, left))
        h[i, j] = best
        ptr[i, j] = np.where(diag == best, 0, np.where(up == best, 1, 2))
    return h, ptr


def aligned_pairs(alignment):
    """Every pair of occurrences that shares a column of ``alignment``."""
    return {
        pair
        for j in range(alignment.length)
        for pair in itertools.combinations(alignment.column_occurrences(j), 2)
    }


def column_sets(alignment):
    """The occurrence set of each column, in column order."""
    return [frozenset(alignment.column_occurrences(j)) for j in range(alignment.length)]


def ref_based_sps_oracle(a, ref):
    """Share of the reference's aligned pairs kept by ``a``; None if it has none."""
    ref_pairs = aligned_pairs(ref)
    if not ref_pairs:
        return None
    return len(aligned_pairs(a) & ref_pairs) / len(ref_pairs)


def column_score_oracle(a, ref):
    """Share of the columns of ``a`` whose occurrence set is a reference column."""
    ref_columns = set(column_sets(ref))
    return sum(column in ref_columns for column in column_sets(a)) / a.length


def heuristic_errors_oracle(a, ref):
    """Occurrences whose set of same-column partners differs from the reference."""

    def partners(alignment):
        return {occ: column for column in column_sets(alignment) for occ in column}

    mine, theirs = partners(a), partners(ref)
    return sum(mine[occ] != theirs[occ] for occ in mine)


def guide_tree_oracle(distances):
    """Average-linkage merge tree as nested ``(left, right, distance)`` tuples.

    A frozen copy of the agglomeration loop the guide tree replaced:
    each step scans every pair of active clusters for the smallest
    ``(distance, min leaf, min leaf)`` key, the cluster with the smaller
    minimum leaf goes left and keeps its slot, and the Lance-Williams
    update averages the distances one cluster at a time.  Leaves are
    trace indices.
    """
    dist = np.array(distances, dtype=np.float64)
    n = dist.shape[0]
    trees = list(range(n))
    sizes = [1] * n
    min_leaf = list(range(n))
    active = list(range(n))
    while len(active) > 1:
        best_key = best_pair = None
        for ai in range(len(active)):
            for aj in range(ai + 1, len(active)):
                ci, cj = active[ai], active[aj]
                left, right = sorted((min_leaf[ci], min_leaf[cj]))
                key = (dist[ci, cj], left, right)
                if best_key is None or key < best_key:
                    best_key = key
                    best_pair = (ci, cj)
        ci, cj = best_pair
        if min_leaf[cj] < min_leaf[ci]:
            ci, cj = cj, ci
        merged = (trees[ci], trees[cj], float(dist[ci, cj]))
        wi, wj = sizes[ci], sizes[cj]
        for ck in active:
            if ck in (ci, cj):
                continue
            dist[ci, ck] = dist[ck, ci] = (wi * dist[ci, ck] + wj * dist[cj, ck]) / (wi + wj)
        trees[ci] = merged
        sizes[ci] = wi + wj
        min_leaf[ci] = min(min_leaf[ci], min_leaf[cj])
        active.remove(cj)
    return trees[active[0]]


def census_oracle(log, min_len=2, max_len=None):
    """Log-wide counts of every activity window, keyed by label tuple."""
    counts = Counter()
    for trace in log.traces:
        labels = tuple(trace.activities)
        top = len(labels) if max_len is None else min(max_len, len(labels))
        for m in range(min_len, top + 1):
            for s in range(len(labels) - m + 1):
                counts[labels[s : s + m]] += 1
    return counts


def guide_tree_leaves_oracle(tree):
    """Leaf indices of a guide tree, left to right, by plain recursion."""
    if tree.is_leaf:
        return [tree.index]
    return guide_tree_leaves_oracle(tree.left) + guide_tree_leaves_oracle(tree.right)


def guide_tree_fold_oracle(tree, leaf, merge):
    """``leaf(index)`` at each leaf and ``merge(left, right)`` at each join,
    folded bottom-up by plain recursion."""
    if tree.is_leaf:
        return leaf(tree.index)
    return merge(
        guide_tree_fold_oracle(tree.left, leaf, merge),
        guide_tree_fold_oracle(tree.right, leaf, merge),
    )


def consensus_oracle(log, scheme, k, seed):
    """Best-of-k consensus with every candidate aligned and scored.

    A frozen copy of the loop the candidate skip replaced, with the same
    noise draws and the same ``(-sps, complexity)`` key; returns
    ``(best, winner, trees)``: the winning alignment, its index and every
    candidate's guide tree.
    """
    from tracealign import (
        alignment_complexity,
        build_guide_tree,
        distance_matrix,
        progressive_align,
        ref_free_sps,
    )

    d = distance_matrix(log, scheme)
    rng = np.random.default_rng(seed)
    best = winner = best_key = None
    trees = []
    for i in range(k):
        if i == 0:
            matrix = d
        else:
            upper = np.triu(rng.uniform(0.9, 1.1, size=d.shape), 1)
            matrix = d * (upper + upper.T)
        trees.append(build_guide_tree(matrix))
        candidate = progressive_align(log, scheme, trees[-1])
        key = (-ref_free_sps(candidate, scheme), alignment_complexity(candidate).value)
        if best_key is None or key < best_key:
            best, winner, best_key = candidate, i, key
    return best, winner, trees


def distance_oracle(log, match, mismatch, gap):
    """Normalized distances of every trace pair, each scored by ``nw_fill``."""
    codes = log.trace_codes
    n = len(codes)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            score = float(nw_fill(codes[i], codes[j], match, mismatch, gap)[0][-1, -1])
            best = match * min(codes[i].size, codes[j].size)
            d[i, j] = min(max(1.0 - score / best, 0.0), 1.0) if best > 0 else 1.0
    return d


def label_rows_oracle(log, rows):
    """Grid rows from label rows, one cell at a time, or the ValueError naming the first fault."""
    if len(rows) != len(log):
        raise ValueError(f"{len(rows)} rows for {len(log)} traces")
    grid = []
    for i, row in enumerate(rows):
        trace = log.traces[i]
        ordinal = 0
        grid_row = []
        for j, symbol in enumerate(row):
            if symbol == "-":
                grid_row.append(-1)
                continue
            if ordinal >= len(trace) or trace.activities[ordinal] != symbol:
                raise ValueError(
                    f"row {i} column {j}: label {symbol!r} does not match "
                    f"trace {trace.case_id!r}"
                )
            grid_row.append(ordinal)
            ordinal += 1
        if ordinal != len(trace):
            raise ValueError(
                f"row {i}: {ordinal} activities, trace {trace.case_id!r} has {len(trace)}"
            )
        grid.append(grid_row)
    return grid


def validation_oracle(alignment):
    """Every structural violation of an alignment as ``(kind, row, column,
    message)``, in report order.

    A frozen copy of the validator's row-by-row loop: each row's occupied
    ordinals are sorted and compared with 0..n-1, then checked for order.
    """
    grid = alignment.grid
    n_rows, length = grid.shape
    report = []
    if length < alignment.l_min:
        report.append(
            ("length", None, None, f"alignment length {length} is below the minimum {alignment.l_min}")
        )
    if length:
        for j in np.nonzero((grid < 0).all(axis=0))[0]:
            report.append(("all_gap_column", None, int(j), f"column {j} is all gaps"))
    for i in range(n_rows):
        expected = len(alignment.source.traces[i])
        ordinals = grid[i][grid[i] >= 0]
        if sorted(ordinals.tolist()) != list(range(expected)):
            report.append(
                (
                    "row_occurrences",
                    i,
                    None,
                    f"row {i} holds ordinals {ordinals.tolist()}, expected 0..{expected - 1} once each",
                )
            )
        elif not np.all(np.diff(ordinals) > 0):
            report.append(("row_order", i, None, f"row {i} lists ordinals out of order"))
    return report


def traceback_oracle(ptr):
    """Walk a full (la + 1, lb + 1) pointer table from its bottom-right corner.

    A frozen copy of the table walk that came before pointer codes were
    kept diagonal by diagonal: the first/second side's consumed position
    per output column, -1 where that side takes a gap.
    """
    i = ptr.shape[0] - 1
    j = ptr.shape[1] - 1
    first = []
    second = []
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


def perturb_oracle(grid, moves, seed):
    """The grid ``perturb`` makes from ``grid``, rescanning the grid on every move.

    A frozen copy of the loop that came before the occupied cells were
    kept as one row-major list: each move finds the occupied cells with
    ``np.nonzero``, walks the gap runs next to the picked one cell by
    cell, and inserts a column by splicing the grid.
    """
    if moves < 0:
        raise ValueError(f"moves must be >= 0, got {moves}")
    grid = np.array(grid)
    if moves == 0:
        return grid
    rng = np.random.default_rng(seed)
    for _ in range(moves):
        rows, cols = np.nonzero(grid >= 0)
        pick = int(rng.integers(rows.size))
        i, j = int(rows[pick]), int(cols[pick])
        length = grid.shape[1]

        targets = []
        col = j - 1
        while col >= 0 and grid[i, col] < 0:
            targets.append(col)
            col -= 1
        col = j + 1
        while col < length and grid[i, col] < 0:
            targets.append(col)
            col += 1

        if targets:
            target = int(targets[int(rng.integers(len(targets)))])
            grid[i, target] = grid[i, j]
            grid[i, j] = -1
        else:
            insert_at = j if rng.integers(2) == 0 else j + 1
            column = np.full((grid.shape[0], 1), -1, dtype=np.int64)
            grid = np.concatenate([grid[:, :insert_at], column, grid[:, insert_at:]], axis=1)
            source = insert_at + 1 if insert_at == j else j
            grid[i, insert_at] = grid[i, source]
            grid[i, source] = -1
    return grid[:, (grid >= 0).any(axis=0)]
