import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracealign
from conftest import random_log
from oracles import (
    _path_templates,
    brute_force_best_score,
    full_table_profile_fill,
    misalignment_oracle,
    nw_fill,
    traceback_oracle,
)
from tracealign import (
    DEFAULT_SCHEME,
    EventLog,
    Pattern,
    ScoringScheme,
    Trace,
    _kernels,
    consensus_reference,
    extract_patterns,
    pairwise_align,
    progressive_align,
)
from tracealign.experiments import perturb
from tracealign.metrics import _InstanceIndex, misalignment_score

SCHEMES = [(1.0, -1.0, 0.0), (2.0, -0.5, -0.25), (1.0, -1.0, -1.0)]
# Schemes whose sums round, so a boundary built as a running total differs
# from ``gap * k`` in the last bit, and one whose zeros carry a sign.
NON_DYADIC = [(1.0, -0.3, -0.1), (0.1, -0.2, 0.3), (3.3, 1.1, -0.7), (1.0, -0.0, -0.0)]
# A scheme whose gap sums overflow to -inf, so whole regions of the table
# tie at -inf and the pointer codes there come from comparing infinities.
OVERFLOW = (1e300, -1e308, -1e308)
# Schemes whose gap is +0.0, which take the zero-gap sweeps: rounded sums,
# a mismatch of +0.0 and of -0.0, and one whose match sums overflow to
# +inf, so whole regions of the table tie at +inf.
ZERO_GAP_OVERFLOW = (1e308, -1e308, 0.0)
ZERO_GAP = [(0.1, -0.2, 0.0), (1.0, 0.0, 0.0), (1.0, -0.0, 0.0), ZERO_GAP_OVERFLOW]
# Block budgets for ``_kernels._BLOCK_CELLS``: the default, and budgets so
# small that blocks end on every diagonal or every few diagonals.
BLOCK_CELLS = [_kernels._BLOCK_CELLS, 1, 2, 7]


@pytest.fixture
def rng():
    return np.random.default_rng(60)


def traces(a, b):
    """Two traces with the code sequences a and b as labels."""
    return Trace("a", [str(c) for c in a]), Trace("b", [str(c) for c in b])


def merge_edges(ga, gb):
    """The DP's first column and row as a profile merge builds them."""
    return np.append(0.0, np.cumsum(ga)), np.append(0.0, np.cumsum(gb))


def pointer_table(ptr, base, step, la, lb):
    """One merge's pointer codes, cell (i, j) at ``ptr[base[i + j] + step * i]``,
    as the full (la + 1, lb + 1) table: LEFT along the first row, UP down
    the first column, DIAG in the corner."""
    table = np.empty((la + 1, lb + 1), dtype=np.uint8)
    table[0, :], table[:, 0], table[0, 0] = _kernels.LEFT, _kernels.UP, _kernels.DIAG
    i, j = np.mgrid[1 : la + 1, 1 : lb + 1]
    table[1:, 1:] = ptr[np.asarray(base, dtype=np.int64)[i + j] + step * i]
    return table


def fill_merges(merges):
    """``profile_fill`` over merges ``(s, ga, gb)``, each zero-padded into one
    slab as the level fold builds it; each merge's full pointer table, its
    score and its traceback.

    The sweep returns one score per merge, the slab's last cell, and that
    is the score only of a merge whose sides are the slab's; every other
    merge's score is None.
    """
    la = np.array([s.shape[0] for s, _, _ in merges], dtype=np.int64)
    lb = np.array([s.shape[1] for s, _, _ in merges], dtype=np.int64)
    A, B, M = int(la.max()), int(lb.max()), len(merges)
    slab, ga_slab, gb_slab = np.zeros((A, B, M)), np.zeros((A, M)), np.zeros((B, M))
    col0, row0 = np.zeros((A + 1, M)), np.zeros((B + 1, M))
    for m, (s, ga, gb) in enumerate(merges):
        slab[: la[m], : lb[m], m] = s
        ga_slab[: la[m], m], gb_slab[: lb[m], m] = ga, gb
        with np.errstate(over="ignore"):
            col0[: la[m] + 1, m], row0[: lb[m] + 1, m] = merge_edges(ga, gb)
    # Outside any errstate: the sweep itself must raise no overflow warning.
    ptr, base, step, corner = _kernels.profile_fill(slab, ga_slab, gb_slab, col0, row0)
    assert ptr.shape[1] == M and len(base) == A + B + 1 and corner.shape == (M,)
    # The layout rule reads every cell of the slab from a row of its own.
    i, j = np.mgrid[1 : A + 1, 1 : B + 1]
    rows = (np.asarray(base, dtype=np.int64)[i + j] + step * i).ravel()
    assert np.unique(rows).size == rows.size
    assert rows.size == 0 or 0 <= rows.min() and rows.max() < ptr.shape[0]
    return [
        (
            pointer_table(ptr[:, m], base, step, la[m], lb[m]),
            float(corner[m]) if (la[m], lb[m]) == (A, B) else None,
            _kernels.traceback(ptr[:, m], base, step, la[m], lb[m]),
        )
        for m in range(M)
    ]


def check_score(score, h):
    """A merge's score, where the sweep gives one, has the bits of ``h[-1, -1]``."""
    assert score is None or score.hex() == float(h[-1, -1]).hex()


def overflow_allowed(scheme):
    """Silence float overflow for the overflowing schemes only; finite scores
    make no NaN."""
    overflows = scheme in (OVERFLOW, ZERO_GAP_OVERFLOW)
    return np.errstate(over="ignore") if overflows else np.errstate()


def profile_shapes(rng):
    """Small random (la, lb) shapes plus thin ones: empty, one-wide, 3 x 200."""
    n = int(rng.integers(1, 40))
    shapes = [tuple(int(k) for k in rng.integers(0, 13, size=2)) for _ in range(40)]
    return shapes + [(0, n), (n, 0), (1, n), (n, 1), (3, 200), (200, 3)]


class TestNwFill:
    """``pairwise_align`` against the frozen full-table pairwise fill and
    against every alignment path."""

    @pytest.mark.parametrize("scheme", SCHEMES + NON_DYADIC + [OVERFLOW] + ZERO_GAP)
    def test_matches_full_table_fill(self, rng, scheme):
        for _ in range(100):
            la, lb = (int(n) for n in rng.integers(1, 12, size=2))
            a = rng.integers(0, 3, size=la)
            b = rng.integers(0, 3, size=lb)
            with overflow_allowed(scheme):
                alignment, score = pairwise_align(*traces(a, b), ScoringScheme(*scheme))
                h, ptr = nw_fill(a, b, *scheme)
            assert np.array_equal(alignment.grid, np.stack(traceback_oracle(ptr)))
            assert score.hex() == float(h[-1, -1]).hex()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_brute_force_on_every_small_pair(self, scheme):
        sequences = [seq for n in range(1, 5) for seq in itertools.product(range(3), repeat=n)]
        for a, b in itertools.combinations_with_replacement(sequences, 2):
            best = brute_force_best_score(a, b, *scheme)
            assert pairwise_align(*traces(a, b), ScoringScheme(*scheme))[1] == best
            assert pairwise_align(*traces(b, a), ScoringScheme(*scheme))[1] == best


class TestProfileFill:
    """The rolling-diagonal profile DP against a full-table fill and against
    every alignment path."""

    @staticmethod
    def check(s, ga, gb):
        h, expected = full_table_profile_fill(s, ga, gb)
        [(ptr, score, path)] = fill_merges([(s, ga, gb)])
        assert np.array_equal(ptr, expected)
        assert score.hex() == float(h[-1, -1]).hex()
        assert np.array_equal(np.stack(path), np.stack(traceback_oracle(expected)))

    def test_pointers_match_full_table_fill(self, rng, monkeypatch):
        for block_cells in BLOCK_CELLS:
            monkeypatch.setattr(_kernels, "_BLOCK_CELLS", block_cells)
            for trial, (la, lb) in enumerate(profile_shapes(rng)):
                if trial % 3 == 1:
                    # Integer scores force ties, so the tie-break is compared too.
                    s = rng.integers(-2, 3, size=(la, lb)).astype(np.float64)
                    ga = -rng.integers(0, 2, size=la).astype(np.float64)
                    gb = -rng.integers(0, 2, size=lb).astype(np.float64)
                else:
                    s = rng.normal(size=(la, lb))
                    ga = rng.normal(size=la) * 0.1
                    gb = rng.normal(size=lb) * 0.1
                if trial % 3 == 2:
                    # Infinite and NaN pair scores; a NaN best equals no candidate.
                    s[rng.random(size=s.shape) < 0.2] = np.nan
                    s[rng.random(size=s.shape) < 0.1] = np.inf
                    s[rng.random(size=s.shape) < 0.1] = -np.inf
                    with np.errstate(invalid="ignore"):
                        self.check(s, ga, gb)
                else:
                    self.check(s, ga, gb)

    @pytest.mark.parametrize("scheme", NON_DYADIC + [OVERFLOW] + ZERO_GAP)
    def test_scheme_pointers_match_full_table_fill(self, rng, monkeypatch, scheme):
        match, mismatch, gap = scheme
        for block_cells in BLOCK_CELLS:
            monkeypatch.setattr(_kernels, "_BLOCK_CELLS", block_cells)
            for la, lb in profile_shapes(rng):
                a, b = rng.integers(0, 3, size=la), rng.integers(0, 3, size=lb)
                s = np.where(a[:, None] == b[None, :], match, mismatch)
                with overflow_allowed(scheme):
                    self.check(s, np.full(la, gap), np.full(lb, gap))

    def test_merges_in_one_sweep_match_full_table_fill(self, rng, monkeypatch):
        for block_cells in BLOCK_CELLS:
            monkeypatch.setattr(_kernels, "_BLOCK_CELLS", block_cells)
            for trial in range(9):
                n = int(rng.integers(1, 25))
                # Empty, one-row, one-column, square and very unequal merges
                # share a slab.
                shapes = [(0, n), (n, 0), (1, n), (n, 1), (n, n), (2, 3 * n + 5), (3 * n + 5, 2)]
                shapes += [tuple(rng.integers(0, 13, size=2).tolist()) for _ in range(trial % 4)]
                merges = []
                for k in rng.permutation(len(shapes)).tolist():
                    la, lb = shapes[k]
                    if trial % 2:
                        # Integer scores force ties, so the tie-break is compared too.
                        s = rng.integers(-2, 3, size=(la, lb)).astype(np.float64)
                        ga = -rng.integers(0, 2, size=la).astype(np.float64)
                        gb = -rng.integers(0, 2, size=lb).astype(np.float64)
                    else:
                        s = rng.normal(size=(la, lb))
                        ga, gb = rng.normal(size=la) * 0.1, rng.normal(size=lb) * 0.1
                    merges.append((s, ga, gb))
                poisoned = trial % 3 == 2
                if poisoned:
                    # NaN and infinities in one merge's pair scores reach no other merge.
                    s = merges[int(rng.integers(len(merges)))][0]
                    s[rng.random(size=s.shape) < 0.3] = np.nan
                    s[rng.random(size=s.shape) < 0.2] = np.inf
                    s[rng.random(size=s.shape) < 0.2] = -np.inf
                with np.errstate(invalid="ignore") if poisoned else np.errstate():
                    filled = fill_merges(merges)
                    for (s, ga, gb), (ptr, score, path) in zip(merges, filled):
                        h, expected = full_table_profile_fill(s, ga, gb)
                        assert np.array_equal(ptr, expected)
                        check_score(score, h)
                        assert np.array_equal(np.stack(path), np.stack(traceback_oracle(expected)))

    @pytest.mark.parametrize("scheme", NON_DYADIC + [OVERFLOW] + ZERO_GAP)
    def test_scheme_merges_in_one_sweep_match_full_table_fill(self, rng, monkeypatch, scheme):
        match, mismatch, gap = scheme
        for block_cells in BLOCK_CELLS:
            monkeypatch.setattr(_kernels, "_BLOCK_CELLS", block_cells)
            merges = []
            for la, lb in profile_shapes(rng):
                a, b = rng.integers(0, 3, size=la), rng.integers(0, 3, size=lb)
                s = np.where(a[:, None] == b[None, :], match, mismatch)
                merges.append((s, np.full(la, gap), np.full(lb, gap)))
            filled = fill_merges(merges)
            for (s, ga, gb), (ptr, score, path) in zip(merges, filled):
                with overflow_allowed(scheme):
                    h, expected = full_table_profile_fill(s, ga, gb)
                assert np.array_equal(ptr, expected)
                check_score(score, h)
                assert np.array_equal(np.stack(path), np.stack(traceback_oracle(expected)))

    def test_full_size_merges_in_one_sweep_score_the_corner(self, rng, monkeypatch):
        for block_cells in BLOCK_CELLS:
            monkeypatch.setattr(_kernels, "_BLOCK_CELLS", block_cells)
            for A, B in [(0, 5), (5, 0), (1, 1), (4, 9), (13, 6)]:
                # Two merges as large as the slab, between two that are not.
                shapes = [(A, B), (A // 2, B), (A, B), (A, B // 2)]
                merges = [
                    (rng.normal(size=(la, lb)), rng.normal(size=la), rng.normal(size=lb))
                    for la, lb in shapes
                ]
                filled = fill_merges(merges)
                assert [score is not None for _, score, _ in filled] == [
                    shape == (A, B) for shape in shapes
                ]
                for (s, ga, gb), (ptr, score, path) in zip(merges, filled):
                    h, expected = full_table_profile_fill(s, ga, gb)
                    assert np.array_equal(ptr, expected)
                    check_score(score, h)
                    assert np.array_equal(np.stack(path), np.stack(traceback_oracle(expected)))

    def test_zero_gaps_match_full_table_fill(self, rng, monkeypatch):
        # Gap costs and edges of +0.0 take the line sweep: rows where A <= B,
        # columns where A > B, one and zero wide, alone and in shared slabs.
        for block_cells in BLOCK_CELLS:
            monkeypatch.setattr(_kernels, "_BLOCK_CELLS", block_cells)
            for trial in range(6):
                n = int(rng.integers(2, 25))
                shapes = [(n, n + 7), (n + 7, n), (n, n), (1, n), (n, 1), (1, 1), (0, n), (n, 0)]
                merges = []
                for la, lb in shapes:
                    if trial % 2:
                        # Integer scores force ties, so the tie-break is compared too.
                        s = rng.integers(-2, 3, size=(la, lb)).astype(np.float64)
                    else:
                        s = rng.normal(size=(la, lb))
                    merges.append((s, np.zeros(la), np.zeros(lb)))
                poisoned = trial % 3 == 2
                if poisoned:
                    # NaN and infinities spread along a line as the LEFT chain does.
                    for s, _, _ in merges:
                        s[rng.random(size=s.shape) < 0.1] = np.nan
                        s[rng.random(size=s.shape) < 0.1] = np.inf
                        s[rng.random(size=s.shape) < 0.1] = -np.inf
                # Each merge alone, then all in one slab, then the slabs of the
                # first two, which are taller than wide and wider than tall.
                groups = [[m] for m in merges] + [merges, merges[:2], merges[1::-1]]
                with np.errstate(invalid="ignore") if poisoned else np.errstate():
                    for group in groups:
                        for (s, ga, gb), (ptr, score, path) in zip(group, fill_merges(group)):
                            h, expected = full_table_profile_fill(s, ga, gb)
                            assert np.array_equal(ptr, expected)
                            check_score(score, h)
                            walked = traceback_oracle(expected)
                            assert np.array_equal(np.stack(path), np.stack(walked))

    def test_traced_path_scores_the_best_path(self, rng):
        for la, lb in itertools.product(range(6), repeat=2):
            # Quarter-integer scores keep every sum exact in float64.
            s = rng.integers(-8, 9, size=(la, lb)) / 4.0
            ga = -rng.integers(0, 5, size=la) / 4.0
            gb = -rng.integers(0, 5, size=lb) / 4.0
            [(_, _, (first, second))] = fill_merges([(s, ga, gb)])
            traced = sum(
                s[i, j] if i >= 0 and j >= 0 else ga[i] if i >= 0 else gb[j]
                for i, j in zip(first.tolist(), second.tolist())
            )
            cells, _ = _path_templates(la, lb)
            paired = cells.reshape(len(cells), la, lb)
            best = (
                cells @ s.ravel()
                + (1 - paired.sum(axis=2)) @ ga
                + (1 - paired.sum(axis=1)) @ gb
            ).max()
            assert traced == best


class TestMsPattern:
    """Batched misalignment scoring against the per-pair oracle."""

    @pytest.mark.parametrize("moves", [0, 3, 10])
    @pytest.mark.parametrize("block_cells", [None, 8])
    def test_matches_oracle_on_every_census_pattern(self, monkeypatch, moves, block_cells):
        if block_cells is not None:
            # A tiny budget puts every slot in a block of its own and
            # splits its instance rows into chunks.
            monkeypatch.setattr(_kernels, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(70 + moves)
        checked = 0
        for case in range(25):
            n_types = int(rng.integers(1, 5))
            log = random_log(
                rng,
                n_traces=int(rng.integers(2, 7)),
                min_len=1,
                max_len=8,
                alphabet=("a", "b", "c", "d")[:n_types],
            )
            if log.max_trace_length < 2:
                continue
            alignment = perturb(progressive_align(log), moves, seed=case).alignment
            census = extract_patterns(log)
            # A ratio this small keeps the whole census above the cut.
            index = _InstanceIndex.of_log(log, 1e-9)
            assert list(zip(index.patterns, index.counts)) == list(census.items())
            expected = [misalignment_oracle(alignment, p) for p in index.patterns]
            assert index.scores(alignment) == expected
            found = _InstanceIndex(log, list(census.items()), census.f_max)
            assert found.scores(alignment) == expected
            for pattern, score in zip(index.patterns, expected):
                assert misalignment_score(alignment, pattern) == score
            checked += len(expected)
        assert checked > 100

    def test_sums_stay_integral_in_int64(self):
        log = EventLog([Trace(f"t{i}", list("abab")) for i in range(3)])
        alignment = perturb(progressive_align(log), 4, seed=1).alignment
        index = _InstanceIndex.of_census(extract_patterns(log), log, 0.4)
        matched = _kernels.ms_pattern(
            index.starts,
            index.slot_pattern,
            index.pat_len,
            index.member,
            alignment.column_of,
            alignment.codes,
        )
        assert matched.dtype == np.int64 and matched.shape == (len(index.patterns),)
        assert all(type(v) is float for v in index.scores(alignment))

    def test_pattern_without_instances_scores_zero(self):
        log = EventLog([Trace("t0", list("ab")), Trace("t1", list("ba"))])
        alignment = progressive_align(log)
        chosen = [(Pattern("ba"), 1), (Pattern("zz"), 0), (Pattern("abc"), 0)]
        index = _InstanceIndex(log, chosen, 1)
        assert index.starts.shape == (1, 2)
        assert index.scores(alignment) == [misalignment_oracle(alignment, "ba"), 0.0, 0.0]


def pad(sequences):
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    padded = np.full((len(sequences), max(lengths, default=0)), -1, dtype=np.int64)
    for row, seq in zip(padded, sequences):
        row[: len(seq)] = seq
    return padded, lengths


class TestNwScores:
    """The batched all-pairs kernel against independent per-pair references."""

    @pytest.mark.parametrize("scheme", SCHEMES[:2])
    def test_matches_brute_force_on_every_small_pair(self, scheme):
        sequences = [seq for n in range(5) for seq in itertools.product(range(3), repeat=n)]
        scores = _kernels.nw_scores(*pad(sequences), *scheme)
        for i, j in itertools.combinations(range(len(sequences)), 2):
            assert scores[i, j] == brute_force_best_score(sequences[i], sequences[j], *scheme)

    @pytest.mark.parametrize("scheme", SCHEMES + NON_DYADIC + [OVERFLOW] + ZERO_GAP)
    def test_matches_pairwise_fill_across_blocks(self, rng, monkeypatch, scheme):
        # A small budget splits the pairs into many blocks of unequal shapes.
        monkeypatch.setattr(_kernels, "_BLOCK_CELLS", 200)
        sequences = [rng.integers(0, 4, size=int(n)) for n in rng.integers(0, 31, size=40)]
        sequences += [np.zeros(0, dtype=np.int64), rng.integers(0, 4, size=30)]
        with overflow_allowed(scheme):
            scores = _kernels.nw_scores(*pad(sequences), *scheme)
            for i, j in itertools.combinations(range(len(sequences)), 2):
                h, _ = nw_fill(sequences[i], sequences[j], *scheme)
                assert scores[i, j].hex() == h[-1, -1].hex()

    @pytest.mark.parametrize("block_cells", [200, _kernels._BLOCK_CELLS])
    @pytest.mark.parametrize("scheme", [SCHEMES[0]] + ZERO_GAP)
    def test_word_boundaries_match_pairwise_fill(self, rng, monkeypatch, block_cells, scheme):
        # Sides that end short of, on and past 64-bit word boundaries.  One
        # symbol matches everywhere, so a carry crosses every word.
        monkeypatch.setattr(_kernels, "_BLOCK_CELLS", block_cells)
        sweeps = []
        lcs_lengths = _kernels._lcs_lengths

        def counted(*args):
            sweeps.append(args[1].size)
            return lcs_lengths(*args)

        monkeypatch.setattr(_kernels, "_lcs_lengths", counted)
        for symbols in (1, 2, 5):
            sequences = [rng.integers(0, symbols, size=n) for n in (0, 63, 64, 65, 128, 129)]
            with overflow_allowed(scheme):
                scores = _kernels.nw_scores(*pad(sequences), *scheme)
                for i, j in itertools.combinations(range(len(sequences)), 2):
                    h, _ = nw_fill(sequences[i], sequences[j], *scheme)
                    assert scores[i, j].hex() == scores[j, i].hex() == h[-1, -1].hex()
        if block_cells == BLOCK_CELLS[0]:
            # At the default budget all 15 pairs of a log, the 5 whose first
            # side is empty too, share one sweep.
            assert sweeps == [15, 15, 15]

    @pytest.mark.parametrize("scheme", ZERO_GAP)
    def test_carry_crosses_several_words(self, scheme):
        # Code 1 first clears bits of word 2 of the first side; then a
        # carry out of word 0 must pass word 1, all ones, on to word 2.
        sequences = [[0] * 3 + [2] * 125 + [1] * 3, [1, 0, 1, 0, 1], [1] * 3 + [0] * 3 + [1, 1]]
        sequences += [[0] * 3 + [1] * 200, [0, 2, 1] * 70]
        with overflow_allowed(scheme):
            scores = _kernels.nw_scores(*pad(sequences), *scheme)
            for i, j in itertools.combinations(range(len(sequences)), 2):
                h, _ = nw_fill(np.array(sequences[i]), np.array(sequences[j]), *scheme)
                assert scores[i, j].hex() == h[-1, -1].hex()

    @pytest.mark.parametrize(
        "codes, length",
        [(14, 100), (14, 15), (14, 14), (60, 1000), (63, 1000), (2000, 100), (1, 0)],
    )
    @pytest.mark.parametrize(
        "scheme, sweep",
        [
            ((1.0, -1.0, 0.0), "_lcs_lengths"),
            ((1.0, -1.0, -0.25), "_nw_block"),
            ((1.0, -1.0, -0.0), "_nw_block"),
            ((3.0, 1.0, 0.0), "_nw_block"),
        ],
        ids=["default", "gap-0.25", "gap-0.0", "mismatch+1"],
    )
    def test_sweep_follows_scheme(self, rng, monkeypatch, scheme, sweep, codes, length):
        # The default scheme takes the LCS for every pair, whatever the
        # alphabet and the sides, an empty one too; a non-zero gap, a -0.0
        # gap or a mismatch above 0 takes the diagonals.  100 events over
        # 14 codes is the shape of the long-random benchmark log.
        calls = []
        for name in ("_lcs_lengths", "_nw_block"):

            def counted(*args, fill=getattr(_kernels, name), name=name):
                calls.append(name)
                return fill(*args)

            monkeypatch.setattr(_kernels, name, counted)
        sequences = [rng.integers(0, codes, size=length) for _ in range(3)]
        sequences[0][:1] = codes - 1
        sequences.append(np.zeros(0, dtype=np.int64))
        scores = _kernels.nw_scores(*pad(sequences), *scheme)
        assert set(calls) == {sweep}
        for i, j in itertools.combinations(range(len(sequences)), 2):
            h, _ = nw_fill(sequences[i], sequences[j], *scheme)
            assert scores[i, j].hex() == h[-1, -1].hex()

    @pytest.mark.parametrize("scheme", ZERO_GAP)
    def test_mask_chunks_match_pairwise_fill(self, rng, monkeypatch, scheme):
        # Match masks are built once per chunk of consecutive first sides
        # within the budget: at a budget of one word every row is its own
        # chunk, at the default one these logs take one.  Sides end short
        # of, on and past word boundaries, over 1 to 2,000 codes, and a mix
        # of 15 to 1,000 events follows.
        chunks = []
        lcs_lengths = _kernels._lcs_lengths

        def counted(masks, *args):
            chunks.append(masks.shape[1])
            return lcs_lengths(masks, *args)

        monkeypatch.setattr(_kernels, "_lcs_lengths", counted)
        logs = [(codes, (0, 63, 64, 65, 129)) for codes in (1, 14, 63, 2000)]
        logs.append((14, (15, 130, 1000, 400, 15)))
        for codes, lengths in logs:
            sequences = [rng.integers(0, codes, size=n) for n in lengths]
            sequences[-1][:1] = codes - 1
            with overflow_allowed(scheme):
                oracle = {
                    (i, j): nw_fill(sequences[i], sequences[j], *scheme)[0][-1, -1].hex()
                    for i, j in itertools.combinations(range(len(sequences)), 2)
                }
                for block_cells in (1, BLOCK_CELLS[0]):
                    monkeypatch.setattr(_kernels, "_BLOCK_CELLS", block_cells)
                    chunks.clear()
                    scores = _kernels.nw_scores(*pad(sequences), *scheme)
                    assert {(i, j): scores[i, j].hex() for i, j in oracle} == oracle
                    assert {(i, j): scores[j, i].hex() for i, j in oracle} == oracle
                    rows = {width // (codes + 1) for width in chunks}
                    assert rows == ({1} if block_cells == 1 else {len(sequences) - 1})

    def test_default_scheme_scores_a_long_random_log_in_one_sweep(self, rng, monkeypatch):
        # 50 traces of 100 events over 14 codes, the shape of the
        # long-random benchmark log: a pair holds only its words and the
        # block's temporaries, so all 1,225 pairs share one bit-parallel
        # sweep at the default budget and split into several at a small
        # one, with the same bits as the anti-diagonal sweep.
        sweeps = []
        lcs_lengths = _kernels._lcs_lengths

        def counted(*args):
            sweeps.append(args[1].size)
            return lcs_lengths(*args)

        monkeypatch.setattr(_kernels, "_lcs_lengths", counted)
        scheme = (DEFAULT_SCHEME.match, DEFAULT_SCHEME.mismatch, DEFAULT_SCHEME.gap)
        padded = rng.integers(0, 14, size=(50, 100))
        lengths = np.full(50, 100)
        scores = _kernels.nw_scores(padded, lengths, *scheme)
        assert sweeps == [1225]
        monkeypatch.setattr(_kernels, "_BLOCK_CELLS", 200)
        blocked = _kernels.nw_scores(padded, lengths, *scheme)
        assert len(sweeps) > 2 and sum(sweeps[1:]) == 1225
        first, second = np.triu_indices(50, 1)
        diagonal = _kernels._nw_block(
            padded, first, second, lengths[first], lengths[second], *scheme
        )
        assert [x.hex() for x in scores[first, second]] == [x.hex() for x in diagonal]
        assert [x.hex() for x in blocked.ravel()] == [x.hex() for x in scores.ravel()]

    def test_symmetric_with_zero_diagonal(self, rng):
        sequences = [rng.integers(0, 3, size=int(n)) for n in rng.integers(0, 12, size=15)]
        scores = _kernels.nw_scores(*pad(sequences), 1.0, -1.0, -1.0)
        assert np.array_equal(scores, scores.T)
        assert not np.diagonal(scores).any()

    def test_fewer_than_two_sequences(self):
        assert _kernels.nw_scores(*pad([]), 1.0, -1.0, 0.0).shape == (0, 0)
        assert np.array_equal(_kernels.nw_scores(*pad([[0, 1]]), 1.0, -1.0, 0.0), [[0.0]])


class GeneralSweep(Exception):
    """Raised in place of an anti-diagonal sweep."""


class TestZeroGapSweeps:
    """The default scheme takes the zero-gap sweeps, all-pairs scores for
    every pair; any other gap, or a mismatch above 0, takes the
    anti-diagonal ones."""

    @pytest.fixture
    def log(self, rng):
        # Four codes: a trace of 5 events is as long as its masks.
        return random_log(rng, n_traces=12, min_len=5, max_len=70)

    @pytest.fixture(autouse=True)
    def general_sweeps_raise(self, monkeypatch):
        def refuse(*args):
            raise GeneralSweep

        monkeypatch.setattr(_kernels, "_nw_block", refuse)
        monkeypatch.setattr(_kernels, "_diagonal_fill", refuse)

    def test_default_scheme_takes_zero_gap_sweeps(self, log):
        assert DEFAULT_SCHEME.gap == 0.0
        pairwise_align(log.traces[0], log.traces[1])
        progressive_align(log)
        consensus_reference(log, k=3, seed=1)

    def test_short_traces_over_many_activities_take_zero_gap_sweeps(self, rng):
        # The shape of the correlate benchmark log: 15 traces of 9 to 12
        # events over 13 activities, each shorter than its match masks.
        log = random_log(rng, n_traces=15, min_len=9, max_len=12, alphabet=tuple("abcdefghijklm"))
        assert len(log.alphabet) == 13
        tracealign.distance_matrix(log)
        consensus_reference(log, k=3, seed=1)

    @pytest.mark.parametrize("gap", [-0.25, -0.0])
    def test_other_gaps_take_general_sweeps(self, log, gap):
        scheme = ScoringScheme(1.0, -1.0, gap)
        with pytest.raises(GeneralSweep):
            pairwise_align(log.traces[0], log.traces[1], scheme)
        with pytest.raises(GeneralSweep):
            _kernels.nw_scores(log.padded_codes, log.lengths, 1.0, -1.0, gap)
        tree = tracealign.build_guide_tree(tracealign.distance_matrix(log))
        with pytest.raises(GeneralSweep):
            progressive_align(log, scheme, tree)

    def test_positive_mismatch_takes_general_all_pairs_sweep(self, log):
        with pytest.raises(GeneralSweep):
            _kernels.nw_scores(log.padded_codes, log.lengths, 3.0, 1.0, 0.0)


# The two cost models ``runs`` cuts under: pairs of ``nw_scores`` and merge
# groups of ``progressive_align``.
COSTS = {"pairs": lambda k, a, b: k * (a + b + 1), "merges": lambda k, a, b: k * a * b}


def greedy_runs(la, lb, cells, cap):
    """The items sorted by (la, lb), each run closed before the item that
    would take its ``cells`` past ``cap``, costed from the run's own sides."""
    order = sorted(range(len(la)), key=lambda i: (la[i], lb[i]))
    out, run = [], []
    for i in order:
        grown = run + [i]
        if run and cells(len(grown), max(la[grown]), max(lb[grown])) > cap:
            out.append(run)
            run = [i]
        else:
            run = grown
    return out + [run] if run else out


class TestRuns:
    @settings(max_examples=300, deadline=None)
    @given(
        sides=st.lists(st.tuples(st.integers(1, 60), st.integers(1, 60)), max_size=120),
        cap=st.integers(1, 5000),
        cost=st.sampled_from(sorted(COSTS)),
    )
    def test_matches_a_greedy_cut_of_the_sorted_items(self, sides, cap, cost):
        la = np.array([a for a, _ in sides], dtype=np.int64)
        lb = np.array([b for _, b in sides], dtype=np.int64)
        cells = COSTS[cost]
        got = [run.tolist() for run in _kernels.runs(la, lb, cells, cap)]
        assert got == greedy_runs(la, lb, cells, cap)
        # The runs partition the sorted order, each within the budget unless
        # it is one item, and each would pass it with the next item added.
        assert sum(got, []) == np.lexsort((lb, la)).tolist()

        def cost_of(items):
            return cells(len(items), la[items].max(), lb[items].max())

        for run, after in zip(got, got[1:] + [[]]):
            assert len(run) == 1 or cost_of(run) <= cap
            assert not after or cost_of(run + after[:1]) > cap


class TestColumnCounts:
    def test_counts_gap_in_slot_zero(self):
        codes = np.array([[0, -1], [0, 1], [2, 1]], dtype=np.int64)
        counts = _kernels.column_counts(codes, 3)
        assert counts.shape == (2, 4)
        assert counts[0].tolist() == [0, 2, 0, 1]
        assert counts[1].tolist() == [1, 0, 2, 0]

    @pytest.mark.parametrize("shape", [(3, 0), (0, 0)])
    def test_grid_without_columns_gives_an_empty_table(self, shape):
        counts = _kernels.column_counts(np.zeros(shape, dtype=np.int64), 3)
        assert counts.shape == (0, 4)
        assert counts.dtype == np.int64

    def test_sps_from_counts_matches_hand_sum(self):
        # columns: [a,a,c] -> one match pair, two mismatch pairs
        #          [-,b,b] -> one match pair, two gap pairs
        codes = np.array([[0, -1], [0, 1], [2, 1]], dtype=np.int64)
        counts = _kernels.column_counts(codes, 3)
        assert _kernels.sps_from_counts(counts, 1.0, -1.0, 0.0) == 1 - 2 + 1
        assert _kernels.sps_from_counts(counts, 1.0, -1.0, -0.5) == 1 - 2 + 1 - 1.0

    def test_entropy_uniform_and_pure(self):
        counts = np.array([[4, 0, 0], [2, 2, 0], [1, 1, 2]])
        e = _kernels.entropy_per_column(counts)
        assert e[0] == 0.0
        assert e[1] == pytest.approx(1.0)
        assert e[2] == pytest.approx(1.5)

    def test_entropy_with_empty_cells_does_not_warn(self):
        counts = np.array([[4, 0, 0], [0, 2, 2], [0, 0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = _kernels.entropy_per_column(counts)
        assert e.tolist() == [0.0, 1.0, 0.0]


def test_backend_name_is_exposed():
    assert tracealign.BACKEND == "numpy"
