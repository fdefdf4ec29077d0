import itertools
import warnings

import numpy as np
import pytest

import tracealign
from conftest import random_log
from oracles import (
    _path_templates,
    brute_force_best_score,
    full_table_profile_fill,
    misalignment_oracle,
)
from tracealign import _kernels, extract_patterns, progressive_align
from tracealign.experiments import perturb
from tracealign.metrics import misalignment_score

SCHEMES = [(1.0, -1.0, 0.0), (2.0, -0.5, -0.25), (1.0, -1.0, -1.0)]


@pytest.fixture
def rng():
    return np.random.default_rng(60)


class TestNwFill:
    """The pairwise DP against the frozen full-table fill and against every
    alignment path."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_full_table_fill(self, rng, scheme):
        match, mismatch, gap = scheme
        for _ in range(100):
            la, lb = (int(n) for n in rng.integers(0, 12, size=2))
            a = rng.integers(0, 3, size=la)
            b = rng.integers(0, 3, size=lb)
            sub = np.where(a[:, None] == b[None, :], match, mismatch)
            h, ptr = _kernels.nw_fill(a, b, *scheme)
            expected_h, expected_ptr = full_table_profile_fill(
                sub, np.full(la, gap), np.full(lb, gap)
            )
            assert np.array_equal(h, expected_h)
            assert np.array_equal(ptr, expected_ptr)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_brute_force_on_every_small_pair(self, scheme):
        sequences = [
            np.array(seq, dtype=np.int64)
            for n in range(5)
            for seq in itertools.product(range(3), repeat=n)
        ]
        for a, b in itertools.combinations_with_replacement(sequences, 2):
            best = brute_force_best_score(a, b, *scheme)
            assert _kernels.nw_fill(a, b, *scheme)[0][-1, -1] == best
            assert _kernels.nw_fill(b, a, *scheme)[0][-1, -1] == best


class TestProfileFill:
    """The rolling-diagonal profile DP against a full-table fill and against
    every alignment path."""

    def test_pointers_match_full_table_fill(self, rng):
        for trial in range(60):
            la, lb = (int(n) for n in rng.integers(0, 13, size=2))
            if trial % 2:
                # Integer scores force ties, so the tie-break is compared too.
                s = rng.integers(-2, 3, size=(la, lb)).astype(np.float64)
                ga = -rng.integers(0, 2, size=la).astype(np.float64)
                gb = -rng.integers(0, 2, size=lb).astype(np.float64)
            else:
                s = rng.normal(size=(la, lb))
                ga = rng.normal(size=la) * 0.1
                gb = rng.normal(size=lb) * 0.1
            _, expected = full_table_profile_fill(s, ga, gb)
            assert np.array_equal(_kernels.profile_fill(s, ga, gb), expected)

    def test_traced_path_scores_the_best_path(self, rng):
        for la, lb in itertools.product(range(6), repeat=2):
            # Quarter-integer scores keep every sum exact in float64.
            s = rng.integers(-8, 9, size=(la, lb)) / 4.0
            ga = -rng.integers(0, 5, size=la) / 4.0
            gb = -rng.integers(0, 5, size=lb) / 4.0
            first, second = _kernels.traceback(_kernels.profile_fill(s, ga, gb))
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
    """Misalignment scoring against the per-pair oracle."""

    @pytest.mark.parametrize("moves", [0, 3, 10])
    @pytest.mark.parametrize("block_cells", [None, 8])
    def test_matches_oracle_on_every_census_pattern(self, monkeypatch, moves, block_cells):
        if block_cells is not None:
            # A tiny budget splits the rows of every pattern into blocks.
            monkeypatch.setattr(_kernels, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(70 + moves)
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
            for pattern, _ in extract_patterns(log).items():
                expected = misalignment_oracle(alignment, pattern)
                assert misalignment_score(alignment, pattern) == expected


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

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_pairwise_fill_across_blocks(self, rng, monkeypatch, scheme):
        # A small budget splits the pairs into many blocks of unequal shapes.
        monkeypatch.setattr(_kernels, "_BLOCK_CELLS", 200)
        sequences = [rng.integers(0, 4, size=int(n)) for n in rng.integers(0, 31, size=40)]
        sequences += [np.zeros(0, dtype=np.int64), rng.integers(0, 4, size=30)]
        scores = _kernels.nw_scores(*pad(sequences), *scheme)
        for i, j in itertools.combinations(range(len(sequences)), 2):
            h, _ = _kernels.nw_fill(sequences[i], sequences[j], *scheme)
            assert scores[i, j] == h[-1, -1]

    def test_symmetric_with_zero_diagonal(self, rng):
        sequences = [rng.integers(0, 3, size=int(n)) for n in rng.integers(0, 12, size=15)]
        scores = _kernels.nw_scores(*pad(sequences), 1.0, -1.0, -1.0)
        assert np.array_equal(scores, scores.T)
        assert not np.diagonal(scores).any()

    def test_fewer_than_two_sequences(self):
        assert _kernels.nw_scores(*pad([]), 1.0, -1.0, 0.0).shape == (0, 0)
        assert np.array_equal(_kernels.nw_scores(*pad([[0, 1]]), 1.0, -1.0, 0.0), [[0.0]])


class TestColumnCounts:
    def test_counts_gap_in_slot_zero(self):
        codes = np.array([[0, -1], [0, 1], [2, 1]], dtype=np.int64)
        counts = _kernels.column_counts(codes, 3)
        assert counts.shape == (2, 4)
        assert counts[0].tolist() == [0, 2, 0, 1]
        assert counts[1].tolist() == [1, 0, 2, 0]

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
