import itertools
import warnings

import numpy as np
import pytest

from tracealign import _kernels

from oracles import brute_force_best_score

SCHEMES = [(1.0, -1.0, 0.0), (2.0, -0.5, -0.25), (1.0, -1.0, -1.0)]


@pytest.fixture
def rng():
    return np.random.default_rng(60)


def random_codes(rng, max_len=9, alphabet=4):
    n = int(rng.integers(1, max_len + 1))
    return rng.integers(0, alphabet, size=n).astype(np.int64)


class TestBackendsAgree:
    """The selected backend and the pure-numpy path must match exactly,
    including traceback pointers (tie-breaking is part of the contract)."""

    def test_nw_fill(self, rng):
        for _ in range(40):
            a = random_codes(rng)
            b = random_codes(rng)
            h1, p1 = _kernels.nw_fill(a, b, 1.0, -1.0, 0.0)
            h2, p2 = _kernels._nw_fill_py(a, b, 1.0, -1.0, 0.0)
            assert np.array_equal(h1, h2)
            assert np.array_equal(p1, p2)

    def test_nw_fill_nonzero_gap_scheme(self, rng):
        for _ in range(20):
            a = random_codes(rng)
            b = random_codes(rng)
            h1, p1 = _kernels.nw_fill(a, b, 2.0, -0.5, -0.25)
            h2, p2 = _kernels._nw_fill_py(a, b, 2.0, -0.5, -0.25)
            assert np.array_equal(h1, h2)
            assert np.array_equal(p1, p2)

    def test_profile_fill(self, rng):
        for _ in range(20):
            la = int(rng.integers(1, 8))
            lb = int(rng.integers(1, 8))
            s = rng.normal(size=(la, lb))
            ga = rng.normal(size=la) * 0.1
            gb = rng.normal(size=lb) * 0.1
            h1, p1 = _kernels.profile_fill(s, ga, gb)
            h2, p2 = _kernels._profile_fill_py(s, ga, gb)
            assert np.array_equal(h1, h2)
            assert np.array_equal(p1, p2)

    def test_ms_pattern(self, rng):
        starts = np.array([[0, 2], [1, 0]], dtype=np.int64)
        n_starts = np.array([2, 1], dtype=np.int64)
        col_of = np.array([[0, 1, 2, 3, 4], [0, 2, 3, -1, -1]], dtype=np.int64)
        codes = np.array([[0, 1, 0, 1, 2], [2, -1, 0, 1, -1]], dtype=np.int64)
        in_pattern = np.array([True, True, False])
        args = (starts, n_starts, col_of, codes, 2, in_pattern)
        assert _kernels.ms_pattern(*args) == _kernels._ms_pattern_loops(*args)


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
    assert _kernels.BACKEND in ("numba", "numpy")
    assert _kernels.using_numba() == (_kernels.BACKEND == "numba")
