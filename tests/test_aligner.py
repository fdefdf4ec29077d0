import numpy as np
import pytest

from conftest import random_log
from oracles import (
    brute_force_best_score,
    enumerate_alignment_scores,
    guide_tree_fold_oracle,
    guide_tree_leaves_oracle,
    guide_tree_oracle,
)
from tracealign import aligner as aligner_module
from tracealign import (
    Alignment,
    EventLog,
    GuideTree,
    Profile,
    ScoringScheme,
    Trace,
    align_profiles,
    alignment_complexity,
    build_guide_tree,
    bundled_model_names,
    consensus_reference,
    distance_matrix,
    generate_log,
    load_bundled_model,
    pairwise_align,
    progressive_align,
    ref_free_sps,
    strip_gaps,
    validate_alignment,
)


def trace(cid, labels):
    return Trace(cid, list(labels))


def column_rule_score(alignment: Alignment, scheme: ScoringScheme) -> float:
    """Recompute a 2-row alignment's score column by column."""
    total = 0.0
    for j in range(alignment.length):
        x = alignment.label_at(0, j)
        y = alignment.label_at(1, j)
        if x == "-" and y == "-":
            continue
        if x == "-" or y == "-":
            total += scheme.gap
        elif x == y:
            total += scheme.match
        else:
            total += scheme.mismatch
    return total


class TestScoringScheme:
    def test_defaults(self):
        s = ScoringScheme()
        assert (s.match, s.mismatch, s.gap) == (1.0, -1.0, 0.0)

    def test_match_must_beat_mismatch(self):
        with pytest.raises(ValueError, match="degenerate"):
            ScoringScheme(match=0.0, mismatch=0.0)

    @pytest.mark.parametrize("field", ["match", "mismatch", "gap"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_scores_must_be_finite(self, field, value):
        scores = {"match": 1.0, "mismatch": -1.0, "gap": 0.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} score must be finite, got {value}$"):
            ScoringScheme(**scores)


class TestPairwiseAlign:
    def test_identical_traces_align_without_gaps(self):
        a, score = pairwise_align(trace("x", "ABC"), trace("y", "ABC"))
        assert score == 3.0
        assert a.length == 3
        assert (a.grid >= 0).all()

    def test_gapping_beats_mismatching(self):
        # (A,B) vs (A,C): the mismatch route scores 0, gapping B and C
        # scores 1; the DP must find 1.
        t1, t2 = trace("x", "AB"), trace("y", "AC")
        a, score = pairwise_align(t1, t2)
        assert score == 1.0
        all_scores = enumerate_alignment_scores([0, 1], [0, 2])
        assert max(all_scores) == 1.0
        assert column_rule_score(a, ScoringScheme()) == score

    def test_single_mismatch_prefers_gaps(self):
        # (A) vs (B): mismatch scores -1, two gap columns score 0.
        _, score = pairwise_align(trace("x", "A"), trace("y", "B"))
        assert score == 0.0
        assert max(enumerate_alignment_scores([0], [1])) == 0.0

    def test_alignment_is_valid_and_score_matches_columns(self):
        rng = np.random.default_rng(5)
        scheme = ScoringScheme()
        for _ in range(50):
            log = random_log(rng, n_traces=2, min_len=1, max_len=7)
            a, score = pairwise_align(log.traces[0], log.traces[1], scheme)
            assert validate_alignment(a) == []
            assert column_rule_score(a, scheme) == pytest.approx(score)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            log = random_log(rng, n_traces=2, min_len=1, max_len=5, alphabet=("a", "b", "c"))
            a, score = pairwise_align(log.traces[0], log.traces[1])
            codes = log.trace_codes
            expected = brute_force_best_score(codes[0], codes[1], 1.0, -1.0, 0.0)
            assert score == pytest.approx(expected)

    def test_shared_case_id_rejected(self):
        with pytest.raises(ValueError, match="case id"):
            pairwise_align(trace("x", "A"), trace("x", "B"))


class TestDistanceMatrix:
    def test_identical_traces_have_zero_distance(self):
        log = EventLog([trace("x", "ABAB"), trace("y", "ABAB")])
        d = distance_matrix(log)
        assert d[0, 1] == 0.0

    def test_disjoint_alphabets_have_distance_one(self):
        log = EventLog([trace("x", "AA"), trace("y", "BB")])
        d = distance_matrix(log)
        assert d[0, 1] == 1.0

    def test_prefix_pair(self):
        # (A,B,C) vs (A,B): score 2 over ceiling 2.
        log = EventLog([trace("x", "ABC"), trace("y", "AB")])
        d = distance_matrix(log)
        assert d[0, 1] == 0.0

    def test_symmetric_zero_diagonal_in_range(self):
        rng = np.random.default_rng(7)
        log = random_log(rng, n_traces=6)
        d = distance_matrix(log)
        assert np.array_equal(d, d.T)
        assert (np.diagonal(d) == 0).all()
        assert ((d >= 0) & (d <= 1)).all()

    def test_needs_two_traces(self):
        with pytest.raises(ValueError):
            distance_matrix(EventLog([trace("x", "A")]))


def tree_tuples(tree: GuideTree):
    """A guide tree as the oracle's nested ``(left, right, distance)`` tuples."""
    if tree.is_leaf:
        return tree.index
    return (tree_tuples(tree.left), tree_tuples(tree.right), tree.distance)


def random_tree(rng: np.random.Generator, n: int) -> GuideTree:
    """A guide tree of any shape over leaves 0..n-1 in any order."""
    nodes = [GuideTree.leaf(int(i)) for i in rng.permutation(n)]
    while len(nodes) > 1:
        i, j = (int(k) for k in rng.choice(len(nodes), size=2, replace=False))
        joined = GuideTree.join(nodes[i], nodes[j], float(rng.random()))
        nodes = [node for k, node in enumerate(nodes) if k not in (i, j)] + [joined]
    return nodes[0]


def chain_log_and_tree(n: int) -> tuple[EventLog, GuideTree]:
    """``n`` identical traces and the chain their tree becomes: each joins at
    distance 0 on the right, so the tree is ``n - 1`` levels deep."""
    log = EventLog([trace(f"c{i}", "ab") for i in range(n)])
    tree = GuideTree.leaf(0)
    for i in range(1, n):
        tree = GuideTree.join(tree, GuideTree.leaf(i), 0.0)
    return log, tree


class TestGuideTreeWalk:
    def test_leaves_match_recursive_oracle_on_random_trees(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            tree = random_tree(rng, int(rng.integers(1, 13)))
            assert tree.leaves() == guide_tree_leaves_oracle(tree)

    def test_progressive_align_matches_recursive_fold_on_random_trees(self):
        rng = np.random.default_rng(31)
        scheme = ScoringScheme(2.0, -1.0, -0.5)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            log = random_log(rng, n_traces=n, min_len=1, max_len=6)
            tree = random_tree(rng, n)
            root = guide_tree_fold_oracle(
                tree,
                lambda i: Profile.singleton(log, i),
                lambda left, right: align_profiles(left, right, scheme),
            )
            expected = np.full((n, root.length), -1)
            expected[list(root.members)] = root.grid
            assert np.array_equal(progressive_align(log, scheme, tree).grid, expected)

    def test_chain_deeper_than_recursion_limit(self):
        log, tree = chain_log_and_tree(2000)
        assert tree.leaves() == list(range(2000))
        a = progressive_align(log, tree=tree)
        assert a.length == 2
        assert (a.grid == [0, 1]).all()

    def test_identical_traces_build_a_chain(self):
        log, chain = chain_log_and_tree(40)
        assert build_guide_tree(distance_matrix(log)) == chain


class TestGuideTree:
    def test_two_leaves(self):
        t = build_guide_tree(np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert not t.is_leaf
        assert t.left.index == 0
        assert t.right.index == 1
        assert t.distance == 0.5

    def test_closest_pair_merges_first(self):
        d = np.array(
            [
                [0.0, 0.1, 0.9],
                [0.1, 0.0, 0.9],
                [0.9, 0.9, 0.0],
            ]
        )
        t = build_guide_tree(d)
        assert sorted(t.left.leaves()) == [0, 1]
        assert t.right.leaves() == [2]

    def test_all_equal_distances_use_min_leaf_tie_break(self):
        # With every distance tied, the (min-left-leaf, min-right-leaf)
        # tie-break merges (0,1), then joins 2, then 3.
        d = np.full((4, 4), 0.5)
        np.fill_diagonal(d, 0.0)
        t = build_guide_tree(d)
        assert t.leaves() == [0, 1, 2, 3]
        assert t.right.leaves() == [3]
        assert t.left.right.leaves() == [2]
        assert t.left.left.leaves() == [0, 1]

    def test_matches_oracle_on_tie_heavy_matrices(self):
        # Three distance values tie almost every step, before and after
        # the averaging updates.
        rng = np.random.default_rng(41)
        for _ in range(150):
            n = int(rng.integers(2, 16))
            upper = np.triu(rng.choice([0.0, 0.5, 1.0], size=(n, n)), 1)
            d = upper + upper.T
            assert tree_tuples(build_guide_tree(d)) == guide_tree_oracle(d)

    @pytest.mark.parametrize("model", bundled_model_names())
    def test_matches_oracle_on_model_distances(self, model):
        # Repeated variants put many exact ties at 0; the noisy copy is
        # the kind of matrix consensus_reference builds its candidates from.
        d = distance_matrix(generate_log(load_bundled_model(model), 30, seed=3))
        noise = np.triu(np.random.default_rng(7).uniform(0.9, 1.1, d.shape), 1)
        for matrix in (d, d * (noise + noise.T)):
            assert tree_tuples(build_guide_tree(matrix)) == guide_tree_oracle(matrix)

    def test_rejects_malformed_matrices(self):
        with pytest.raises(ValueError):
            build_guide_tree(np.zeros((1, 1)))
        with pytest.raises(ValueError, match="symmetric"):
            build_guide_tree(np.array([[0.0, 0.2], [0.3, 0.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            build_guide_tree(np.array([[0.1, 0.2], [0.2, 0.0]]))


class TestAlignProfiles:
    def test_singleton_merge_equals_pairwise(self):
        rng = np.random.default_rng(8)
        scheme = ScoringScheme()
        for _ in range(50):
            log = random_log(rng, n_traces=2, min_len=1, max_len=7)
            pair_alignment, pair_score = pairwise_align(log.traces[0], log.traces[1], scheme)
            merged = align_profiles(
                Profile.singleton(log, 0), Profile.singleton(log, 1), scheme
            )
            assert np.array_equal(merged.grid, pair_alignment.grid)
            two_row = Alignment(log, merged.grid)
            assert ref_free_sps(two_row, scheme) == pytest.approx(pair_score)

    @pytest.mark.parametrize("block_cells", [1, 7, 1 << 16])
    def test_blocked_pair_scores_equal_whole_matrix_formula(self, monkeypatch, block_cells):
        # The scores are written one block of rows at a time; every cell
        # must carry the bits of the whole-matrix expression.
        monkeypatch.setattr(aligner_module, "_SCORE_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(21)
        scheme = ScoringScheme(2.0, -0.5, -1.25)
        for _ in range(10):
            log = random_log(rng, n_traces=6, min_len=3, max_len=12)
            p1 = align_profiles(Profile.singleton(log, 0), Profile.singleton(log, 1), scheme)
            p2 = align_profiles(
                align_profiles(Profile.singleton(log, 2), Profile.singleton(log, 3), scheme),
                Profile.singleton(log, 4), scheme,
            )
            f1, f2 = p1.frequencies, p2.frequencies
            occ1, occ2 = f1[:, 1:].sum(axis=1), f2[:, 1:].sum(axis=1)
            same = f1[:, 1:] @ f2[:, 1:].T
            gap_faces = (np.outer(f1[:, 0], occ2) + np.outer(occ1, f2[:, 0])) * scheme.gap
            expected = (np.outer(occ1, occ2) - same) * scheme.mismatch + same * scheme.match
            expected += gap_faces
            s, ga, gb = aligner_module._column_pair_scores(p1, p2, scheme)
            assert np.array_equal(s, expected)
            assert np.array_equal(ga, scheme.gap * occ1)
            assert np.array_equal(gb, scheme.gap * occ2)

    def test_identical_gapless_profiles_add_no_gaps(self):
        log = EventLog([trace("x", "ABC"), trace("y", "ABC")])
        merged = align_profiles(Profile.singleton(log, 0), Profile.singleton(log, 1))
        assert merged.length == 3
        assert (merged.grid >= 0).all()

    def test_new_trace_joins_existing_column_of_its_type(self):
        # Merging the {0,1} profile with the singleton for (C) must put
        # that C into the column already holding the other C's.
        log = EventLog([trace("x", "ABC"), trace("y", "AC"), trace("z", "C")])
        p01 = align_profiles(Profile.singleton(log, 0), Profile.singleton(log, 1))
        merged = align_profiles(p01, Profile.singleton(log, 2))
        a = progressive_align(log, tree=GuideTree.join(
            GuideTree.join(GuideTree.leaf(0), GuideTree.leaf(1), 0.0), GuideTree.leaf(2), 0.0
        ))
        c_columns = set()
        for i in range(a.n_rows):
            for j in range(a.length):
                if a.label_at(i, j) == "C":
                    c_columns.add(j)
        assert len(c_columns) == 1
        assert merged.grid.shape[0] == 3

    def test_member_overlap_rejected(self):
        log = EventLog([trace("x", "A"), trace("y", "B")])
        p = Profile.singleton(log, 0)
        with pytest.raises(ValueError, match="share members"):
            align_profiles(p, Profile.singleton(log, 0))

    def test_frequencies_sum_to_one(self):
        rng = np.random.default_rng(9)
        log = random_log(rng, n_traces=4)
        a = progressive_align(log)
        profile = Profile(log, range(len(log)), a.grid)
        assert np.allclose(profile.frequencies.sum(axis=1), 1.0, atol=1e-12)


class TestProgressiveAlign:
    def test_identical_traces_align_gapless_at_lower_bound(self):
        log = EventLog([trace(f"t{i}", "ABCA") for i in range(4)])
        a = progressive_align(log)
        assert a.length == 4
        assert (a.grid >= 0).all()
        result = alignment_complexity(a)
        assert result.value == result.lower_bound

    def test_output_is_valid_and_deterministic(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            log = random_log(rng, n_traces=int(rng.integers(2, 7)))
            a = progressive_align(log)
            b = progressive_align(log)
            assert validate_alignment(a) == []
            assert a == b

    def test_same_type_columns_for_subsequence_family(self):
        # Traces drawn as subsequences of one ordering: every activity
        # type ends up in exactly one column.
        log = EventLog(
            [
                trace("c1", "ABCD"),
                trace("c2", "ACD"),
                trace("c3", "ABD"),
                trace("c4", "BCD"),
                trace("c5", "ABC"),
            ]
        )
        a = progressive_align(log)
        assert a.length == 4
        for j in range(a.length):
            types = {a.label_at(i, j) for i in range(a.n_rows)} - {"-"}
            assert len(types) == 1

    def test_needs_two_traces(self):
        with pytest.raises(ValueError):
            progressive_align(EventLog([trace("x", "A")]))


class TestConsensusReference:
    def test_k1_equals_progressive(self):
        rng = np.random.default_rng(11)
        log = random_log(rng, n_traces=5)
        assert consensus_reference(log, k=1, seed=3) == progressive_align(log)

    def test_identical_traces_stay_gapless(self):
        log = EventLog([trace(f"t{i}", "ABC") for i in range(3)])
        a = consensus_reference(log, k=5, seed=1)
        assert (a.grid >= 0).all()

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(12)
        log = random_log(rng, n_traces=6)
        a = consensus_reference(log, k=6, seed=42)
        b = consensus_reference(log, k=6, seed=42)
        assert a == b

    def test_never_worse_than_plain_progressive(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            log = random_log(rng, n_traces=int(rng.integers(3, 7)))
            base = ref_free_sps(progressive_align(log))
            best = ref_free_sps(consensus_reference(log, k=5, seed=7))
            assert best >= base

    def test_rejects_bad_k(self):
        rng = np.random.default_rng(14)
        log = random_log(rng, n_traces=3)
        with pytest.raises(ValueError):
            consensus_reference(log, k=0)


def test_progressive_roundtrips_strip_gaps():
    rng = np.random.default_rng(15)
    for _ in range(20):
        log = random_log(rng, n_traces=int(rng.integers(2, 6)))
        assert strip_gaps(progressive_align(log)) == log
