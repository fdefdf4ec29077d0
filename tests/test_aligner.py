import numpy as np
import pytest

from conftest import random_log
from oracles import (
    brute_force_best_score,
    consensus_oracle,
    distance_oracle,
    enumerate_alignment_scores,
    full_table_profile_fill,
    guide_tree_fold_oracle,
    guide_tree_leaves_oracle,
    guide_tree_oracle,
    traceback_oracle,
)
from test_kernels import NON_DYADIC, OVERFLOW, SCHEMES, ZERO_GAP_OVERFLOW
from tracealign import aligner as aligner_module
from tracealign import (
    DEFAULT_SCHEME,
    Alignment,
    EventLog,
    GuideTree,
    Profile,
    ScoringScheme,
    Trace,
    _kernels,
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


# Pair-score inputs: a non-zero gap; a gap of -0.0; a +0.0 gap whose
# negative match makes -0.0 scores; and one whose merges overflow.
PAIR_SCORE_SCHEMES = [(2.0, -0.5, -1.25), (2.0, -0.5, -0.0), (-1.0, -2.0, 0.0), ZERO_GAP_OVERFLOW]


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

    @pytest.mark.parametrize("scheme", SCHEMES + NON_DYADIC)
    def test_matches_per_pair_oracle(self, scheme):
        # Distances are computed per distinct variant; every trace pair of
        # the oracle is scored on its own.  Copies of a long variant sit
        # just above 0 under schemes whose match does not sum exactly.
        long = "xyz" * 5
        logs = [
            EventLog([trace(f"t{i}", "AB") for i in range(3)]),
            EventLog([trace(f"t{i}", long) for i in range(4)]),
            EventLog([trace(f"t{i}", labels) for i, labels in enumerate(["AB", "ABC", "BA", "CAB"])]),
            EventLog([trace(f"t{i}", labels) for i, labels in enumerate(["AB", "ABC", "AB", "ABC", "ABCAB"])]),
            EventLog([trace(f"t{i}", labels) for i, labels in enumerate([long, "xy", long, "xyz", long])]),
            random_log(np.random.default_rng(16), n_traces=12, max_len=4, alphabet=("a", "b")),
        ]
        for log in logs:
            got = distance_matrix(log, ScoringScheme(*scheme))
            assert np.array_equal(got, distance_oracle(log, *scheme))


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


def balanced_tree(rng: np.random.Generator, n: int) -> GuideTree:
    """Leaves in any order joined in pairs, level by level: many merges per level."""
    nodes = [GuideTree.leaf(int(i)) for i in rng.permutation(n)]
    while len(nodes) > 1:
        joined = [GuideTree.join(nodes[k], nodes[k + 1], 0.0) for k in range(0, len(nodes) - 1, 2)]
        nodes = joined + nodes[2 * len(joined) :]
    return nodes[0]


def chain_tree(rng: np.random.Generator, n: int) -> GuideTree:
    """Leaves in any order joined one at a time: one merge per level."""
    order = rng.permutation(n).tolist()
    tree = GuideTree.leaf(order[0])
    for i in order[1:]:
        # Odd leaves join on the right, even ones on the left.
        leaf = GuideTree.leaf(i)
        tree = GuideTree.join(tree, leaf, 0.0) if i % 2 else GuideTree.join(leaf, tree, 0.0)
    return tree


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

    def test_progressive_align_matches_recursive_fold_on_random_trees(self, monkeypatch):
        rng = np.random.default_rng(31)
        shapes = [random_tree, balanced_tree, chain_tree]
        # Group budgets at both extremes, one merge per group and a whole
        # level in one group, and the default.
        for level_blocks in (0, aligner_module._LEVEL_BLOCKS, 1 << 40):
            monkeypatch.setattr(aligner_module, "_LEVEL_BLOCKS", level_blocks)
            for scheme in [ScoringScheme(*s) for s in SCHEMES + NON_DYADIC + [OVERFLOW]]:
                for trial in range(6):
                    n = int(rng.integers(2, 13))
                    # Every other log has one activity per trace, so every leaf
                    # profile has one column.
                    max_len = 1 if trial % 2 else 6
                    log = random_log(rng, n_traces=n, min_len=1, max_len=max_len)
                    tree = shapes[trial % 3](rng, n)
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
        # Few distance values tie almost every step, before and after the
        # averaging updates.  Near the float64 limit the averaging
        # overflows to +inf, and once every distance left is +inf the
        # first two live clusters merge.
        rng = np.random.default_rng(41)
        for values in ((0.0, 0.5, 1.0), (0.0, 0.5, 1.0, 1e308, 1.7e308)):
            for _ in range(150):
                n = int(rng.integers(2, 16))
                upper = np.triu(rng.choice(values, size=(n, n)), 1)
                d = upper + upper.T
                before = d.copy()
                with np.errstate(over="ignore"):
                    assert tree_tuples(build_guide_tree(d)) == guide_tree_oracle(d)
                assert np.array_equal(d, before)

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
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^distance matrix must be finite$"):
                build_guide_tree(np.array([[0.0, bad], [bad, 0.0]]))
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
        # must carry the bits of the whole-matrix expression.  A zero gap
        # skips the gap faces: with -0.0 that keeps every bit, and with
        # +0.0 it may keep a -0.0 that the expression turns into +0.0, so
        # there only values compare, and the merge's alignment must be the
        # one the expression's scores give.  A column of gaps only, which
        # no fold makes, scores -0.0 under a negative match.
        monkeypatch.setattr(_kernels, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(21)
        for scheme in [ScoringScheme(*s) for s in PAIR_SCORE_SCHEMES]:
            for _ in range(10):
                log = random_log(rng, n_traces=6, min_len=3, max_len=12)
                leaves = [Profile.singleton(log, i) for i in range(5)]
                with np.errstate(over="ignore"):
                    p1 = align_profiles(leaves[0], leaves[1], scheme)
                    p23 = align_profiles(leaves[2], leaves[3], scheme)
                    p2 = align_profiles(p23, leaves[4], scheme)
                at = int(rng.integers(p1.length + 1))
                gapped = Profile(log, p1.members, np.insert(p1.grid, at, -1, axis=1))
                for first in (p1, gapped):
                    self.check_pair_scores(first, p2, scheme)

    @staticmethod
    def check_pair_scores(p1, p2, scheme):
        f1, f2 = p1.frequencies, p2.frequencies
        occ1, occ2 = f1[:, 1:].sum(axis=1), f2[:, 1:].sum(axis=1)
        same = f1[:, 1:] @ f2[:, 1:].T
        gap_faces = (np.outer(f1[:, 0], occ2) + np.outer(occ1, f2[:, 0])) * scheme.gap
        expected = (np.outer(occ1, occ2) - same) * scheme.mismatch + same * scheme.match
        expected += gap_faces
        s, ga, gb = aligner_module._column_pair_scores(p1, p2, scheme)
        assert np.array_equal(s, expected)
        if scheme.gap != 0 or np.signbit(scheme.gap):
            assert np.array_equal(s.view(np.int64), expected.view(np.int64))
        assert np.array_equal(ga, scheme.gap * occ1)
        assert np.array_equal(gb, scheme.gap * occ2)
        with np.errstate(over="ignore"):
            merged = align_profiles(p1, p2, scheme)
            _, table = full_table_profile_fill(expected, ga, gb)
        takes = [np.array(take, dtype=np.int64) for take in traceback_oracle(table)]
        sides = [np.concatenate([p.grid, np.full((len(p.members), 1), -1)], 1) for p in (p1, p2)]
        rows = [side[:, take] for side, take in zip(sides, takes)]
        assert np.array_equal(merged.grid, np.vstack(rows))

    def test_default_scheme_never_reads_gap_faces(self):
        # A NaN gap frequency poisons every score that adds a gap face, so
        # finite scores show the default scheme's zero gap skips them.
        log = random_log(np.random.default_rng(22), n_traces=4, min_len=3, max_len=12)
        p1 = align_profiles(Profile.singleton(log, 0), Profile.singleton(log, 1))
        p2 = align_profiles(Profile.singleton(log, 2), Profile.singleton(log, 3))
        for p in (p1, p2):
            p.frequencies[:, 0] = np.nan
        s, _, _ = aligner_module._column_pair_scores(p1, p2, DEFAULT_SCHEME)
        assert np.isfinite(s).all()
        s, _, _ = aligner_module._column_pair_scores(p1, p2, ScoringScheme(1.0, -1.0, -1.0))
        assert np.isnan(s).all()

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


def variant_shape(tree: GuideTree, log: EventLog):
    """The guide tree as nested pairs, each leaf read as its activities."""
    if tree.is_leaf:
        return log.traces[tree.index].activities
    return (variant_shape(tree.left, log), variant_shape(tree.right, log))


class TestConsensusSkip:
    """Candidates repeating an earlier tree's variant shape are skipped; the
    result must equal the loop that aligns and scores every candidate."""

    @staticmethod
    def assert_matches_oracle(log, k, seed):
        expected = consensus_oracle(log, ScoringScheme(), k, seed)[0]
        assert np.array_equal(consensus_reference(log, k=k, seed=seed).grid, expected.grid)

    @pytest.mark.parametrize("model", bundled_model_names())
    @pytest.mark.parametrize("n", [30, 150])
    def test_matches_oracle_on_models(self, model, n):
        self.assert_matches_oracle(generate_log(load_bundled_model(model), n, seed=7), 8, 0)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_matches_oracle_across_seeds(self, seed, k):
        self.assert_matches_oracle(generate_log(load_bundled_model("claims"), 30, seed=3), k, seed)

    def test_identical_traces(self):
        log = EventLog([trace(f"t{i}", "ABCAB") for i in range(12)])
        for seed in range(3):
            self.assert_matches_oracle(log, 8, seed)

    def test_distinct_candidate_after_skipped_one_wins(self):
        # Candidates 3, 4 and 5 repeat earlier shapes and candidate 7 wins,
        # so the skipped candidates' noise draws must still be taken.
        log = generate_log(load_bundled_model("onboarding"), 10, seed=2)
        _, winner, trees = consensus_oracle(log, ScoringScheme(), 8, 3)
        shapes = [variant_shape(tree, log) for tree in trees]
        skipped = [i for i in range(winner) if shapes[i] in shapes[:i]]
        assert winner == 7 and skipped == [3, 4, 5]
        self.assert_matches_oracle(log, 8, 3)

    def test_shape_keys_equal_iff_variant_shapes_equal(self):
        rng = np.random.default_rng(17)
        log = EventLog([trace(f"t{i}", labels) for i, labels in enumerate("AABBCA")])
        variants = aligner_module._variant_ids(log)
        assert variants.tolist() == [0, 0, 1, 1, 2, 0]
        seen: dict = {}
        for n in (2, 3, 6):
            for _ in range(200):
                tree = random_tree(rng, n)
                key = aligner_module._shape_key(tree, variants)
                assert seen.setdefault(repr(variant_shape(tree, log)), key) == key
        assert len(set(seen.values())) == len(seen)

    def test_shape_key_walks_a_deep_chain(self):
        log, tree = chain_log_and_tree(3000)
        key = aligner_module._shape_key(tree, aligner_module._variant_ids(log))
        # Leaf 0, then each later leaf followed by the join that takes it.
        assert len(key) == 5999
        assert key == (0,) + (0, -1) * 2999

    def test_aligns_each_distinct_shape_once(self, monkeypatch):
        log = generate_log(load_bundled_model("claims"), 30, seed=3)
        _, _, trees = consensus_oracle(log, ScoringScheme(), 8, 0)
        distinct = {repr(variant_shape(tree, log)) for tree in trees}
        calls = []

        def counted(*args):
            calls.append(args)
            return progressive_align(*args)

        monkeypatch.setattr(aligner_module, "progressive_align", counted)
        consensus_reference(log, k=8, seed=0)
        assert len(calls) == len(distinct) < 8


def test_progressive_roundtrips_strip_gaps():
    rng = np.random.default_rng(15)
    for _ in range(20):
        log = random_log(rng, n_traces=int(rng.integers(2, 6)))
        assert strip_gaps(progressive_align(log)) == log
