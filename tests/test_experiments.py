import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_log
from oracles import perturb_oracle
from tracealign import experiments
from tracealign import (
    ActivityBlock,
    Alignment,
    ChoiceBlock,
    EventLog,
    LoopBlock,
    ModelSpecError,
    ParallelBlock,
    ProcessModelSpec,
    SequenceBlock,
    Trace,
    UndefinedCorrelationError,
    bundled_model_names,
    consensus_reference,
    correlation_experiment,
    count_heuristic_errors,
    evaluate_alignment,
    extract_patterns,
    generate_log,
    load_bundled_model,
    pearson,
    perturb,
    progressive_align,
    strip_gaps,
    tf_ratio_sweep,
    validate_alignment,
)


def spearman(xs, ys):
    def ranks(values):
        order = np.argsort(values, kind="stable")
        out = np.empty(len(values), dtype=np.float64)
        i = 0
        values = np.asarray(values, dtype=np.float64)
        sorted_values = values[order]
        while i < len(values):
            j = i
            while j + 1 < len(values) and sorted_values[j + 1] == sorted_values[i]:
                j += 1
            out[order[i : j + 1]] = (i + j) / 2 + 1
            i = j + 1
        return out

    return pearson(ranks(xs), ranks(ys))


def lower_bound_alignment() -> Alignment:
    log = EventLog([Trace("t0", list("abcd")), Trace("t1", list("efg")), Trace("t2", list("hi"))])
    return Alignment.from_label_rows(
        log, [list("abcd"), ["e", "f", "g", "-"], ["h", "i", "-", "-"]]
    )


class TestPerturb:
    def test_zero_moves_is_identity(self):
        ref = lower_bound_alignment()
        for seed in range(5):
            assert perturb(ref, 0, seed).alignment == ref

    def test_one_move_relocates_one_occurrence(self):
        ref = lower_bound_alignment()
        result = perturb(ref, 1, seed=4).alignment
        changed = 0
        for i in range(ref.n_rows):
            for ordinal in range(len(ref.source.traces[i])):
                if ref.column_of[i, ordinal] != result.column_of[i, ordinal]:
                    changed += 1
        assert changed == 1
        assert strip_gaps(result) == strip_gaps(ref)

    def test_results_stay_valid_and_roundtrip(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            log = random_log(rng, n_traces=int(rng.integers(2, 6)))
            ref = progressive_align(log)
            moves = int(rng.integers(0, 12))
            result = perturb(ref, moves, int(rng.integers(1 << 30)))
            assert result.injected_moves == moves
            assert validate_alignment(result.alignment) == []
            assert strip_gaps(result.alignment) == log

    def test_deterministic_per_seed(self):
        ref = lower_bound_alignment()
        assert perturb(ref, 7, 123).alignment == perturb(ref, 7, 123).alignment

    def test_error_count_grows_with_moves(self):
        rng = np.random.default_rng(41)
        log = random_log(rng, n_traces=6, min_len=4, max_len=9)
        ref = progressive_align(log)
        moves = list(range(0, 30))
        errors = [
            count_heuristic_errors(perturb(ref, m, seed=1000 + m).alignment, ref) for m in moves
        ]
        assert spearman(moves, errors) > 0.8

    def test_rejects_negative_moves(self):
        with pytest.raises(ValueError):
            perturb(lower_bound_alignment(), -1)


@st.composite
def valid_alignments(draw):
    """Each trace's occurrences at sorted distinct columns, all-gap columns dropped."""
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    width = max(lengths) + draw(st.integers(0, 3))
    grid = np.full((len(lengths), width), -1, dtype=np.int64)
    for i, n in enumerate(lengths):
        columns = draw(st.lists(st.integers(0, width - 1), min_size=n, max_size=n, unique=True))
        grid[i, sorted(columns)] = np.arange(n)
    log = EventLog([Trace(f"t{i}", ["a"] * n) for i, n in enumerate(lengths)])
    return Alignment(log, grid[:, (grid >= 0).any(axis=0)])


@st.composite
def arbitrary_grids(draw):
    """Any int64 values: out-of-order and out-of-range ordinals, gaps other
    than -1, all-gap columns, zero columns and rows with no occupied cell."""
    n_rows = draw(st.integers(1, 4))
    width = draw(st.integers(0, 6))
    values = st.sampled_from([-1, -1, -1, -2, -(2**40), 0, 1, 2, 5, 2**63 - 1])
    cells = draw(st.lists(values, min_size=n_rows * width, max_size=n_rows * width))
    log = EventLog([Trace(f"t{i}", ["a"]) for i in range(n_rows)])
    return Alignment(log, np.array(cells, dtype=np.int64).reshape(n_rows, width))


@st.composite
def gapless_grids(draw):
    """Rows without gaps, so the first move inserts a column, at an edge when
    the picked cell sits there."""
    n_rows = draw(st.integers(1, 3))
    width = draw(st.integers(1, 3))
    log = EventLog([Trace(f"t{i}", ["a"] * width) for i in range(n_rows)])
    return Alignment(log, np.tile(np.arange(width), (n_rows, 1)))


def _outcome(run):
    try:
        grid = run()
    except Exception as exc:  # the oracle and perturb must fail alike
        return type(exc), str(exc)
    return grid.shape, grid.tolist()


@settings(max_examples=400, deadline=None)
@given(
    alignment=st.one_of(valid_alignments(), arbitrary_grids(), gapless_grids()),
    moves=st.integers(0, 25),
    seed=st.integers(0, 2**32 - 1),
)
def test_perturb_matches_grid_rescanning_oracle(alignment, moves, seed):
    expected = _outcome(lambda: perturb_oracle(alignment.grid, moves, seed))
    assert _outcome(lambda: perturb(alignment, moves, seed).alignment.grid) == expected


@pytest.mark.parametrize(
    "call",
    [
        lambda: perturb(lower_bound_alignment(), 0, seed=-1),
        lambda: perturb(lower_bound_alignment(), 3, seed=-1),
        lambda: generate_log(load_bundled_model("claims"), 3, seed=-1),
        lambda: consensus_reference(lower_bound_alignment().source, k=2, seed=-1),
    ],
    ids=["perturb-no-moves", "perturb", "generate_log", "consensus_reference"],
)
def test_negative_seed_is_named(call):
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        call()


def seq(*parts):
    return SequenceBlock(tuple(parts))


class TestGenerateLog:
    def test_sequence_is_deterministic_shape(self):
        spec = ProcessModelSpec("s", seq(ActivityBlock("a"), ActivityBlock("b"), ActivityBlock("c")))
        log = generate_log(spec, 10, seed=5)
        for trace in log.traces:
            assert trace.labels == ("a", "b", "c")

    def test_choice_frequencies_within_binomial_bounds(self):
        spec = ProcessModelSpec(
            "c", ChoiceBlock((ActivityBlock("a"), ActivityBlock("b")), (0.5, 0.5))
        )
        log = generate_log(spec, 1000, seed=6)
        n_a = sum(1 for t in log.traces if t.labels == ("a",))
        assert 440 <= n_a <= 560  # 3 sigma around 500

    def test_parallel_preserves_child_order(self):
        spec = ProcessModelSpec(
            "p", ParallelBlock((seq(ActivityBlock("a"), ActivityBlock("b")), ActivityBlock("c")))
        )
        log = generate_log(spec, 300, seed=7)
        seen_positions = set()
        for trace in log.traces:
            labels = list(trace.labels)
            assert sorted(labels) == ["a", "b", "c"]
            assert labels.index("a") < labels.index("b")
            seen_positions.add(labels.index("c"))
        assert seen_positions == {0, 1, 2}

    def test_loop_emits_at_least_once(self):
        spec = ProcessModelSpec("l", LoopBlock(ActivityBlock("a"), 0.6))
        log = generate_log(spec, 200, seed=8)
        lengths = [len(t) for t in log.traces]
        assert min(lengths) >= 1
        assert max(lengths) > 1

    def test_deterministic_per_seed(self):
        spec = load_bundled_model("triage")
        assert generate_log(spec, 20, seed=9) == generate_log(spec, 20, seed=9)
        assert generate_log(spec, 20, seed=9) != generate_log(spec, 20, seed=10)

    def test_case_ids_are_unique(self):
        spec = ProcessModelSpec("s", ActivityBlock("a"))
        log = generate_log(spec, 12, seed=1)
        assert len({t.case_id for t in log.traces}) == 12

    def test_rejects_zero_traces(self):
        spec = ProcessModelSpec("s", ActivityBlock("a"))
        with pytest.raises(ValueError):
            generate_log(spec, 0)


class TestModelSpec:
    def test_roundtrip_through_dict(self):
        spec = load_bundled_model("claims")
        assert ProcessModelSpec.from_dict(spec.to_dict()) == spec

    def test_choice_probabilities_must_sum_to_one(self):
        with pytest.raises(ModelSpecError, match="sum"):
            ProcessModelSpec(
                "bad", ChoiceBlock((ActivityBlock("a"), ActivityBlock("b")), (0.5, 0.4))
            )

    def test_nan_choice_probability_rejected(self):
        with pytest.raises(ModelSpecError, match="sum to nan"):
            ProcessModelSpec(
                "bad", ChoiceBlock((ActivityBlock("a"), ActivityBlock("b")), (float("nan"), 1.0))
            )

    def test_loop_probability_below_one(self):
        with pytest.raises(ModelSpecError):
            ProcessModelSpec("bad", LoopBlock(ActivityBlock("a"), 1.0))

    def test_unknown_version_rejected(self):
        spec = load_bundled_model("triage")
        data = spec.to_dict()
        data["version"] = 2
        with pytest.raises(ModelSpecError, match="version"):
            ProcessModelSpec.from_dict(data)


class TestBundledModels:
    def test_five_models_at_desk_scale(self):
        names = bundled_model_names()
        assert len(names) == 5
        for name in names:
            log = generate_log(load_bundled_model(name), 25, seed=2)
            assert 6 <= len(log.alphabet) <= 15

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_bundled_model("nope")


class TestPearson:
    def test_perfect_positive(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        xs = [1.0, 2.0, 3.0]
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_hand_computed_half(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2])


@pytest.fixture(scope="module")
def small_log():
    return generate_log(load_bundled_model("diagnostics"), 15, seed=3)


class TestCorrelationExperiment:
    def test_deterministic(self, small_log):
        a = correlation_experiment(small_log, samples=10, max_moves=12, seed=11, k=2)
        b = correlation_experiment(small_log, samples=10, max_moves=12, seed=11, k=2)
        assert a.coefficients == b.coefficients
        assert [(p.n_e, p.metrics) for p in a.samples] == [(p.n_e, p.metrics) for p in b.samples]

    def test_zero_max_moves_reports_undefined(self, small_log):
        report = correlation_experiment(small_log, samples=10, max_moves=0, seed=11, k=2)
        assert all(value is None for value in report.coefficients.values())
        assert all("zero variance" in note for note in report.notes.values())

    def test_expected_signs(self, small_log):
        report = correlation_experiment(small_log, samples=14, max_moves=25, seed=11, k=2)
        assert report.coefficients["oms"] > 0
        assert report.coefficients["ref_based_sps"] < 0
        assert report.coefficients["ref_free_sps"] < 0

    def test_sample_table_shape(self, small_log):
        report = correlation_experiment(small_log, samples=10, max_moves=10, seed=11, k=2)
        assert len(report.samples) == 10
        assert report.samples[0].moves == 0
        assert report.samples[0].n_e == 0
        assert report.samples[0].metrics["ref_based_sps"] == 1.0

    def test_requires_ten_samples(self, small_log):
        with pytest.raises(ValueError):
            correlation_experiment(small_log, samples=5)

    def test_unreachable_threshold_leaves_oms_undefined(self, small_log):
        report = correlation_experiment(
            small_log, samples=10, max_moves=12, tf_ratio=1.0, seed=11, k=2
        )
        assert all(p.metrics["oms"] is None for p in report.samples)
        assert report.coefficients["oms"] is None
        assert report.notes["oms"] == "metric undefined on some samples"
        assert report.coefficients["ref_based_sps"] is not None

    def test_one_activity_traces_leave_the_census_empty(self):
        log = EventLog([Trace("t0", ["a"]), Trace("t1", ["b"]), Trace("t2", ["a"])])
        with pytest.raises(ValueError, match="^pattern census is empty$"):
            correlation_experiment(log, samples=10, max_moves=3, seed=2, k=2)

    def test_reference_without_aligned_pairs_leaves_ref_based_sps_undefined(self):
        # No two traces share an activity, so the consensus pairs nothing.
        log = EventLog([Trace(f"t{i}", list(acts)) for i, acts in enumerate(("abc", "def", "ghi"))])
        report = correlation_experiment(log, samples=10, max_moves=6, seed=2, k=2)
        assert all(p.metrics["ref_based_sps"] is None for p in report.samples)
        assert report.coefficients["ref_based_sps"] is None
        assert report.notes["ref_based_sps"] == "metric undefined on some samples"
        assert all(p.metrics["column_score"] is not None for p in report.samples)
        assert report.coefficients["column_score"] is not None
        assert "column_score" not in report.notes

    @pytest.mark.parametrize("tf_ratio", [0.4, 0.2])
    def test_sample_metrics_are_evaluate_alignment_values(self, small_log, tf_ratio):
        samples, seed, k = 10, 11, 2
        report = correlation_experiment(
            small_log, samples=samples, max_moves=12, tf_ratio=tf_ratio, seed=seed, k=k
        )
        reference = consensus_reference(small_log, k=k, seed=seed)
        census = extract_patterns(small_log)
        seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(samples)]
        for point, sample_seed in zip(report.samples, seeds):
            sample = perturb(reference, point.moves, sample_seed).alignment
            expected = evaluate_alignment(sample, reference, tf_ratio=tf_ratio, census=census)
            assert point.metrics == expected.values()
            assert point.n_e == expected.n_e


def _sweep(log, tf_ratio=0.4, **kwargs):
    return tf_ratio_sweep(log, (tf_ratio,), **kwargs)


@pytest.mark.parametrize("study", [correlation_experiment, _sweep])
class TestStudyParameters:
    """Both studies reject bad parameters, naming them, before any alignment."""

    @pytest.fixture(autouse=True)
    def no_reference(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("consensus_reference ran before the parameters were checked")

        monkeypatch.setattr(experiments, "consensus_reference", fail)

    @pytest.mark.parametrize("samples", [3, 9, 0, -2])
    def test_rejects_fewer_than_ten_samples(self, study, small_log, samples):
        with pytest.raises(ValueError, match=f"^samples must be >= 10, got {samples}$"):
            study(small_log, samples=samples, max_moves=5)

    @pytest.mark.parametrize("max_moves", [-1, -30])
    def test_rejects_negative_max_moves(self, study, small_log, max_moves):
        with pytest.raises(ValueError, match=f"^max_moves must be >= 0, got {max_moves}$"):
            study(small_log, samples=10, max_moves=max_moves)

    @pytest.mark.parametrize("name", ["samples", "max_moves"])
    def test_rejects_counts_past_int64(self, study, small_log, name):
        counts = {"samples": 10, "max_moves": 5, name: 2**63}
        with pytest.raises(ValueError, match=rf"^{name} must be <= 2\*\*63 - 1, got {2**63}$"):
            study(small_log, **counts)

    @pytest.mark.parametrize("tf_ratio", [1.5, 0.0, -0.2])
    def test_rejects_tf_ratio_outside_the_unit_interval(self, study, small_log, tf_ratio):
        with pytest.raises(ValueError, match=rf"^tf_ratio must be in \(0, 1\], got {tf_ratio}$"):
            study(small_log, samples=10, max_moves=5, tf_ratio=tf_ratio)

    def test_rejects_negative_seed(self, study, small_log):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            study(small_log, samples=10, max_moves=5, seed=-1)


class TestTfRatioSweep:
    def test_sweep_is_deterministic_and_defined_below_one(self):
        log = generate_log(load_bundled_model("onboarding"), 12, seed=4)
        ratios = (0.2, 0.4, 1.0)
        a = tf_ratio_sweep(log, ratios, samples=10, max_moves=15, seed=12, k=2)
        b = tf_ratio_sweep(log, ratios, samples=10, max_moves=15, seed=12, k=2)
        assert a == b
        assert a[0.2] is not None
        assert a[0.4] is not None
        # Strict eligibility makes the threshold at f_max unreachable.
        assert a[1.0] is None

    def test_matches_correlation_experiment_at_same_ratio(self):
        log = generate_log(load_bundled_model("checkout"), 12, seed=5)
        sweep = tf_ratio_sweep(log, (0.4,), samples=10, max_moves=15, seed=13, k=2)
        report = correlation_experiment(
            log, samples=10, max_moves=15, tf_ratio=0.4, seed=13, k=2
        )
        assert sweep[0.4] == report.coefficients["oms"]

    @pytest.mark.parametrize("ratio", [0.0, -0.2, 1.5])
    def test_rejects_ratios_the_metric_rejects(self, ratio):
        log = generate_log(load_bundled_model("checkout"), 12, seed=5)
        with pytest.raises(ValueError, match=r"tf_ratio must be in \(0, 1\], got"):
            tf_ratio_sweep(log, (0.4, ratio), samples=10, max_moves=15, seed=13, k=2)

    def test_rejects_empty_ratios(self):
        log = generate_log(load_bundled_model("checkout"), 12, seed=5)
        with pytest.raises(ValueError, match="at least one tf ratio"):
            tf_ratio_sweep(log, (), samples=10, max_moves=15, seed=13, k=2)
