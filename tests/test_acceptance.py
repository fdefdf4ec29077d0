"""Acceptance suite: one test per criterion, each recording a summary line.

Statistical criteria run on the five bundled process models with
pre-registered seeds; nothing here re-tunes parameters per run.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import record_criterion, random_log
from oracles import aligned_pairs, brute_force_best_score, three_way_optimum
from tracealign import (
    Alignment,
    EventLog,
    Trace,
    alignment_complexity,
    column_score,
    correlation_experiment,
    count_heuristic_errors,
    extract_patterns,
    generate_log,
    load_bundled_model,
    misalignment_score,
    overall_information_score,
    overall_misalignment_score,
    pairwise_align,
    perturb,
    progressive_align,
    ref_based_sps,
    ref_free_sps,
    strip_gaps,
    tf_ratio_sweep,
    validate_alignment,
)
from tracealign.cli import main
from tracealign.formats import read_alignment, read_log

# Pre-registered experiment setup for criteria 8 and 9: model name -> log seed.
STUDY_SEEDS = {"triage": 11, "claims": 7, "checkout": 7, "onboarding": 7, "diagnostics": 11}
STUDY_TRACES = 30


def aligned(rows):
    log = EventLog(
        [Trace(f"t{i}", [s for s in row if s != "-"]) for i, row in enumerate(rows)]
    )
    return Alignment.from_label_rows(log, rows)


def lower_bound_alignment():
    return aligned(
        [
            ["a", "b", "c", "d"],
            ["e", "f", "g", "-"],
            ["h", "i", "-", "-"],
        ]
    )


def staircase_alignment():
    labels = list("abcdefghi")
    rows = []
    start = 0
    for n in (4, 3, 2):
        row = ["-"] * 9
        for k in range(n):
            row[start + k] = labels[start + k]
        rows.append(row)
        start += n
    return aligned(rows)


def test_criterion_1_complexity_bound_exactness():
    start = time.perf_counter()
    lower = alignment_complexity(lower_bound_alignment())
    upper = alignment_complexity(staircase_alignment())
    elapsed = time.perf_counter() - start
    ok = (
        lower.value == 0.25
        and lower.lower_bound == 0.25
        and abs(upper.value - 2 / 3) < 1e-12
        and abs(upper.upper_bound - 2 / 3) < 1e-12
        and elapsed < 1.0
    )
    record_criterion(
        "1 complexity bound exactness",
        ok,
        f"lower={lower.value}, upper={upper.value:.12f}, {elapsed:.3f}s",
    )
    assert ok


def test_criterion_2_complexity_bounds_universal():
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    alphabets = [tuple("ab"), tuple("abc"), tuple("abcd"), tuple("abcde")]
    checked = 0
    for i in range(1000):
        log = random_log(
            rng,
            n_traces=int(rng.integers(2, 7)),
            min_len=1,
            max_len=8,
            alphabet=alphabets[i % len(alphabets)],
        )
        base = progressive_align(log)
        variants = [base]
        for _ in range(2):
            moves = int(rng.integers(0, 16))
            variants.append(perturb(base, moves, int(rng.integers(1 << 30))).alignment)
        for a in variants:
            result = alignment_complexity(a)
            assert result.lower_bound - 1e-12 <= result.value <= result.upper_bound + 1e-12
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 3000 and elapsed < 30.0
    record_criterion(
        "2 complexity bounds universal", ok, f"{checked} alignments, {elapsed:.1f}s"
    )
    assert ok


def test_criterion_3_ois_splitting_pathology():
    start = time.perf_counter()
    compact = aligned(
        [
            ["a", "b", "c"],
            ["a", "b", "c"],
            ["a", "-", "c"],
            ["a", "-", "c"],
        ]
    )
    split = aligned(
        [
            ["a", "b", "-", "c"],
            ["a", "-", "b", "c"],
            ["a", "-", "-", "c"],
            ["a", "-", "-", "c"],
        ]
    )
    ois_compact = overall_information_score(compact)
    ois_split = overall_information_score(split)
    # Independent entropy arithmetic: E_max = log2(3+1) = 2; the compact
    # middle column has entropy 1; each split B column has a 1/4-3/4 mix.
    expected_compact = 1 - 1 / (2 * 3)
    e_b = -0.25 * math.log2(0.25) - 0.75 * math.log2(0.75)
    expected_split = 1 - (2 * e_b) / (2 * 4)
    elapsed = time.perf_counter() - start
    ok = (
        abs(ois_compact - expected_compact) < 1e-9
        and abs(ois_split - expected_split) < 1e-9
        and abs(expected_compact - 0.8333) < 5e-5
        and abs(expected_split - 0.7972) < 5e-5
        and ois_compact > ois_split
        and elapsed < 1.0
    )
    record_criterion(
        "3 ois splitting pathology",
        ok,
        f"compact={ois_compact:.6f} > split={ois_split:.6f}, {elapsed:.3f}s",
    )
    assert ok


def test_criterion_4_column_score_insensitivity():
    start = time.perf_counter()
    ref = aligned(
        [
            ["a", "b", "-"],
            ["a", "b", "-"],
            ["a", "b", "-"],
            ["-", "-", "c"],
        ]
    )
    one_misaligned = Alignment.from_label_rows(
        ref.source,
        [
            ["a", "b", "-"],
            ["a", "b", "-"],
            ["a", "-", "b"],
            ["-", "-", "c"],
        ],
    )
    two_misaligned = Alignment.from_label_rows(
        ref.source,
        [
            ["a", "b", "-"],
            ["a", "-", "b"],
            ["a", "-", "b"],
            ["-", "-", "c"],
        ],
    )
    cs_one = column_score(one_misaligned, ref)
    cs_two = column_score(two_misaligned, ref)
    elapsed = time.perf_counter() - start
    ok = cs_one == cs_two and elapsed < 1.0
    record_criterion(
        "4 column score insensitivity", ok, f"both {cs_one:.4f}, {elapsed:.3f}s"
    )
    assert ok


def _co_alignment_witness(alignment, pattern_codes):
    """Independent check that a pattern is fully co-aligned: equal instance
    counts per trace, matching start columns, and every faced symbol is a
    pattern activity."""
    log = alignment.source
    pattern_set = set(pattern_codes.tolist())
    starts = []
    for codes in log.trace_codes:
        if codes.size < pattern_codes.size:
            starts.append([])
            continue
        windows = np.lib.stride_tricks.sliding_window_view(codes, pattern_codes.size)
        starts.append(np.nonzero((windows == pattern_codes).all(axis=1))[0].tolist())
    counts = {len(s) for s in starts}
    if len(counts) != 1:
        return False
    for k in range(counts.pop()):
        columns = set()
        for i, trace_starts in enumerate(starts):
            q = trace_starts[k]
            columns.add(int(alignment.column_of[i, q]))
            for u in range(pattern_codes.size):
                col = int(alignment.column_of[i, q + u])
                for other in range(alignment.n_rows):
                    symbol = int(alignment.codes[other, col])
                    if symbol < 0 or symbol not in pattern_set:
                        return False
        if len(columns) != 1:
            return False
    return True


def test_criterion_5_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    checked = 0
    co_aligned_checks = 0
    pair_free = 0
    for i in range(200):
        if i % 2 == 0:
            log = random_log(rng, n_traces=int(rng.integers(2, 6)), min_len=2, max_len=7)
            a = progressive_align(log)
            if rng.integers(2):
                a = perturb(a, int(rng.integers(1, 8)), int(rng.integers(1 << 30))).alignment
        else:
            width = int(rng.integers(2, 6))
            labels = [
                ["a", "b", "c", "a"][int(c)] for c in rng.integers(0, 4, size=width)
            ]
            log = EventLog([Trace(f"t{k}", labels) for k in range(int(rng.integers(2, 5)))])
            a = progressive_align(log)
        if not aligned_pairs(a):
            # The identity properties only apply to references with at
            # least one aligned pair.
            pair_free += 1
        else:
            assert ref_based_sps(a, a) == 1.0
        assert column_score(a, a) == 1.0
        assert count_heuristic_errors(a, a) == 0
        census = extract_patterns(a.source)
        code_of = a.source.code_of
        for pattern, _ in itertools.islice(census.items(), 12):
            codes = np.array([code_of[s] for s in pattern], dtype=np.int64)
            if _co_alignment_witness(a, codes):
                assert misalignment_score(a, pattern) == 0.0
                co_aligned_checks += 1
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 200 and co_aligned_checks > 200 and pair_free < 20 and elapsed < 10.0
    record_criterion(
        "5 identity suite",
        ok,
        f"{checked} alignments ({pair_free} pair-free), {co_aligned_checks} co-aligned"
        f" patterns, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_pairwise_dp_optimality():
    start = time.perf_counter()
    labels = "abc"
    first = []
    second = []
    codes = []
    for n in range(1, 6):
        for tup in itertools.product(range(3), repeat=n):
            first.append(Trace("x", [labels[c] for c in tup]))
            second.append(Trace("y", [labels[c] for c in tup]))
            codes.append(np.array(tup, dtype=np.int64))
    n = len(first)
    checked = 0
    for i in range(n):
        for j in range(i, n):
            _, score = pairwise_align(first[i], second[j])
            expected = brute_force_best_score(codes[i], codes[j], 1.0, -1.0, 0.0)
            assert score == expected, (first[i].labels, second[j].labels, score, expected)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == n * (n + 1) // 2 and elapsed < 60.0
    record_criterion(
        "6 pairwise dp optimality", ok, f"{checked} exhaustive pairs, {elapsed:.1f}s"
    )
    assert ok


def test_criterion_7_progressive_vs_three_way_oracle():
    start = time.perf_counter()
    labels = "abc"
    rng = np.random.default_rng(7)
    total_sps = 0.0
    total_opt = 0.0
    worst = 1.0
    for _ in range(50):
        lens = rng.integers(2, 7, size=3)
        rows = [[labels[int(c)] for c in rng.integers(0, 3, size=k)] for k in lens]
        log = EventLog([Trace(f"t{k}", row) for k, row in enumerate(rows)])
        sps = ref_free_sps(progressive_align(log))
        trace_codes = [
            np.array([labels.index(s) for s in row], dtype=np.int64) for row in rows
        ]
        optimum = three_way_optimum(*trace_codes)
        assert sps <= optimum + 1e-9  # the oracle is a true upper bound
        total_sps += sps
        total_opt += optimum
        if optimum > 0:
            worst = min(worst, sps / optimum)
    elapsed = time.perf_counter() - start
    # Aggregate reading: summed progressive score within 10% of the summed
    # exact optimum over the 50 instances (individual tiny instances can
    # dip below, which is inherent to greedy progressive construction).
    ok = total_sps >= 0.9 * total_opt and elapsed < 60.0
    record_criterion(
        "7 progressive vs 3-way oracle",
        ok,
        f"aggregate {total_sps:.0f}/{total_opt:.0f} = {total_sps / total_opt:.4f},"
        f" worst instance {worst:.3f}, {elapsed:.1f}s",
    )
    assert ok


@pytest.fixture(scope="module")
def study_reports():
    reports = {}
    for name, seed in STUDY_SEEDS.items():
        log = generate_log(load_bundled_model(name), STUDY_TRACES, seed=seed)
        reports[name] = correlation_experiment(
            log,
            samples=30,
            max_moves=log.total_activities // 3,
            tf_ratio=0.40,
            seed=seed,
            k=8,
        )
    return reports


def test_criterion_8_correlation_methodology(study_reports):
    start = time.perf_counter()
    oms_ok = []
    beats_ms = []
    signs_ok = []
    details = []
    for name, report in study_reports.items():
        c = report.coefficients
        oms_ok.append(c["oms"] >= 0.7)
        beats_ms.append(c["oms"] >= c["ms_top"])
        signs_ok.append(c["oms"] > 0 and c["ref_based_sps"] < 0 and c["ref_free_sps"] < 0)
        details.append(f"{name}:{c['oms']:+.3f}/{c['ms_top']:+.3f}")
    elapsed = time.perf_counter() - start
    ok = all(oms_ok) and sum(beats_ms) >= 3 and all(signs_ok)
    record_criterion(
        "8 correlation methodology",
        ok,
        f"oms>=0.7 on {sum(oms_ok)}/5, oms>=ms_top on {sum(beats_ms)}/5, "
        f"signs on {sum(signs_ok)}/5 [{', '.join(details)}]",
    )
    assert ok


def test_criterion_9_tf_ratio_sweep():
    start = time.perf_counter()
    ratios = (0.2, 0.4, 0.6, 0.8, 1.0)
    wins = 0
    beats_higher = 0
    details = []
    for name, seed in STUDY_SEEDS.items():
        log = generate_log(load_bundled_model(name), STUDY_TRACES, seed=seed)
        sweep = tf_ratio_sweep(
            log, ratios, samples=30, max_moves=log.total_activities // 3, seed=seed, k=8
        )
        defined = {r: v for r, v in sweep.items() if v is not None}
        best = max(defined.values())
        wins += defined.get(0.4) == best
        beats_higher += all(
            defined[0.4] >= defined[r] for r in (0.6, 0.8) if r in defined
        )
        details.append(
            f"{name}:[" + " ".join(
                f"{r}={sweep[r]:+.3f}" if sweep[r] is not None else f"{r}=undef"
                for r in ratios
            ) + "]"
        )
    elapsed = time.perf_counter() - start
    ok = wins >= 3 and elapsed < 600.0
    record_criterion(
        "9 tf ratio sweep",
        ok,
        f"0.4 attains max on {wins}/5 (beats 0.6/0.8 on {beats_higher}/5); "
        + "; ".join(details)
        + f"; {elapsed:.0f}s",
    )
    assert ok


def test_criterion_10_roundtrip_and_determinism(tmp_path):
    start = time.perf_counter()
    model = tmp_path / "model.json"
    from tracealign.formats import write_model

    write_model(load_bundled_model("claims"), model)

    emitted = []
    for run in range(2):
        log_p = tmp_path / f"log{run}.log"
        aln_p = tmp_path / f"aln{run}.aln"
        ref_p = tmp_path / f"ref{run}.aln"
        pert_p = tmp_path / f"pert{run}.aln"
        csv_p = tmp_path / f"table{run}.csv"
        rep_p = tmp_path / f"report{run}.json"
        assert main(["gen-log", str(model), "-n", "14", "--seed", "10", "-o", str(log_p)]) == 0
        assert main(["align", str(log_p), "-o", str(aln_p)]) == 0
        assert main(["consensus", str(log_p), "-k", "4", "--seed", "10", "-o", str(ref_p)]) == 0
        assert main(["perturb", str(aln_p), "--moves", "6", "--seed", "10", "-o", str(pert_p)]) == 0
        assert main(
            [
                "correlate", str(log_p), "--samples", "10", "--max-moves", "10",
                "--seed", "10", "-k", "2", "-o", str(csv_p), "--report", str(rep_p),
            ]
        ) == 0
        log = read_log(log_p)
        for path in (aln_p, ref_p, pert_p):
            assert strip_gaps(read_alignment(path)) == log
        emitted.append(
            tuple(p.read_bytes() for p in (log_p, aln_p, ref_p, pert_p, csv_p, rep_p))
        )
    identical = emitted[0] == emitted[1]
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 30.0
    record_criterion(
        "10 roundtrip and determinism", ok, f"6 artifacts byte-identical, {elapsed:.1f}s"
    )
    assert ok


def test_criterion_11_performance_envelope():
    alphabet = [f"act{i:02d}" for i in range(14)]
    rng = np.random.default_rng(1111)

    def big_log(length):
        return EventLog(
            [
                Trace(f"t{i}", [alphabet[int(c)] for c in rng.integers(0, 14, size=length)])
                for i in range(50)
            ]
        )

    log100 = big_log(100)
    alignment = progressive_align(log100)

    start = time.perf_counter()
    census100 = extract_patterns(log100)
    t_census100 = time.perf_counter() - start
    oms = overall_misalignment_score(alignment, census100, 0.40)
    t_oms_total = time.perf_counter() - start

    log200 = big_log(200)
    start = time.perf_counter()
    extract_patterns(log200)
    t_census200 = time.perf_counter() - start

    scale = t_census200 / t_census100
    ok = t_oms_total < 10.0 and scale <= 10.0
    record_criterion(
        "11 performance envelope",
        ok,
        f"census+oms {t_oms_total:.2f}s (<10s), census x2 length scale {scale:.1f}x (<=10x),"
        f" oms={oms:.3f}",
    )
    assert ok
