"""Self-check of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/selfcheck.py

The file name keeps it out of the repository's test collection; pytest runs
it when named.  Takes about 20 seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate  # noqa: E402
import run as bench  # noqa: E402
import traced  # noqa: E402
from workloads import PatternCensus, Workload, command_args, random_log  # noqa: E402

TINY = Workload(
    "tiny",
    "self-check",
    traces=6,
    commands=("align", "consensus", "evaluate", "correlate"),
    model="claims",
)
SEED = 3


@pytest.fixture
def log0(tmp_path):
    return bench.LogDir(TINY, SEED, 0, tmp_path, check_digests=False)


def test_contract_lists_the_metrics_the_harness_prints():
    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == bench.END_TO_END
    assert [m["name"] for m in contract["per_layer"]] == list(bench.PER_LAYER)
    assert all(m["unit"] == bench.unit_of(m["name"]) for m in contract["per_layer"])
    assert sorted(w["name"] for w in contract["workloads"]) == sorted(bench.WORKLOADS)


def test_untraced_run_prints_every_end_to_end_metric():
    info, result = bench.run(TINY, SEED, seconds=1, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert set(result["metrics"]) == set(bench.END_TO_END)
    text = bench.summary(TINY, info, result)
    for name, unit in bench.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        line = next(line for line in text.splitlines() if line.startswith(name + " "))
        assert line.endswith(" " + unit)
    assert "ops_failed_share" in text
    assert info["logs"][0]["traces"] == TINY.traces


def test_gate_rejects_an_alignment_that_does_not_strip_back(log0):
    runner = bench.Runner(TINY, bench.child_env(), log0.dir.parent)
    runner.run(log0, "align")
    assert runner.failures == []
    path = log0.dir / "align.aln"
    lines = path.read_text().splitlines()
    cells = lines[2].split("\t")
    first = next(i for i, c in enumerate(cells) if i and c != "-")
    cells[first] = "not-an-activity"
    lines[2] = "\t".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert "does not strip back" in gate.check_alignment(path, log0.gate.traces)


def test_runner_counts_corrupted_artifacts_and_nonzero_exits(log0, monkeypatch):
    runner = bench.Runner(TINY, bench.child_env(), log0.dir.parent)
    real_check = log0.gate.check

    def truncate_then_check(command, artifacts):
        artifact = log0.dir / artifacts[0]
        artifact.write_text(artifact.read_text()[:-20])
        return real_check(command, artifacts)

    runner.run(log0, "align")
    monkeypatch.setattr(log0.gate, "check", truncate_then_check)
    runner.run(log0, "align")
    monkeypatch.undo()
    monkeypatch.setattr(bench, "command_args", lambda w, c, s: ["align", "missing.log", "-o", "align.aln"])
    runner.run(log0, "align")
    assert runner.attempted == 3
    assert len(runner.failures) == 2
    assert "strip back" in runner.failures[0] or "width" in runner.failures[0]
    assert "exit status 1" in runner.failures[1]


def test_digest_gate_flags_a_changed_artifact(log0):
    runner = bench.Runner(TINY, bench.child_env(), log0.dir.parent)
    runner.run(log0, "align")
    checker = log0.gate
    checker.digests = {n: gate.sha256(log0.dir / n) for n in ("log.txt", "align.aln")}
    assert checker.check("align", ("align.aln",)) is None
    checker.digests["align.aln"] = "0" * 64
    assert "sha256 differs" in checker.check("align", ("align.aln",))


def test_traced_run_emits_spans_whose_parents_resolve(log0):
    path = log0.dir
    spans_path = path / "spans.json"
    for command in ("consensus", "correlate"):
        args = command_args(TINY, command, SEED)
        done = subprocess.run(
            [sys.executable, str(HERE / "traced.py"), str(spans_path), *args],
            cwd=path, env=bench.child_env(), capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        spans = json.loads(spans_path.read_text())
        by_id = {s[0]: s for s in spans}
        roots = [s for s in spans if s[1] is None]
        assert [(s[2], s[3]) for s in roots] == [("cli", "main")]
        for sid, parent, layer, name, start, end, _ in spans:
            assert start <= end
            if parent is not None:
                assert parent in by_id
                assert by_id[parent][4] <= start and end <= by_id[parent][5]
                assert name in traced.TARGETS[f"tracealign.{'_' if layer == 'kernels' else ''}{layer}"]
        metrics = traced.layer_metrics(spans, wall=roots[0][5] - roots[0][4])
        layer_total = sum(metrics[f"{layer}.self_s"] for layer in traced.LAYERS)
        assert layer_total == pytest.approx(roots[0][5] - roots[0][4])
        assert metrics["nw_scores.pairs"] == TINY.traces * (TINY.traces - 1) // 2
    assert metrics["samples"] == 60 and metrics["correlation_experiment.calls"] == 1


def test_traced_run_prints_every_per_layer_metric():
    info, result = bench.run(TINY, SEED, seconds=1, trace=True)
    assert result["correct"]
    assert list(result["metrics"]) == list(bench.PER_LAYER)
    assert info["traced_rounds"] >= 1
    assert result["metrics"]["align_profiles.calls"]["value"] > 0


def test_census_matches_the_package():
    from tracealign import extract_patterns

    log = random_log(5, 30, n_types=4, seed=1)
    census = PatternCensus([tuple(t.activities) for t in log.traces])
    theirs = extract_patterns(log)
    assert len(census.counts) == len(theirs)
    assert census.f_max == theirs.f_max
    assert all(census.count(p) == n for p, n in theirs.items())
