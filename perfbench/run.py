#!/usr/bin/env python3
"""Benchmark of the tracealign CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--record-digests]

Run from the root of a checkout; the package is imported from ``src/``.
Load is a closed loop with one client: one CLI command at a time, each in a
fresh interpreter (``python -m tracealign.cli``), so every run pays every
cost a CLI user pays.  Logs are generated from the seed before the commands
that read them are timed.  Every command's artifacts pass the correctness
gate (``gate.py``) or the command counts as failed.

``--trace 0`` times the commands untraced for ``--seconds`` (default: the
``run_seconds`` of BENCHMARK.json) and prints the end-to-end metrics.
``--trace 1`` alternates untraced rounds with rounds run through
``traced.py`` and prints the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for the metrics, the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from gate import DIGESTS, Gate, sha256
from workloads import ARTIFACTS, DEFAULT_SEED, WORKLOADS, command_args, make_log, properties

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SETUP_SAMPLES = 9

END_TO_END = {
    "setup_s": "s",
    "align_ref": "ref",
    "evaluate_ref": "ref",
    "pipeline_ref": "ref",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    # kernels
    "nw_scores.s", "nw_scores.pairs", "nw_scores.cells",
    "profile_fill.s", "profile_fill.cells", "traceback.s",
    "ms_pattern.s", "ms_pattern.calls", "column_counts.s", "column_counts.calls",
    "kernels.self_s",
    # aligner
    "distance_matrix.s", "build_guide_tree.s", "build_guide_tree.calls",
    "align_profiles.s", "align_profiles.calls", "progressive_align.s",
    "consensus_reference.s", "aligner.self_s",
    # metrics
    "extract_patterns.s", "census_patterns",
    "most_frequent_pattern.s", "most_frequent_pattern.calls",
    "misalignment_score.s", "misalignment_score.calls",
    "overall_misalignment_score.s", "eligible_patterns",
    "overall_information_score.s", "consensus_sequence.s", "alignment_complexity.s",
    "ref_free_sps.s", "ref_based_sps.s", "column_score.s", "count_heuristic_errors.s",
    "evaluate_alignment.s", "metrics.self_s",
    # core
    "validate_alignment.s", "validate_alignment.calls", "core.self_s",
    # experiments
    "perturb.s", "perturb.moves", "correlation_experiment.s", "samples", "experiments.self_s",
    # formats
    "read_log.s", "read_alignment.s", "write_alignment.s", "write_report.s",
    "write_samples_csv.s", "bytes_written", "formats.self_s",
    # cli: its own time, the untraced times of the commands that not every
    # workload runs, and the cost of tracing
    "cli.self_s", "consensus_s", "correlate_s", "trace.overhead_s",
)


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "bytes" if name == "bytes_written" else "count"


def timed(argv: list[str], cwd: Path, env: dict, log_stem: Path | None = None):
    """Run a command through spawn.py; return (wall seconds, exit status, peak RSS in KiB)."""
    result = cwd / "spawn.json"
    out, err = (f"{log_stem}.out", f"{log_stem}.err") if log_stem else (os.devnull, os.devnull)
    proc = subprocess.Popen(
        [sys.executable, "-S", str(HERE / "spawn.py"), str(result), out, err, *argv],
        cwd=cwd, env=env, stdin=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        proc.wait()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: spawn.py exits with status {proc.returncode} for {argv[:4]}")
    done = json.loads(result.read_text())
    result.unlink()
    return done["wall"], done["status"], done["maxrss_kb"]


class LogDir:
    """One generated log in its own directory, with the gate for its artifacts.

    Log 0 of a run is generated from the run's seed itself; log ``i > 0``
    from a seed derived from (seed, i).  Commands get the log's seed.
    """

    def __init__(self, workload, seed: int, index: int, base: Path, check_digests: bool) -> None:
        from tracealign import formats

        self.seed = seed if index == 0 else int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        self.dir = base / f"log{index}"
        self.dir.mkdir()
        log = make_log(workload, self.seed)
        formats.write_log(log, self.dir / "log.txt")
        self.gate = Gate(workload, self.seed, self.dir, log, check_digests and index == 0)

    def describe(self) -> dict:
        info = {
            "seed": self.seed,
            "log_sha256": sha256(self.dir / "log.txt"),
            **properties([acts for _, acts in self.gate.traces], self.gate.census),
        }
        if (self.dir / "align.aln").is_file():
            with open(self.dir / "align.aln", encoding="utf-8") as fh:
                fh.readline()
                info["alignment_length"] = int(fh.readline()[3:])
        return info


class Runner:
    """Runs the workload's commands and counts attempts and failures."""

    def __init__(self, workload, env: dict, base: Path) -> None:
        self.workload = workload
        self.env = env
        self.base = base
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_kb = 0

    def run(self, log: LogDir, command: str, traced: bool = False):
        """One command; returns (wall seconds, spans or None, bytes written)."""
        args = command_args(self.workload, command, log.seed)
        spans_path = log.dir / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced.py"), str(spans_path), *args]
        else:
            argv = [sys.executable, "-m", "tracealign.cli", *args]
        outputs = [log.dir / name for name in ARTIFACTS[command]]
        for path in [*outputs, spans_path]:
            path.unlink(missing_ok=True)
        stem = log.dir / command
        wall, status, rss_kb = timed(argv, log.dir, self.env, stem)
        self.attempted += 1
        if not traced:
            self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        if status != 0:
            stderr = Path(f"{stem}.err").read_text(errors="replace").strip().splitlines()
            problem = f"exit status {status}: {stderr[-1] if stderr else ''}"
        else:
            problem = log.gate.check(command, ARTIFACTS[command])
        if problem:
            self.failures.append(f"{command}: {problem}")
            print(f"FAILED {command}{' (traced)' if traced else ''}: {problem}", file=sys.stderr)
        spans = json.loads(spans_path.read_text()) if traced and spans_path.is_file() else None
        written = sum(p.stat().st_size for p in outputs if p.is_file())
        return wall, spans, written

    def _sample(self, argv: list[str]) -> float:
        wall, status, _ = timed(argv, self.base, self.env)
        if status != 0:
            raise SystemExit(f"perfbench: {' '.join(argv[1:])} exits with status {status}")
        return wall

    def setup_sample(self) -> float:
        """Wall time of a fresh interpreter running ``import tracealign.cli``."""
        return self._sample([sys.executable, "-c", "import tracealign.cli"])

    def reference_sample(self) -> float:
        """Wall time of reference.py, fixed work that measures the machine's speed."""
        return self._sample([sys.executable, str(HERE / "reference.py")])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One process, no extra threads; a fixed hash seed keeps set and dict
    # layouts, and so their timings, the same from run to run.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def measure(runner: Runner, new_log, seconds: float) -> dict:
    """Untraced times for ``seconds``: full rounds, each on a fresh log, while a
    round fits; then, on the last log, the fewest-sampled command that still
    fits, until none does.  Among equally sampled commands the slowest runs
    first, since it weighs most in ``pipeline_ref``.

    Every command is followed by a run of reference.py and a set-up sample,
    so set-up is sampled over the same stretch of time as the commands, and
    each command's time is also taken as a ratio to the mean of the
    reference runs just before and just after it.  The ratio cancels most of
    the machine's own drift in speed, which on a shared host reaches ±25%
    over minutes.
    """
    commands = runner.workload.commands
    walls: dict[str, list[float]] = {c: [] for c in commands}
    ratios: dict[str, list[float]] = {c: [] for c in commands}
    setup: list[float] = []
    refs = [runner.reference_sample()]
    logs: list[LogDir] = []

    def one(command: str) -> None:
        wall = runner.run(logs[-1], command)[0]
        refs.append(runner.reference_sample())
        walls[command].append(wall)
        ratios[command].append(wall / ((refs[-2] + refs[-1]) / 2))
        setup.append(runner.setup_sample())

    start = time.perf_counter()
    while True:
        logs.append(new_log(len(logs)))
        for c in commands:
            one(c)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(logs) > seconds:
            break
    while True:
        left = seconds - (time.perf_counter() - start)
        fits = [c for c in commands if statistics.median(walls[c]) <= left]
        if not fits:
            break
        one(min(fits, key=lambda name: (len(walls[name]), -statistics.median(walls[name]))))
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(runner.setup_sample())
    return {"logs": logs, "samples_s": walls, "samples_ref": ratios, "setup_s": setup, "reference_s": refs}


def measure_traced(runner: Runner, log: LogDir, seconds: float) -> tuple[dict[str, float], int]:
    """Alternate untraced and traced rounds on one log; per-layer metrics are
    medians over rounds, so counts repeat exactly from run to run."""
    from traced import layer_metrics

    commands = runner.workload.commands
    rounds: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        plain = {c: runner.run(log, c)[0] for c in commands}
        spans: list[list] = []
        traced_wall = 0.0
        written = 0
        for c in commands:
            wall, command_spans, n_bytes = runner.run(log, c, traced=True)
            traced_wall += wall
            written += n_bytes
            offset = len(spans)
            for s in command_spans or []:
                s[0] += offset
                s[1] = None if s[1] is None else s[1] + offset
                spans.append(s)
        metrics = layer_metrics(spans, traced_wall)
        metrics["bytes_written"] = written
        metrics["consensus_s"] = plain.get("consensus", 0.0)
        metrics["correlate_s"] = plain.get("correlate", 0.0)
        metrics["trace.overhead_s"] = traced_wall - sum(plain.values())
        rounds.append(metrics)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    return {name: statistics.median(r[name] for r in rounds) for name in PER_LAYER}, len(rounds)


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(workload, seed: int) -> dict:
    import tracealign

    return {
        "backend": tracealign.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        "seed": seed,
        "workload": workload.name,
        "parameters": workload.parameters(),
    }


def record_digests(workload, log: LogDir) -> None:
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    names = ["log.txt", *(n for c in workload.commands for n in ARTIFACTS[c])]
    digests[workload.name] = {n: sha256(log.dir / n) for n in names}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def run(workload, seed: int, seconds: float, trace: bool, record: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (record, result)."""
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    info: dict = {"environment": environment(workload, seed)}
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        base = Path(tmp)
        runner = Runner(workload, child_env(), base)
        check_digests = seed == DEFAULT_SEED and not record

        def new_log(index: int) -> LogDir:
            return LogDir(workload, seed, index, base, check_digests)

        # Warm-up: bytecode and page cache.
        runner.setup_sample()
        runner.reference_sample()
        if trace:
            logs = [new_log(0)]
            metrics, info["traced_rounds"] = measure_traced(runner, logs[0], seconds)
            shown = {name: (metrics[name], unit_of(name)) for name in PER_LAYER}
        else:
            measured = measure(runner, new_log, seconds)
            logs = measured.pop("logs")
            info.update(measured)
            ratio = {c: statistics.median(v) for c, v in measured["samples_ref"].items()}
            values = {
                "setup_s": statistics.median(measured["setup_s"]),
                "align_ref": ratio["align"],
                "evaluate_ref": ratio["evaluate"],
                "pipeline_ref": sum(ratio.values()),
                "peak_rss_mb": runner.peak_rss_kb / 1024,
            }
            shown = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        info["logs"] = [log.describe() for log in logs]
        if record and not runner.failures:
            record_digests(workload, logs[0])
    failed = len(runner.failures)
    info["failures"] = runner.failures
    info["ops_failed_share"] = failed / runner.attempted
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
    }
    return info, result


def summary(workload, info: dict, result: dict) -> str:
    env = info["environment"]
    lines = [
        f"workload {workload.name} (seed {env['seed']}): {workload.why}",
        f"environment: backend={env['backend']} python={env['python']} numpy={env['numpy']}"
        f" nproc={env['nproc']} commit={env['commit']}",
    ]
    for i, log in enumerate(info["logs"]):
        lines.append(
            f"log {i}: "
            + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in log.items())
        )
    if "samples_s" in info:
        refs = info["reference_s"]
        lines.append(
            f"  reference  median {statistics.median(refs):9.4f} s  min {min(refs):.4f}"
            f"  max {max(refs):.4f}  n={len(refs)}"
        )
    for command, times in info.get("samples_s", {}).items():
        ratios = info["samples_ref"][command]
        lines.append(
            f"  {command:<10} median {statistics.median(times):9.4f} s"
            f"  min {min(times):.4f}  max {max(times):.4f}  n={len(times)}"
            f"  ratio to reference: median {statistics.median(ratios):.4f}"
        )
    for name, entry in result["metrics"].items():
        lines.append(f"{name:<30} {entry['value']:>16.6f} {entry['unit']}")
    lines.append(
        f"{'ops_failed_share':<30} {info['ops_failed_share']:>16.6f} ratio"
        f"  ({result['failed']} of {result['attempted']} commands)"
    )
    return "\n".join(lines)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=int, help="measuring time of one run (default: run_seconds of BENCHMARK.json)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help=f"store the artifact digests of log 0 in digests.json (seed {DEFAULT_SEED} only)",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs --seed {DEFAULT_SEED}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "tracealign" / "cli.py").is_file():
        print(f"perfbench: no tracealign sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    info, result = run(workload, args.seed, args.seconds, bool(args.trace), args.record_digests)
    print(summary(workload, info, result))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
