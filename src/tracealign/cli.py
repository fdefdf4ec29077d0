"""Command-line driver: one subcommand per batch activity.

    align       progressive multi-trace alignment of a log file
    consensus   best-of-k reference alignment
    evaluate    metric report for an alignment (optionally vs. a reference)
    patterns    pattern census histogram of a log
    perturb     inject relocation errors into an alignment
    gen-log     sample traces from a process model spec
    correlate   metric-vs-error-count correlation study

All randomized commands print the effective seed once they succeed.
Exit status is 0 on success; failures print a single-line diagnostic on
stderr.
"""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import IO, ContextManager

from . import formats
from .aligner import consensus_reference, progressive_align
from .core import TraceAlignError
from .experiments import correlation_experiment, generate_log, perturb
from .metrics import ScoringScheme, evaluate_alignment, extract_patterns


def _add_scheme_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--match", type=float, default=1.0, help="match score (default 1)")
    parser.add_argument("--mismatch", type=float, default=-1.0, help="mismatch score (default -1)")
    parser.add_argument("--gap", type=float, default=0.0, help="gap score (default 0)")


def _scheme(args: argparse.Namespace) -> ScoringScheme:
    return ScoringScheme(match=args.match, mismatch=args.mismatch, gap=args.gap)


def _check_paths(args: argparse.Namespace) -> None:
    # An input is a regular file or a pipe; a device such as /dev/zero
    # could be read without end.
    for name in ("input", "reference", "model"):
        value = getattr(args, name, None)
        if value is not None:
            try:
                mode = os.stat(value).st_mode
            except FileNotFoundError:
                raise TraceAlignError(f"input file not found: {value}") from None
            if stat.S_ISDIR(mode):
                raise TraceAlignError(f"input path is a directory: {value}")
            if not (stat.S_ISREG(mode) or stat.S_ISFIFO(mode)):
                raise TraceAlignError(f"input path is not a regular file or pipe: {value}")
    for name in ("output", "report", "samples_out"):
        value = getattr(args, name, None)
        if value is not None:
            if Path(value).is_dir():
                raise TraceAlignError(f"output path is a directory: {value}")
            parent = Path(value).resolve().parent
            if not parent.is_dir():
                raise TraceAlignError(f"output directory not found: {parent}")


def _output(path: str | None) -> ContextManager[IO[str]]:
    """The file at ``path``, opened for writing, or stdout, left open, when there is none."""
    return open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracealign",
        description="Multi-trace alignment and alignment-quality evaluation for event logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="progressively align all traces of a log")
    p.add_argument("input", help="log file")
    p.add_argument("-o", "--output", required=True, help="alignment file to write")
    _add_scheme_flags(p)

    p = sub.add_parser("consensus", help="best-of-k reference alignment")
    p.add_argument("input", help="log file")
    p.add_argument("-o", "--output", required=True, help="alignment file to write")
    p.add_argument("-k", type=int, default=8, help="number of candidate guide trees (default 8)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    _add_scheme_flags(p)

    p = sub.add_parser("evaluate", help="metric report for an alignment")
    p.add_argument("input", help="alignment file")
    p.add_argument("--reference", help="reference alignment over the same log")
    p.add_argument("--tf-ratio", type=float, default=0.40, help="frequency threshold ratio")
    p.add_argument("--majority", type=float, default=0.5, help="consensus majority threshold")
    p.add_argument("-f", "--format", choices=("human", "json"), default="human")
    p.add_argument("-o", "--output", help="write the report here instead of stdout")
    _add_scheme_flags(p)

    p = sub.add_parser("patterns", help="pattern census histogram of a log")
    p.add_argument("input", help="log file")
    p.add_argument("--min-len", type=int, default=2)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--buckets", type=int, default=10, help="frequency buckets (default 10)")
    p.add_argument("-f", "--format", choices=("human", "csv", "json"), default="human")
    p.add_argument("-o", "--output", help="write the table here instead of stdout")

    p = sub.add_parser("perturb", help="inject relocation errors into an alignment")
    p.add_argument("input", help="alignment file")
    p.add_argument("-o", "--output", required=True, help="alignment file to write")
    p.add_argument("--moves", type=int, required=True, help="number of relocations")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    p = sub.add_parser("gen-log", help="sample traces from a process model")
    p.add_argument("model", help="model spec (JSON)")
    p.add_argument("-o", "--output", required=True, help="log file to write")
    p.add_argument("-n", "--traces", type=int, required=True, help="number of traces")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    p = sub.add_parser("correlate", help="metric-vs-error correlation study")
    p.add_argument("input", help="log file")
    p.add_argument("--samples", type=int, default=30, help="perturbed alignments (default 30)")
    p.add_argument("--max-moves", type=int, default=30, help="largest move count (default 30)")
    p.add_argument("--tf-ratio", type=float, default=0.40)
    p.add_argument("-k", type=int, default=8, help="consensus candidate count (default 8)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("-o", "--samples-out", dest="samples_out", help="sample table (CSV) to write")
    p.add_argument("--report", help="full JSON report to write")
    _add_scheme_flags(p)

    return parser


def _cmd_align(args: argparse.Namespace) -> None:
    log = formats.read_log(args.input)
    alignment = progressive_align(log, _scheme(args))
    formats.write_alignment(alignment, args.output)


def _cmd_consensus(args: argparse.Namespace) -> None:
    log = formats.read_log(args.input)
    alignment = consensus_reference(log, _scheme(args), k=args.k, seed=args.seed)
    formats.write_alignment(alignment, args.output)
    print(f"seed: {args.seed}")


def _cmd_evaluate(args: argparse.Namespace) -> None:
    alignment = formats.read_alignment(args.input)
    reference = formats.read_alignment(args.reference) if args.reference else None
    report = evaluate_alignment(
        alignment, reference, scheme=_scheme(args), tf_ratio=args.tf_ratio, majority=args.majority
    )
    with _output(args.output) as fh:
        formats.write_report(report, fh, args.format)


def _cmd_patterns(args: argparse.Namespace) -> None:
    log = formats.read_log(args.input)
    census = extract_patterns(log, min_len=args.min_len, max_len=args.max_len)
    text = formats.render_patterns(census, args.buckets, args.format)
    with _output(args.output) as fh:
        fh.write(text)


def _cmd_perturb(args: argparse.Namespace) -> None:
    alignment = formats.read_alignment(args.input)
    result = perturb(alignment, args.moves, args.seed)
    formats.write_alignment(result.alignment, args.output)
    print(f"seed: {args.seed}")


def _cmd_gen_log(args: argparse.Namespace) -> None:
    spec = formats.read_model(args.model)
    log = generate_log(spec, args.traces, args.seed)
    formats.write_log(log, args.output)
    print(f"seed: {args.seed}")


def _cmd_correlate(args: argparse.Namespace) -> None:
    log = formats.read_log(args.input)
    report = correlation_experiment(
        log,
        _scheme(args),
        samples=args.samples,
        max_moves=args.max_moves,
        tf_ratio=args.tf_ratio,
        seed=args.seed,
        k=args.k,
    )
    if args.samples_out:
        formats.write_samples_csv(report, args.samples_out)
    if args.report:
        formats.write_correlation_report(report, args.report)
    print(f"seed: {args.seed}")
    print(f"{'metric':<16} {'corr(n_e)':>10}")
    for name, value in report.coefficients.items():
        shown = "undefined" if value is None else f"{value:+.4f}"
        print(f"{name:<16} {shown:>10}")


_COMMANDS = {
    "align": _cmd_align,
    "consensus": _cmd_consensus,
    "evaluate": _cmd_evaluate,
    "patterns": _cmd_patterns,
    "perturb": _cmd_perturb,
    "gen-log": _cmd_gen_log,
    "correlate": _cmd_correlate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_paths(args)
        _COMMANDS[args.command](args)
    except (TraceAlignError, ValueError, OSError) as exc:
        print(f"tracealign: error: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    """Process entry point: run :func:`main` on ``sys.argv`` and exit with its status.

    Between the two, ``gc.freeze()`` moves every object the command left
    tracked into the permanent generation, which the collection at
    interpreter shutdown skips: walking the tens of thousands of objects
    numpy and the package leave behind frees nothing a finished process
    needs.  Atexit handlers, the flush of stdout and stderr and module
    teardown still run, and every output file is closed before ``main``
    returns.  ``main`` itself leaves the collector alone, so callers that
    run it in-process keep theirs; an error that escapes ``main`` (an
    argparse exit, an uncaught exception) exits without freezing.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
