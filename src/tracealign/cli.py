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
import json
import os
import stat
import sys
from pathlib import Path

from . import formats
from .aligner import ScoringScheme, consensus_reference, progressive_align
from .core import TraceAlignError
from .experiments import correlation_experiment, generate_log, perturb
from .metrics import evaluate_alignment, extract_patterns


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


def _cmd_align(args: argparse.Namespace) -> int:
    log = formats.read_log(args.input)
    alignment = progressive_align(log, _scheme(args))
    formats.write_alignment(alignment, args.output)
    return 0


def _cmd_consensus(args: argparse.Namespace) -> int:
    log = formats.read_log(args.input)
    alignment = consensus_reference(log, _scheme(args), k=args.k, seed=args.seed)
    formats.write_alignment(alignment, args.output)
    print(f"seed: {args.seed}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    alignment = formats.read_alignment(args.input)
    reference = None
    if args.reference:
        reference = formats.read_alignment(args.reference)
    report = evaluate_alignment(
        alignment,
        reference,
        scheme=_scheme(args),
        tf_ratio=args.tf_ratio,
        majority=args.majority,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            formats.write_report(report, fh, args.format)
    else:
        formats.write_report(report, sys.stdout, args.format)
    return 0


def _cmd_patterns(args: argparse.Namespace) -> int:
    log = formats.read_log(args.input)
    census = extract_patterns(log, min_len=args.min_len, max_len=args.max_len)
    table = census.length_frequency_table(args.buckets)
    rows = sorted(table.items())
    lines: list[str] = []
    if args.format == "csv":
        lines.append("length,bucket_low_pct,bucket_high_pct,patterns")
        for (length, bucket), count in rows:
            low = 100 * bucket // args.buckets
            high = 100 * (bucket + 1) // args.buckets
            lines.append(f"{length},{low},{high},{count}")
    elif args.format == "json":
        lines.append(
            json.dumps(
                {
                    "format": "tracealign-patterns",
                    "schema_version": 1,
                    "f_max": census.f_max,
                    "bounds": [census.min_len, census.max_len],
                    "buckets": args.buckets,
                    "table": [
                        {"length": length, "bucket": bucket, "patterns": count}
                        for (length, bucket), count in rows
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        lines.append(f"pattern census: {len(census)} patterns, f_max={census.f_max}")
        lines.append(f"{'length':>6} {'freq bucket':>12} {'patterns':>9}")
        for (length, bucket), count in rows:
            low = 100 * bucket // args.buckets
            high = 100 * (bucket + 1) // args.buckets
            lines.append(f"{length:>6} {f'{low}-{high}%':>12} {count:>9}")
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_perturb(args: argparse.Namespace) -> int:
    alignment = formats.read_alignment(args.input)
    result = perturb(alignment, args.moves, args.seed)
    formats.write_alignment(result.alignment, args.output)
    print(f"seed: {args.seed}")
    return 0


def _cmd_gen_log(args: argparse.Namespace) -> int:
    spec = formats.read_model(args.model)
    log = generate_log(spec, args.traces, args.seed)
    formats.write_log(log, args.output)
    print(f"seed: {args.seed}")
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
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
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(formats.correlation_to_dict(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"seed: {args.seed}")
    print(f"{'metric':<16} {'corr(n_e)':>10}")
    for name, value in report.coefficients.items():
        shown = "undefined" if value is None else f"{value:+.4f}"
        print(f"{name:<16} {shown:>10}")
    return 0


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
        return _COMMANDS[args.command](args)
    except (TraceAlignError, ValueError, OSError) as exc:
        print(f"tracealign: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
