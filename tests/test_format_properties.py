"""Any file content either parses or fails with one TraceAlignError line.

Each reader gets arbitrary bytes and text, plus content shaped like its
format so that parsing gets past the first line.  When a reader rejects
a file, the CLI given the same file exits 1 and prints that error, and
nothing else, as its one stderr line.  When a reader accepts a log or an
alignment, the CLI either succeeds or fails with one line.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tracealign.cli import main
from tracealign.core import TraceAlignError
from tracealign.formats import read_alignment, read_log, read_model

EXAMPLES = settings(max_examples=60, deadline=None)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_reader_and_cli(reader, argv, content: bytes, run_accepted: bool) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(content)
        try:
            reader(path)
        except TraceAlignError as exc:
            assert "\n" not in str(exc)
            code, err = run_cli(argv(path, tmp))
            assert code == 1
            assert err == f"tracealign: error: {exc}\n"
            return
        if run_accepted:
            code, err = run_cli(argv(path, tmp))
            assert (code, err) == (0, "") or (code == 1 and err.count("\n") == 1)


def text_file(header, body):
    """An optional first line from ``header`` over the lines ``body`` draws."""
    return st.builds(
        lambda first, rows: "\n".join(first + rows).encode("utf-8"),
        st.lists(header, max_size=1),
        body,
    )


def case_id(row):
    return row.partition("\t")[0]


def any_content():
    return st.binary(max_size=120) | st.text(max_size=120).map(lambda t: t.encode("utf-8"))


def log_content():
    label = st.sampled_from(["a", "b", "c", "-", "", " ", "a\rb"])
    case = st.sampled_from(["c1", "c2", "c3", ""])
    row = st.builds(lambda c, ls: c + "\t" + ",".join(ls), case, st.lists(label, max_size=4))
    header = st.sampled_from(["#tracealign-log v1", "#tracealign-log v2", "#tracealign-alignment v1"])
    return text_file(header, st.lists(row, max_size=5, unique_by=case_id))


def alignment_content():
    cell = st.sampled_from(["a", "b", "-", ""])
    case = st.sampled_from(["c1", "c2", "c3", ""])

    def table(width):
        cells = st.lists(cell, min_size=width, max_size=width) | st.lists(cell, max_size=4)
        row = st.builds(lambda c, cs: "\t".join([c, *cs]), case, cells)
        rows = st.lists(row, max_size=4, unique_by=case_id)
        return rows.map(lambda rows: [f"#L={width}", *rows])

    header = st.sampled_from(["#tracealign-alignment v1", "#tracealign-alignment v0"])
    body = st.integers(0, 4).flatmap(table) | st.lists(st.sampled_from(["#L=x", "c1\ta"]))
    return text_file(header, body)


def model_content():
    number = st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.0, 10**400]) | st.floats() | st.integers()
    atom = st.none() | st.booleans() | number | st.text(max_size=4)
    kind = st.sampled_from(["activity", "sequence", "choice", "parallel", "loop", "other"])
    blocks = st.recursive(
        st.fixed_dictionaries({"kind": kind, "label": st.text(max_size=2)}),
        lambda child: st.fixed_dictionaries(
            {"kind": kind},
            optional={
                "label": atom,
                "children": st.lists(child, max_size=3) | atom,
                "probabilities": st.lists(number, max_size=3) | atom,
                "child": child | atom,
                "continue_probability": number | atom,
            },
        ),
        max_leaves=8,
    )
    document = st.fixed_dictionaries(
        {"format": st.just("tracealign-model"), "version": st.just(1), "model": blocks},
        optional={"name": atom},
    )
    return (document | atom).map(lambda d: json.dumps(d).encode("utf-8"))


def align_argv(path, tmp):
    return ["align", str(path), "-o", str(Path(tmp) / "out.aln")]


def evaluate_argv(path, tmp):
    return ["evaluate", str(path)]


def gen_log_argv(path, tmp):
    return ["gen-log", str(path), "-n", "2", "-o", str(Path(tmp) / "out.log")]


@EXAMPLES
@given(any_content() | log_content())
def test_read_log_parses_or_fails_in_one_line(content):
    check_reader_and_cli(read_log, align_argv, content, run_accepted=True)


@EXAMPLES
@given(any_content() | alignment_content())
def test_read_alignment_parses_or_fails_in_one_line(content):
    check_reader_and_cli(read_alignment, evaluate_argv, content, run_accepted=True)


# An accepted model is not sampled: a loop's continue probability may sit
# just below 1, and the traces it draws are then arbitrarily long.
@EXAMPLES
@given(any_content() | model_content())
def test_read_model_parses_or_fails_in_one_line(content):
    check_reader_and_cli(read_model, gen_log_argv, content, run_accepted=False)
