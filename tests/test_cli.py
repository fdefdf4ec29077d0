import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracealign

from tracealign import (
    ActivityBlock,
    ProcessModelSpec,
    ScoringScheme,
    SequenceBlock,
    consensus_reference,
    load_bundled_model,
    progressive_align,
    strip_gaps,
)
from tracealign.cli import main
from tracealign.formats import read_alignment, read_log, write_model


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    write_model(load_bundled_model("diagnostics"), path)
    return path


@pytest.fixture
def log_path(tmp_path, model_path):
    path = tmp_path / "sample.log"
    assert main(["gen-log", str(model_path), "-n", "12", "--seed", "3", "-o", str(path)]) == 0
    return path


@pytest.fixture
def one_activity_log_path(tmp_path):
    """Two traces of one activity each: no pattern has two activities."""
    path = tmp_path / "single.log"
    path.write_text("c1\ta\nc2\tb\n")
    return path


def assert_single_line_error(code, captured, message):
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"tracealign: error: {message}\n"


@pytest.fixture
def alignment_path(tmp_path, log_path):
    path = tmp_path / "sample.aln"
    assert main(["align", str(log_path), "-o", str(path)]) == 0
    return path


class TestAlign:
    def test_alignment_roundtrips_to_input(self, log_path, alignment_path):
        assert strip_gaps(read_alignment(alignment_path)) == read_log(log_path)

    def test_missing_input_fails_with_diagnostic(self, tmp_path, capsys):
        code = main(["align", str(tmp_path / "absent.log"), "-o", str(tmp_path / "out.aln")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("\n") == 1
        assert "absent.log" in captured.err

    def test_reserved_label_in_log_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.log"
        bad.write_text("c1\ta,-\nc2\ta\n")
        code = main(["align", str(bad), "-o", str(tmp_path / "out.aln")])
        assert code == 1
        assert "reserved" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--gap", "nan"], "gap score must be finite, got nan"),
            (["--match", "inf", "--mismatch", "0"], "match score must be finite, got inf"),
            (["--mismatch=-inf"], "mismatch score must be finite, got -inf"),
        ],
    )
    def test_non_finite_score_is_single_line(self, log_path, tmp_path, capsys, flags, message):
        out = tmp_path / "out.aln"
        code = main(["align", str(log_path), "-o", str(out), *flags])
        assert_single_line_error(code, capsys.readouterr(), message)
        assert not out.exists()

    def test_undecodable_log_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.log"
        bad.write_bytes(b"c1\ta,b\nc2\ta,\xff\n")
        code = main(["align", str(bad), "-o", str(tmp_path / "out.aln")])
        assert_single_line_error(
            code, capsys.readouterr(), f"{bad}:2:6: not UTF-8 text (invalid start byte)"
        )


class TestOverflowingScheme:
    """Scores whose sums overflow to -inf align exactly and print nothing."""

    FLAGS = ["--match=1e300", "--mismatch=-1e308", "--gap=-1e308"]
    SCHEME = ScoringScheme(1e300, -1e308, -1e308)

    @pytest.fixture
    def claims_log(self, tmp_path):
        model = tmp_path / "claims.json"
        write_model(load_bundled_model("claims"), model)
        path = tmp_path / "claims.log"
        assert main(["gen-log", str(model), "-n", "30", "--seed", "7", "-o", str(path)]) == 0
        return path

    def test_align(self, claims_log, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "out.aln"
        assert main(["align", str(claims_log), "-o", str(out), *self.FLAGS]) == 0
        assert capsys.readouterr().err == ""
        expected = progressive_align(read_log(claims_log), self.SCHEME)
        assert read_alignment(out).grid.tolist() == expected.grid.tolist()

    def test_consensus(self, claims_log, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "ref.aln"
        assert main(["consensus", str(claims_log), "-o", str(out), *self.FLAGS]) == 0
        assert capsys.readouterr().err == ""
        expected = consensus_reference(read_log(claims_log), self.SCHEME)
        assert read_alignment(out).grid.tolist() == expected.grid.tolist()


class TestEvaluate:
    def test_self_reference_report(self, alignment_path, capsys):
        code = main(
            ["evaluate", str(alignment_path), "--reference", str(alignment_path), "-f", "json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["accuracy"]["ref_based_sps"] == 1.0
        assert data["accuracy"]["column_score"] == 1.0
        assert data["accuracy"]["n_e"] == 0

    def test_human_and_json_values_agree(self, alignment_path, tmp_path, capsys):
        json_out = tmp_path / "report.json"
        assert main(["evaluate", str(alignment_path), "-f", "json", "-o", str(json_out)]) == 0
        assert main(["evaluate", str(alignment_path)]) == 0
        human = capsys.readouterr().out
        data = json.loads(json_out.read_text())
        assert f"{data['confidence']['ois']:.6f}" in human
        assert f"{data['accuracy']['oms']:.6f}" in human
        assert f"{data['complexity']['value']:.6f}" in human

    def test_threshold_error_is_single_line(self, alignment_path, capsys):
        code = main(["evaluate", str(alignment_path), "--tf-ratio", "1.0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("tracealign: error:")
        assert captured.err.count("\n") == 1

    def test_non_finite_gap_writes_no_report(self, alignment_path, capsys):
        code = main(["evaluate", str(alignment_path), "--gap", "nan", "-f", "json"])
        assert_single_line_error(code, capsys.readouterr(), "gap score must be finite, got nan")

    @pytest.mark.parametrize(
        "body, message",
        [
            (
                "#L=2\nc1\ta\tb\n#L=3\nc2\ta\tb\tc\n",
                "4:4: column count 3 contradicts the earlier #L=2",
            ),
            ("#L=-1\nc1\ta\n", "2:4: bad column count '-1'"),
        ],
    )
    def test_bad_column_count_is_single_line(self, tmp_path, capsys, body, message):
        aln = tmp_path / "bad.aln"
        aln.write_text("#tracealign-alignment v1\n" + body)
        code = main(["evaluate", str(aln)])
        assert_single_line_error(code, capsys.readouterr(), f"{aln}:{message}")

    def test_log_file_is_named_as_such(self, log_path, capsys):
        code = main(["evaluate", str(log_path)])
        message = f"{log_path}:1:1: this is a log file, not an alignment"
        assert_single_line_error(code, capsys.readouterr(), message)

    def test_one_activity_log_has_empty_census(self, one_activity_log_path, tmp_path, capsys):
        aln = tmp_path / "single.aln"
        assert main(["align", str(one_activity_log_path), "-o", str(aln)]) == 0
        capsys.readouterr()
        code = main(["evaluate", str(aln)])
        assert_single_line_error(code, capsys.readouterr(), "pattern census is empty")


class TestPatterns:
    def test_csv_table(self, log_path, capsys):
        assert main(["patterns", str(log_path), "-f", "csv"]) == 0
        out = capsys.readouterr().out
        header, *rows = out.strip().splitlines()
        assert header == "length,bucket_low_pct,bucket_high_pct,patterns"
        assert rows

    def test_human_table(self, log_path, capsys):
        assert main(["patterns", str(log_path)]) == 0
        assert "f_max=" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    @pytest.mark.parametrize(
        "buckets, message",
        [
            ("0", "buckets must be >= 1, got 0"),
            ("-1", "buckets must be >= 1, got -1"),
            (str(2**63), f"buckets must be <= 2**63 - 1, got {2**63}"),
            (str(10**400), f"buckets must be <= 2**63 - 1, got {10**400}"),
        ],
        ids=["0", "-1", "2**63", "10**400"],
    )
    def test_bucket_count_below_one_is_single_line(self, log_path, capsys, fmt, buckets, message):
        code = main(["patterns", str(log_path), "-f", fmt, "--buckets", buckets])
        assert_single_line_error(code, capsys.readouterr(), message)

    def test_one_activity_log_gives_empty_table(self, one_activity_log_path, capsys):
        assert main(["patterns", str(one_activity_log_path)]) == 0
        assert capsys.readouterr().out == (
            "pattern census: 0 patterns, f_max=0\n" "length  freq bucket  patterns\n"
        )
        assert main(["patterns", str(one_activity_log_path), "-f", "csv"]) == 0
        assert capsys.readouterr().out == "length,bucket_low_pct,bucket_high_pct,patterns\n"
        assert main(["patterns", str(one_activity_log_path), "-f", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["bounds"], data["f_max"], data["table"]) == ([2, 2], 0, [])

    def test_explicit_max_len_below_min_len_is_single_line(self, one_activity_log_path, capsys):
        code = main(["patterns", str(one_activity_log_path), "--max-len", "1"])
        assert_single_line_error(code, capsys.readouterr(), "max_len 1 below min_len 2")


class TestPerturbCommand:
    def test_seed_is_printed_and_output_valid(self, alignment_path, tmp_path, capsys):
        out = tmp_path / "perturbed.aln"
        code = main(["perturb", str(alignment_path), "--moves", "4", "--seed", "9", "-o", str(out)])
        assert code == 0
        assert "seed: 9" in capsys.readouterr().out
        perturbed = read_alignment(out)
        reference = read_alignment(alignment_path)
        assert strip_gaps(perturbed) == strip_gaps(reference)


class TestGenLog:
    def test_generates_requested_traces(self, log_path):
        assert len(read_log(log_path)) == 12

    def test_rejects_bad_model(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "tracealign-model", "version": 1,
                                   "name": "x", "model": {"kind": "wat"}}))
        code = main(["gen-log", str(bad), "-n", "3", "-o", str(tmp_path / "x.log")])
        assert code == 1
        assert "wat" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document, missing",
        [
            ({"format": "tracealign-model", "version": 1}, "'model'"),
            ({"format": "tracealign-model", "version": 1, "model": {"kind": "sequence"}},
             "'children'"),
            ([{"format": "tracealign-model"}], "must be an object"),
            ({"format": "tracealign-model", "version": 1,
              "model": {"kind": "sequence", "children": 5}}, "'children' must be a list"),
            ({"format": "tracealign-model", "version": 1,
              "model": {"kind": "choice", "children": [{"kind": "activity", "label": "a"}],
                        "probabilities": 1}}, "'probabilities' must be a list"),
            ({"format": "tracealign-model", "version": 1,
              "model": {"kind": "loop", "child": 5, "continue_probability": 0.5}},
             "must be an object"),
            ({"format": "tracealign-model", "version": 1,
              "model": {"kind": "loop", "child": {"kind": "activity", "label": "a"},
                        "continue_probability": None}}, "needs a number"),
        ],
    )
    def test_missing_key_is_single_line(self, tmp_path, capsys, document, missing):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        code = main(["gen-log", str(bad), "-n", "3", "-o", str(tmp_path / "x.log")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("tracealign: error:")
        assert captured.err.count("\n") == 1
        assert missing in captured.err
        assert captured.err.startswith(f"tracealign: error: {bad}: ")

    @pytest.mark.parametrize(
        "document",
        [
            '{"format": "tracealign-model", "version": 1, "model": '
            + '{"kind": "sequence", "children": [' * 3000
            + '{"kind": "activity", "label": "a"}'
            + "]}" * 3000
            + "}",
            "[" * 3000 + "]" * 3000,
        ],
        ids=["nested-blocks", "bare-lists"],
    )
    def test_deep_nesting_is_single_line(self, tmp_path, capsys, document):
        deep = tmp_path / "deep.json"
        deep.write_text(document)
        code = main(["gen-log", str(deep), "-n", "3", "-o", str(tmp_path / "x.log")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"tracealign: error: {deep}:1:1: model nests too deeply to read\n"
        assert not (tmp_path / "x.log").exists()

    def test_probability_beyond_float_range_is_single_line(self, tmp_path, capsys):
        model = tmp_path / "big.json"
        model.write_text(
            '{"format": "tracealign-model", "version": 1, "model": {"kind": "choice", '
            '"children": [{"kind": "activity", "label": "a"}], "probabilities": [1'
            + "0" * 400 + "]}}"
        )
        code = main(["gen-log", str(model), "-n", "3", "-o", str(tmp_path / "x.log")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"tracealign: error: {model}: choice block number is out of float range\n"
        )

    def test_comma_in_label_leaves_no_log(self, tmp_path, capsys):
        model = tmp_path / "comma.json"
        write_model(ProcessModelSpec("comma", SequenceBlock((ActivityBlock("a,b"),))), model)
        out = tmp_path / "x.log"
        code = main(["gen-log", str(model), "-n", "3", "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "tracealign: error: label 'a,b' contains a comma and cannot be serialized\n"
        )
        assert not out.exists()


class TestCorrelate:
    def test_one_activity_log_has_empty_census(self, one_activity_log_path, capsys):
        code = main(["correlate", str(one_activity_log_path), "--samples", "10", "-k", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "tracealign: error: pattern census is empty\n"

    def test_negative_max_moves_is_single_line(self, log_path, capsys):
        code = main(["correlate", str(log_path), "--samples", "10", "--max-moves", "-4"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "tracealign: error: max_moves must be >= 0, got -4\n"

    @pytest.mark.parametrize("flag, name", [("--samples", "samples"), ("--max-moves", "max_moves")])
    def test_count_past_int64_is_single_line(self, log_path, capsys, flag, name):
        argv = ["correlate", str(log_path), "--samples", "10", flag, str(10**20)]
        capsys.readouterr()
        message = f"{name} must be <= 2**63 - 1, got {10**20}"
        assert_single_line_error(main(argv), capsys.readouterr(), message)

    def test_emits_table_and_report(self, log_path, tmp_path, capsys):
        csv_path = tmp_path / "samples.csv"
        report_path = tmp_path / "report.json"
        code = main(
            [
                "correlate", str(log_path),
                "--samples", "10", "--max-moves", "8", "--seed", "4", "-k", "2",
                "-o", str(csv_path), "--report", str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "seed: 4" in out
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("sample_id,n_e,ref_free_sps,")
        data = json.loads(report_path.read_text())
        assert set(data["coefficients"]) == {
            "ref_free_sps", "ref_based_sps", "column_score", "ms_top", "oms", "ois", "complexity",
        }

    def test_byte_identical_reruns(self, log_path, tmp_path):
        outputs = []
        for run in range(2):
            csv_path = tmp_path / f"samples_{run}.csv"
            report_path = tmp_path / f"report_{run}.json"
            assert main(
                [
                    "correlate", str(log_path),
                    "--samples", "10", "--max-moves", "8", "--seed", "4", "-k", "2",
                    "-o", str(csv_path), "--report", str(report_path),
                ]
            ) == 0
            outputs.append((csv_path.read_bytes(), report_path.read_bytes()))
        assert outputs[0] == outputs[1]


class TestOutputPathIsDirectory:
    """An output path naming a directory is refused before any work is done."""

    @pytest.mark.parametrize(
        "command, input_fixture, extra",
        [
            ("align", "log_path", ["-o", "DIR"]),
            ("consensus", "log_path", ["-k", "1", "-o", "DIR"]),
            ("evaluate", "alignment_path", ["-o", "DIR"]),
            ("patterns", "log_path", ["-o", "DIR"]),
            ("perturb", "alignment_path", ["--moves", "1", "-o", "DIR"]),
            ("gen-log", "model_path", ["-n", "3", "-o", "DIR"]),
            ("correlate", "log_path", ["--samples", "10", "-k", "1", "-o", "DIR", "--report", "FILE"]),
            ("correlate", "log_path", ["--samples", "10", "-k", "1", "-o", "FILE", "--report", "DIR"]),
        ],
        ids=[
            "align", "consensus", "evaluate", "patterns", "perturb", "gen-log",
            "correlate-samples", "correlate-report",
        ],
    )
    def test_is_single_line(self, request, tmp_path, capsys, command, input_fixture, extra):
        path = request.getfixturevalue(input_fixture)
        capsys.readouterr()  # the fixture's own commands print their seeds
        target, other = tmp_path / "out_dir", tmp_path / "other.out"
        target.mkdir()
        extra = [{"DIR": str(target), "FILE": str(other)}.get(arg, arg) for arg in extra]
        code = main([command, str(path), *extra])
        assert_single_line_error(code, capsys.readouterr(), f"output path is a directory: {target}")
        assert list(target.iterdir()) == [] and not other.exists()


class TestInputPath:
    """An input path naming a directory or a device is refused with one
    line; a regular file or a pipe is read."""

    @pytest.mark.parametrize(
        "command, input_fixture, args",
        [
            ("align", "log_path", ["DIR", "-o", "OUT"]),
            ("evaluate", "alignment_path", ["INPUT", "--reference", "DIR", "-o", "OUT"]),
            ("gen-log", "model_path", ["DIR", "-n", "3", "-o", "OUT"]),
        ],
        ids=["align-input", "evaluate-reference", "gen-log-model"],
    )
    def test_directory_is_single_line(self, request, tmp_path, capsys, command, input_fixture, args):
        path = request.getfixturevalue(input_fixture)
        capsys.readouterr()  # the fixture's own commands print their seeds
        target, out = tmp_path / "in_dir", tmp_path / "result.out"
        target.mkdir()
        args = [{"DIR": str(target), "INPUT": str(path), "OUT": str(out)}.get(a, a) for a in args]
        code = main([command, *args])
        assert_single_line_error(code, capsys.readouterr(), f"input path is a directory: {target}")
        assert not out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_device_is_single_line(self, tmp_path, capsys):
        out = tmp_path / "result.aln"
        code = main(["align", "/dev/zero", "-o", str(out)])
        message = "input path is not a regular file or pipe: /dev/zero"
        assert_single_line_error(code, capsys.readouterr(), message)
        assert not out.exists()

    def test_log_through_a_pipe_reads_as_the_file(self, log_path, alignment_path, tmp_path):
        src = str(Path(tracealign.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        out = tmp_path / "piped.aln"
        read_end, write_end = os.pipe()
        command = [sys.executable, "-m", "tracealign.cli", "align", f"/dev/fd/{read_end}"]
        with subprocess.Popen(
            [*command, "-o", str(out)], env=env, pass_fds=(read_end,), stderr=subprocess.PIPE
        ) as proc:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(log_path.read_bytes())
            assert proc.wait(timeout=60) == 0, proc.stderr.read()
        assert out.read_bytes() == alignment_path.read_bytes()


class TestDeterminismAcrossCommands:
    def test_seeded_commands_are_byte_reproducible(self, model_path, tmp_path):
        files = []
        for run in range(2):
            log_path = tmp_path / f"log_{run}.log"
            aln_path = tmp_path / f"aln_{run}.aln"
            ref_path = tmp_path / f"ref_{run}.aln"
            pert_path = tmp_path / f"pert_{run}.aln"
            assert main(["gen-log", str(model_path), "-n", "10", "--seed", "21", "-o", str(log_path)]) == 0
            assert main(["align", str(log_path), "-o", str(aln_path)]) == 0
            assert main(["consensus", str(log_path), "-k", "3", "--seed", "21", "-o", str(ref_path)]) == 0
            assert main(["perturb", str(aln_path), "--moves", "5", "--seed", "21", "-o", str(pert_path)]) == 0
            files.append(
                tuple(p.read_bytes() for p in (log_path, aln_path, ref_path, pert_path))
            )
        assert files[0] == files[1]


class TestNegativeSeed:
    """A failing randomized command prints no seed line: stdout stays empty."""

    NEGATIVE = "seed must be >= 0, got -1"
    BIG = str(10**20)
    TOO_BIG = f"must be <= 2**63 - 1, got {BIG}"

    @pytest.mark.parametrize(
        "command, input_fixture, extra, message",
        [
            ("consensus", "log_path", ["--seed", "-1", "-o", "out.aln"], NEGATIVE),
            ("perturb", "alignment_path", ["--seed", "-1", "--moves", "3", "-o", "out.aln"], NEGATIVE),
            ("gen-log", "model_path", ["--seed", "-1", "-n", "3", "-o", "out.log"], NEGATIVE),
            ("correlate", "log_path", ["--seed", "-1", "--samples", "10", "-k", "1"], NEGATIVE),
            ("gen-log", "model_path", ["-n", "0", "-o", "out.log"], "n_traces must be >= 1, got 0"),
            ("consensus", "log_path", ["-k", BIG, "-o", "out.aln"], f"k {TOO_BIG}"),
            (
                "correlate",
                "log_path",
                ["-k", BIG, "--samples", "10", "-o", "out.csv", "--report", "out.json"],
                f"k {TOO_BIG}",
            ),
            ("perturb", "alignment_path", ["--moves", BIG, "-o", "out.aln"], f"moves {TOO_BIG}"),
            ("gen-log", "model_path", ["-n", BIG, "-o", "out.log"], f"n_traces {TOO_BIG}"),
        ],
        ids=[
            "consensus",
            "perturb",
            "gen-log",
            "correlate",
            "gen-log-no-traces",
            "consensus-k-past-int64",
            "correlate-k-past-int64",
            "perturb-moves-past-int64",
            "gen-log-traces-past-int64",
        ],
    )
    def test_is_single_line(
        self, request, tmp_path, capsys, command, input_fixture, extra, message
    ):
        path = request.getfixturevalue(input_fixture)
        capsys.readouterr()  # the fixture's own commands print their seeds
        extra = [str(tmp_path / arg) if arg.startswith("out.") else arg for arg in extra]
        code = main([command, str(path), *extra])
        assert_single_line_error(code, capsys.readouterr(), message)
        assert not list(tmp_path.glob("out.*"))
