import json

import numpy as np
import pytest

from conftest import random_log
from tracealign import (
    Alignment,
    EventLog,
    ModelSpecError,
    Trace,
    evaluate_alignment,
    load_bundled_model,
    progressive_align,
    strip_gaps,
)
from tracealign.formats import (
    FileFormatError,
    correlation_to_dict,
    read_alignment,
    read_log,
    read_model,
    report_to_dict,
    render_report_human,
    write_alignment,
    write_log,
    write_model,
)


@pytest.fixture
def sample_log():
    return EventLog(
        [
            Trace("c1", ["register", "triage", "treat"]),
            Trace("c2", ["register", "treat"]),
            Trace("c3", ["triage", "treat"]),
        ]
    )


class TestLogFormat:
    def test_roundtrip(self, tmp_path, sample_log):
        path = tmp_path / "sample.log"
        write_log(sample_log, path)
        assert read_log(path) == sample_log
        assert path.read_text().startswith("#tracealign-log v1\n")

    def test_labels_may_contain_spaces(self, tmp_path):
        log = EventLog([Trace("c1", ["Pupil Assessment", "Blood Pressure"])])
        path = tmp_path / "spaces.log"
        write_log(log, path)
        assert read_log(path) == log

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("#tracealign-log v9\nc1\ta,b\n")
        with pytest.raises(FileFormatError, match="version"):
            read_log(path)

    def test_reserved_gap_label_rejected_with_position(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("c1\ta,-,b\n")
        with pytest.raises(FileFormatError) as info:
            read_log(path)
        assert info.value.line == 1
        assert info.value.column == 6
        assert "reserved" in str(info.value)

    def test_duplicate_case_id_rejected(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("c1\ta\nc1\tb\n")
        with pytest.raises(FileFormatError, match="duplicate"):
            read_log(path)

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("#tracealign-log v1\njust-words\n")
        with pytest.raises(FileFormatError) as info:
            read_log(path)
        assert info.value.line == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.log"
        path.write_text("#tracealign-log v1\n")
        with pytest.raises(FileFormatError, match="no traces"):
            read_log(path)

    def test_comma_in_label_cannot_serialize(self, tmp_path):
        log = EventLog([Trace("c1", ["a,b"])])
        with pytest.raises(ValueError, match="comma"):
            write_log(log, tmp_path / "bad.log")
        assert not (tmp_path / "bad.log").exists()

    def test_hash_case_id_cannot_serialize(self, tmp_path):
        # Read back, "#c1" would be a comment line and the trace lost.
        log = EventLog([Trace("#c1", ["a", "b"]), Trace("c2", ["a"])])
        with pytest.raises(ValueError, match="'#c1' starts with '#'"):
            write_log(log, tmp_path / "bad.log")
        assert not (tmp_path / "bad.log").exists()


class TestAlignmentFormat:
    def test_roundtrip(self, tmp_path, sample_log):
        alignment = progressive_align(sample_log)
        path = tmp_path / "sample.aln"
        write_alignment(alignment, path)
        loaded = read_alignment(path)
        assert loaded == alignment
        text = path.read_text()
        assert text.startswith("#tracealign-alignment v1\n")
        assert f"#L={alignment.length}\n" in text

    def test_roundtrip_over_random_alignments(self, tmp_path):
        rng = np.random.default_rng(50)
        for i in range(10):
            log = random_log(rng, n_traces=int(rng.integers(2, 6)))
            alignment = progressive_align(log)
            path = tmp_path / f"random_{i}.aln"
            write_alignment(alignment, path)
            assert read_alignment(path) == alignment

    @pytest.mark.parametrize("gap", [-2, -(2**40)])
    def test_every_negative_value_is_written_as_a_gap(self, tmp_path, gap):
        log = EventLog([Trace("c1", ["a", "b"]), Trace("c2", ["b", "x"])])
        path = tmp_path / "gaps.aln"
        write_alignment(Alignment(log, [[0, 1, gap], [gap, 0, 1]]), path)
        assert path.read_text().splitlines()[2:] == ["c1\ta\tb\t-", "c2\t-\tb\tx"]
        assert read_alignment(path) == Alignment(log, [[0, 1, -1], [-1, 0, 1]])

    def test_cell_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.aln"
        path.write_text("#tracealign-alignment v1\n#L=3\nc1\ta\tb\n")
        with pytest.raises(FileFormatError, match="expected 3 cells"):
            read_alignment(path)

    def test_contradictory_column_count_is_located(self, tmp_path):
        path = tmp_path / "bad.aln"
        path.write_text("#tracealign-alignment v1\n#L=2\nc1\ta\tb\n#L=3\nc2\ta\tb\tc\n")
        with pytest.raises(FileFormatError) as info:
            read_alignment(path)
        assert str(info.value) == f"{path}:4:4: column count 3 contradicts the earlier #L=2"

    def test_repeated_column_count_is_accepted(self, tmp_path):
        path = tmp_path / "twice.aln"
        path.write_text("#tracealign-alignment v1\n#L=2\nc1\ta\tb\n#L=2\nc2\ta\t-\n")
        assert read_alignment(path).grid.tolist() == [[0, 1], [0, -1]]

    @pytest.mark.parametrize("count", ["-1", "0", "x", "", "0_2", " +2 ", "\uff12"])
    def test_column_count_below_one_rejected(self, tmp_path, count):
        path = tmp_path / "bad.aln"
        path.write_text(f"#tracealign-alignment v1\n#L={count}\nc1\ta\n")
        with pytest.raises(FileFormatError) as info:
            read_alignment(path)
        assert str(info.value) == f"{path}:2:4: bad column count {count!r}"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.aln"
        path.write_text("c1\ta\tb\n")
        with pytest.raises(FileFormatError, match="#L="):
            read_alignment(path)

    def test_all_gap_row_rejected(self, tmp_path):
        path = tmp_path / "bad.aln"
        path.write_text("#tracealign-alignment v1\n#L=2\nc1\ta\tb\nc2\t-\t-\n")
        with pytest.raises(FileFormatError, match="no activities"):
            read_alignment(path)

    def test_all_gap_column_rejected(self, tmp_path):
        path = tmp_path / "bad.aln"
        path.write_text("#tracealign-alignment v1\n#L=2\nc1\ta\t-\nc2\tb\t-\n")
        with pytest.raises(FileFormatError, match="all gaps"):
            read_alignment(path)

    def test_hash_case_id_cannot_serialize(self, tmp_path):
        log = EventLog([Trace("#c1", ["a", "b"]), Trace("c2", ["a"])])
        with pytest.raises(ValueError, match="'#c1' starts with '#'"):
            write_alignment(progressive_align(log), tmp_path / "bad.aln")
        assert not (tmp_path / "bad.aln").exists()

    def test_duplicate_case_id_is_located(self, tmp_path):
        path = tmp_path / "bad.aln"
        path.write_text("#tracealign-alignment v1\n#L=1\nc1\ta\nc2\tb\nc1\tc\n")
        with pytest.raises(FileFormatError) as info:
            read_alignment(path)
        assert str(info.value) == f"{path}:5:1: duplicate case id 'c1'"

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.aln"
        path.write_text("#tracealign-alignment v2\n#L=1\nc1\ta\n")
        with pytest.raises(FileFormatError, match="version"):
            read_alignment(path)

    def test_format_closure_with_strip_gaps(self, tmp_path, sample_log):
        # write alignment -> read -> strip -> equals original log.
        alignment = progressive_align(sample_log)
        path = tmp_path / "closure.aln"
        write_alignment(alignment, path)
        assert strip_gaps(read_alignment(path)) == sample_log


class TestModelFormat:
    def test_roundtrip(self, tmp_path):
        spec = load_bundled_model("checkout")
        path = tmp_path / "model.json"
        write_model(spec, path)
        assert read_model(path) == spec

    def test_invalid_json_is_located(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "tracealign-model",')
        with pytest.raises(FileFormatError):
            read_model(path)

    def test_spec_errors_name_the_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"format": "tracealign-model", "version": 2, "model": {}}')
        with pytest.raises(ModelSpecError) as info:
            read_model(path)
        assert str(info.value) == f"{path}: unsupported model version 2"

    def test_integer_past_digit_limit_is_a_format_error(self, tmp_path):
        path = tmp_path / "digits.json"
        path.write_text('{"format": "tracealign-model", "version": 1' + "0" * 5000 + "}")
        with pytest.raises(FileFormatError, match="digits"):
            read_model(path)


class TestEncoding:
    @pytest.mark.parametrize("reader", [read_log, read_alignment, read_model])
    def test_undecodable_bytes_are_located(self, tmp_path, reader):
        # Lines end as the reader splits them: "\r\n" is one line break.
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"c1\ta\r\nc2\tb,\xe9\n")
        with pytest.raises(FileFormatError) as info:
            reader(path)
        assert str(info.value) == f"{path}:2:6: not UTF-8 text (invalid continuation byte)"


class TestReportFormats:
    def test_json_and_human_agree(self, sample_log):
        alignment = progressive_align(sample_log)
        report = evaluate_alignment(alignment, alignment)
        data = report_to_dict(report)
        human = render_report_human(report)
        assert data["schema_version"] == 1
        assert data["accuracy"]["ref_based_sps"] == 1.0
        assert data["accuracy"]["n_e"] == 0
        # every value printed in the human report matches the dict
        assert f"{report.ois:.6f}" in human
        assert f"{report.oms:.6f}" in human
        assert f"{report.complexity.value:.6f}" in human

    def test_human_report_orders_sections(self, sample_log):
        alignment = progressive_align(sample_log)
        report = evaluate_alignment(alignment)
        human = render_report_human(report)
        assert human.index("accuracy") < human.index("confidence") < human.index("complexity")

    def test_correlation_dict_is_json_serializable(self, sample_log):
        from tracealign import correlation_experiment

        report = correlation_experiment(sample_log, samples=10, max_moves=5, seed=1, k=2)
        text = json.dumps(correlation_to_dict(report))
        assert "coefficients" in text
