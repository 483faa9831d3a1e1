import json
from dataclasses import replace

import pytest

from tactsim import (
    PRESET_MODELS,
    PolynomialModel,
    save_dataset,
    save_model,
    save_scenario,
    synthetic_protocol_dataset,
)
from tactsim.cli import main

from conftest import accuracy_scenario


@pytest.fixture()
def workdir(tmp_path, cfg, chain_dataset):
    """Scenario, dataset, and config files shared by CLI runs."""
    scenario_path = tmp_path / "scenario.csv"
    save_scenario(scenario_path, accuracy_scenario())
    dataset_path = tmp_path / "calibration.csv"
    save_dataset(dataset_path, chain_dataset)
    return tmp_path


@pytest.fixture()
def model_path(tmp_path):
    """A linear volts model for replaying hand-written streams."""
    path = tmp_path / "model.json"
    save_model(path, PolynomialModel((-0.05, 0.3)))
    return path


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCalibrate:
    def test_writes_model_and_table(self, workdir, capsys):
        model_path = workdir / "model.json"
        code, out, err = run(
            capsys, "calibrate", workdir / "calibration.csv", "-o", model_path,
            "--seed", "7",
        )
        assert code == 0, err
        assert out.splitlines()[0] == "order,mean_train_rmse_n,mean_test_rmse_n"
        payload = json.loads(model_path.read_text())
        assert payload["signal_units"] == "volts"
        assert payload["fit"]["repeats"] == 20

    def test_noise_free_linear_dataset_recovers_exact_model(self, tmp_path, capsys):
        dataset = synthetic_protocol_dataset(PRESET_MODELS[1], noise_sigma=0.0)
        dataset_path = tmp_path / "linear.csv"
        save_dataset(dataset_path, dataset)
        model_path = tmp_path / "model.json"
        code, out, _ = run(
            capsys, "calibrate", dataset_path, "-o", model_path, "--seed", "0",
        )
        assert code == 0
        payload = json.loads(model_path.read_text())
        coeffs = payload["coefficients"]
        assert coeffs[0] == pytest.approx(-0.0650, abs=1e-9)
        assert coeffs[1] == pytest.approx(0.0889, abs=1e-9)
        assert all(abs(c) <= 1e-9 for c in coeffs[2:])

    def test_underdetermined_orders_exit_numerical(self, tmp_path, capsys):
        dataset_path = tmp_path / "tiny.csv"
        dataset_path.write_text("v,force_n\n1.0,0.1\n2.0,0.2\n3.0,0.3\n")
        code, _, err = run(
            capsys, "calibrate", dataset_path, "--orders", "1,5", "--kfold-skip"
        )
        assert code == 1  # unknown flag is a usage error
        code, _, err = run(capsys, "calibrate", dataset_path, "--orders", "1,5")
        assert code == 2  # 3 samples cannot even be split into 5 folds
        dataset_path.write_text(
            "v,force_n\n" + "".join(f"{v}.0,0.{v}\n" for v in range(1, 7))
        )
        code, _, err = run(capsys, "calibrate", dataset_path, "--orders", "5")
        assert code == 3
        assert "order-5" in err

    def test_strict_paper_flag(self, workdir, capsys):
        code, out, err = run(
            capsys, "calibrate", workdir / "calibration.csv",
            "--strict-paper-cv", "--repeats", "3", "--seed", "1",
        )
        assert code == 0, err
        assert out.startswith("order,")

    def test_refuses_to_persist_on_fold_failure(self, tmp_path, capsys):
        # single distinct signal: every fold is rank deficient
        dataset_path = tmp_path / "flat.csv"
        dataset_path.write_text("v,force_n\n" + "2.0,0.1\n" * 40)
        model_path = tmp_path / "model.json"
        code, _, err = run(
            capsys, "calibrate", dataset_path, "-o", model_path, "--orders", "2",
        )
        assert code == 3
        assert not model_path.exists()


class TestSimulateEstimateReport:
    @pytest.fixture()
    def artifacts(self, workdir, capsys):
        model_path = workdir / "model.json"
        stream_path = workdir / "stream.csv"
        frames_path = workdir / "frames.csv"
        assert run(
            capsys, "calibrate", workdir / "calibration.csv", "-o", model_path,
            "--seed", "7",
        )[0] == 0
        assert run(
            capsys, "simulate", workdir / "scenario.csv", "-o", stream_path,
            "--seed", "3",
        )[0] == 0
        assert run(
            capsys, "estimate", stream_path, "-m", model_path, "-o", frames_path,
        )[0] == 0
        return model_path, stream_path, frames_path

    def test_stream_shape(self, workdir, artifacts):
        _, stream_path, _ = artifacts
        lines = stream_path.read_text().splitlines()
        assert len(lines) == 154  # 16 s scenario at 9.6 Hz, tick 0 included
        assert lines[0] == "0.0,0,0,0,0,0"
        for k, line in enumerate(lines):
            fields = line.split(",")
            assert len(fields) == 6
            # emitted timestamps are exact tick multiples, no drift
            assert float(fields[0]) == k / 9.6

    def test_estimate_accuracy_against_truth(self, workdir, artifacts, capsys):
        _, _, frames_path = artifacts
        code, out, err = run(
            capsys, "report", frames_path, "--truth", workdir / "scenario.csv",
            "--rmse",
        )
        assert code == 0, err
        values = dict(line.split(",", 1) for line in out.splitlines())
        assert float(values["rmse_n"]) <= 0.15
        assert int(values["frames"]) == 154

    def test_estimate_from_stdin(self, workdir, artifacts, capsys, monkeypatch):
        import io

        model_path, stream_path, frames_path = artifacts
        monkeypatch.setattr("sys.stdin", io.StringIO(stream_path.read_text()))
        code, out, err = run(capsys, "estimate", "-", "-m", model_path)
        assert code == 0, err
        assert out.splitlines() == frames_path.read_text().splitlines()

    def test_units_mismatch_is_config_error(self, workdir, artifacts, capsys):
        _, stream_path, _ = artifacts
        legacy_path = workdir / "legacy.json"
        save_model(legacy_path, PRESET_MODELS[1])
        code, _, err = run(capsys, "estimate", stream_path, "-m", legacy_path)
        assert code == 2
        assert "legacy" in err

    def test_decreasing_timestamps_fail_with_line(self, workdir, artifacts, capsys):
        model_path, _, _ = artifacts
        bad_path = workdir / "bad_stream.csv"
        bad_path.write_text("0.0,0,0,0,0,0\n1.0,0,0,0,0,0\n0.5,0,0,0,0,0\n")
        code, _, err = run(capsys, "estimate", bad_path, "-m", model_path)
        assert code == 2
        assert "line 3" in err

    def test_malformed_stream_line_reported(self, workdir, artifacts, capsys):
        model_path, _, _ = artifacts
        bad_path = workdir / "bad_arity.csv"
        bad_path.write_text("0.0,0,0,0,0,0\n0.5,0,0\n")
        code, _, err = run(capsys, "estimate", bad_path, "-m", model_path)
        assert code == 2
        assert "line 2" in err

    def test_report_requires_truth_for_rmse(self, workdir, artifacts, capsys):
        _, _, frames_path = artifacts
        code, _, err = run(capsys, "report", frames_path, "--rmse")
        assert code == 1
        assert "--truth" in err

    def test_report_without_truth_summarizes(self, workdir, artifacts, capsys):
        _, _, frames_path = artifacts
        code, out, _ = run(capsys, "report", frames_path)
        assert code == 0
        assert "rmse_n" not in out
        assert out.splitlines()[0] == "frames,154"

    def test_window_override(self, workdir, artifacts, capsys):
        model_path, stream_path, _ = artifacts
        code, out_1, _ = run(
            capsys, "estimate", stream_path, "-m", model_path, "--window", "1",
        )
        assert code == 0
        # window 1 leaves the raw estimate unfiltered
        for line in out_1.splitlines():
            fields = line.split(",")
            assert fields[1] == fields[2]


class TestDeterminism:
    def test_all_commands_byte_identical_on_rerun(self, workdir, capsys):
        model_a = workdir / "model_a.json"
        model_b = workdir / "model_b.json"
        stream_a = workdir / "stream_a.csv"
        stream_b = workdir / "stream_b.csv"
        frames_a = workdir / "frames_a.csv"
        frames_b = workdir / "frames_b.csv"

        code, cal_out_a, _ = run(
            capsys, "calibrate", workdir / "calibration.csv", "-o", model_a,
            "--seed", "7",
        )
        assert code == 0
        code, cal_out_b, _ = run(
            capsys, "calibrate", workdir / "calibration.csv", "-o", model_b,
            "--seed", "7",
        )
        assert code == 0
        assert cal_out_a == cal_out_b
        assert model_a.read_bytes() == model_b.read_bytes()

        for stream in (stream_a, stream_b):
            assert run(
                capsys, "simulate", workdir / "scenario.csv", "-o", stream,
                "--seed", "3",
            )[0] == 0
        assert stream_a.read_bytes() == stream_b.read_bytes()

        for stream, frames in ((stream_a, frames_a), (stream_b, frames_b)):
            assert run(
                capsys, "estimate", stream, "-m", model_a, "-o", frames,
            )[0] == 0
        assert frames_a.read_bytes() == frames_b.read_bytes()

        _, report_a, _ = run(
            capsys, "report", frames_a, "--truth", workdir / "scenario.csv",
        )
        _, report_b, _ = run(
            capsys, "report", frames_b, "--truth", workdir / "scenario.csv",
        )
        assert report_a == report_b


class TestExitCodes:
    def test_unknown_command_is_usage(self, capsys):
        assert run(capsys, "nonsense")[0] == 1

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", tmp_path / "absent.csv")
        assert code == 2

    def test_bad_config_file(self, capsys, tmp_path, workdir):
        bad = tmp_path / "bad.cfg"
        bad.write_text("gain = -3\n")
        code, _, err = run(
            capsys, "simulate", workdir / "scenario.csv", "--config", bad,
        )
        assert code == 2

    def test_bad_gain_flag(self, capsys, workdir):
        code, _, _ = run(
            capsys, "simulate", workdir / "scenario.csv", "--gain", "-1",
        )
        assert code == 1

    def test_scenario_with_malformed_row(self, capsys, tmp_path):
        bad = tmp_path / "scn.csv"
        bad.write_text("t,force_n,quadrants\n0.0,nope,\n")
        code, _, err = run(capsys, "simulate", bad)
        assert code == 2
        assert "line 2" in err

    def test_late_scenario_start_fails_before_writing(self, capsys, tmp_path):
        late = tmp_path / "late.csv"
        late.write_text("t,force_n,quadrants\n1.0,0.2,1\n2.0,0.0,\n")
        output = tmp_path / "stream.csv"
        code, out, err = run(capsys, "simulate", late, "-o", output)
        assert code == 2
        assert not output.exists()
        assert out == ""
        assert "t = 0" in err

    def test_unbalanced_bridge_fails_before_writing(self, capsys, tmp_path, workdir,
                                                    monkeypatch):
        from tactsim import cli, default_config

        base = default_config()
        unbalanced = replace(base, bridge=replace(base.bridge, r1=200e3))
        monkeypatch.setattr(cli, "default_config", lambda: unbalanced)
        output = tmp_path / "stream.csv"
        code, _, err = run(capsys, "simulate", workdir / "scenario.csv", "-o", output)
        assert code == 2
        assert not output.exists()
        assert "not balanced" in err


#: A bad line k in an otherwise valid 60-line stream -> the error message.
BAD_STREAM_LINES = {
    "arity": (1, "0.0,1,2,3,4", "line 1: expected time plus 5 channels, got 5 fields"),
    "non_numeric": (17, "1.6666666666666667,1,abc,3,4,5",
                    "line 17: could not convert string to float: 'abc'"),
    "non_finite": (2, "0.10416666666666667,1,2,nan,4,5",
                   "line 2: sample fields must be finite"),
    "negative_time": (30, "-1.5,1,2,3,4,5", "line 30: sample time must be non-negative"),
    "non_integral_code": (51, "5.208333333333333,1,2,3,12.5,5",
                          "line 51: channel value 12.5 is not an ADC code"),
    "code_out_of_range": (51, "5.208333333333333,1,2,3,4,256",
                          "line 51: code 256 outside [0, 255]"),
    "time_not_advancing": (9, "0.5,1,2,3,4,5",
                           "line 9: timestamp 0.5 s does not advance past 0.7291666666666667 s"),
}


def _stream_line(n: int) -> str:
    """Line n of a valid stream: tick n - 1, codes that vary from tick to tick."""
    t = n - 1
    return f"{t / 9.6!r},{t % 256},{7 * t % 256},0,255,{t % 3}"


#: A bad stream line at tick time {t} -> the error message after "line k: "
#: ({t} there is the time of the line before).
BLOCK_EDGE_STREAM_LINES = {
    "arity": ("{t!r},1,2,3,4", "expected time plus 5 channels, got 5 fields"),
    "non_numeric": ("{t!r},1,abc,3,4,5", "could not convert string to float: 'abc'"),
    "non_finite": ("{t!r},1,2,inf,4,5", "sample fields must be finite"),
    "negative_time": ("-1.5,1,2,3,4,5", "sample time must be non-negative"),
    "non_integral_code": ("{t!r},1,2,3,12.5,5", "channel value 12.5 is not an ADC code"),
    "code_out_of_range": ("{t!r},1,2,3,4,256", "code 256 outside [0, 255]"),
    "time_not_advancing": ("0.0,1,2,3,4,5", "timestamp 0.0 s does not advance past {t!r} s"),
}


class TestEstimateStreamErrors:
    """A bad stream line k exits 2 naming line k, after the k-1 good frames."""

    @staticmethod
    def replay(lines, source, model_path, tmp_path, capsys, monkeypatch):
        """(exit code, stdout, stderr, frames written) of estimate on ``lines``."""
        import io

        text = "\n".join(lines) + "\n"
        frames_path = tmp_path / "frames.csv"
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            stream = "-"
        else:
            stream = tmp_path / "stream.csv"
            stream.write_text(text)
        code, out, err = run(capsys, "estimate", stream, "-m", model_path, "-o", frames_path)
        return code, out, err, frames_path.read_text().count("\n")

    @pytest.mark.parametrize("source", ("file", "stdin"))
    @pytest.mark.parametrize("case", sorted(BAD_STREAM_LINES))
    def test_bad_line_stops_after_earlier_frames(self, case, source, model_path, tmp_path,
                                                 capsys, monkeypatch):
        k, bad_line, message = BAD_STREAM_LINES[case]
        lines = [f"{t / 9.6!r},{t % 256},{7 * t % 256},0,255,12" for t in range(60)]
        lines[k - 1] = bad_line
        result = self.replay(lines, source, model_path, tmp_path, capsys, monkeypatch)
        assert result == (2, "", f"tactsim: error: {message}\n", k - 1)

    @pytest.mark.parametrize("source", ("file", "stdin"))
    @pytest.mark.parametrize("case, k", [
        (case, k) for case in sorted(BLOCK_EDGE_STREAM_LINES) for k in (1, 1024, 1025, 2049)
        if (case, k) != ("time_not_advancing", 1)  # the first tick has no earlier time
    ])
    def test_bad_line_at_block_edge(self, case, k, source, model_path, tmp_path, capsys,
                                    monkeypatch):
        bad_line, message = BLOCK_EDGE_STREAM_LINES[case]
        lines = [_stream_line(n) for n in range(1, 2101)]
        lines[k - 1] = bad_line.format(t=(k - 1) / 9.6)
        result = self.replay(lines, source, model_path, tmp_path, capsys, monkeypatch)
        message = f"line {k}: {message.format(t=(k - 2) / 9.6)}"
        assert result == (2, "", f"tactsim: error: {message}\n", k - 1)


class TestEstimateMemory:
    """``estimate`` replays a stream from stdin in the memory of one block."""

    @staticmethod
    def replay_peak(lines, model_path, capsys, monkeypatch):
        """Peak traced memory of ``tactsim estimate -`` on a line iterator."""
        import tracemalloc

        class Sink:
            frames = 0

            def write(self, text):
                self.frames += text.count("\n")

        sink = Sink()
        monkeypatch.setattr("sys.stdin", lines)
        monkeypatch.setattr("sys.stdout", sink)
        tracemalloc.start()
        try:
            code = main(["estimate", "-", "-m", str(model_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        return peak, sink.frames

    def test_peak_does_not_grow_with_stream_length(self, model_path, capsys, monkeypatch):
        rows = [f"{c},{7 * c % 256},0,255,{c % 3}\n" for c in range(256)]

        def stream(ticks):
            return (f"{n},{rows[n % 256]}" for n in range(ticks))

        short, short_frames = self.replay_peak(stream(50_000), model_path, capsys, monkeypatch)
        long, long_frames = self.replay_peak(stream(200_000), model_path, capsys, monkeypatch)
        assert (short_frames, long_frames) == (50_000, 200_000)
        assert short < 3_000_000 and long < 3_000_000
        # within one block: 1,024 input lines and their frame lines
        assert abs(long - short) < 1024 * 200

    def test_code_spellings_do_not_grow_the_tables(self, model_path, capsys, monkeypatch):
        from tactsim import pipeline

        tables = []

        class Recorded(pipeline.CodeTables):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        # code 5 in 3,000 spellings: 5.0, 5.00, 05.0, 005.000, ...
        spellings = [f"{'0' * a}5.{'0' * b}" for a in range(50) for b in range(1, 61)]
        monkeypatch.setattr(pipeline, "CodeTables", Recorded)
        lines = (f"{n / 9.6!r},{spelling},5,5,5,5\n" for n, spelling in enumerate(spellings))
        _, frames = self.replay_peak(lines, model_path, capsys, monkeypatch)
        assert frames == 3_000
        (recorded,) = tables
        assert [len(t) for t in recorded.text] == [1, 1, 1, 1, 1]
        assert list(recorded.text[0]) == ["5"]


#: A bad frame line -> the error message after "line k: ".
BAD_FRAME_LINES = {
    "arity": ("{t!r},0.5,0.5,0,0,0,none", "expected 8 fields, got 7"),
    "bad_float": ("{t!r},abc,0.5,0,0,0,0,none", "could not convert string to float: 'abc'"),
    "state_2": ("{t!r},0.5,0.5,0,2,0,0,point", "element state must be 0 or 1, got '2'"),
    "unknown_pattern": ("{t!r},0.5,0.5,0,0,0,0,blob", "unknown pattern 'blob'"),
    "nan_force": ("{t!r},nan,0.5,1,0,0,0,point", "frame fields must be finite"),
    "inf_force": ("{t!r},0.5,inf,1,0,0,0,point", "frame fields must be finite"),
    "inf_time": ("inf,0.5,0.5,1,0,0,0,point", "frame fields must be finite"),
    "negative_time": ("-1.0,0.5,0.5,1,0,0,0,point", "frame time must be non-negative"),
}


class TestReportFrameErrors:
    """A bad frame line k exits 2 naming line k, and nothing is printed."""

    @staticmethod
    def frame_line(n: int) -> str:
        t = n - 1
        states = [(t >> bit) & 1 for bit in range(4)]
        pattern = ("none", "point", "line", "area", "area")[sum(states)]
        return f"{t / 9.6!r},{t % 7 / 5!r},{t % 5 / 4!r},{','.join(map(str, states))},{pattern}"

    @pytest.mark.parametrize("truth", (False, True))
    @pytest.mark.parametrize("k", (1, 1024, 1025, 2049))
    @pytest.mark.parametrize("case", sorted(BAD_FRAME_LINES))
    def test_bad_line_exits_with_its_number(self, case, k, truth, tmp_path, capsys):
        bad_line, message = BAD_FRAME_LINES[case]
        lines = ["# t,raw_n,filtered_n,e1,e2,e3,e4,pattern"]
        lines += [self.frame_line(n) for n in range(1, 2100)]
        lines[k - 1] = bad_line.format(t=(k - 1) / 9.6)
        frames_path = tmp_path / "frames.csv"
        frames_path.write_text("\n".join(lines) + "\n")
        args = ["report", frames_path]
        if truth:
            scenario_path = tmp_path / "scenario.csv"
            save_scenario(scenario_path, accuracy_scenario())
            args += ["--truth", scenario_path, "--rmse"]
        code, out, err = run(capsys, *args)
        assert code == 2
        assert err == f"tactsim: error: line {k}: {message}\n"
        assert out == ""

    def test_valid_lines_around_the_block_edges_summarize(self, tmp_path, capsys):
        lines = [self.frame_line(n) for n in range(1, 2100)]
        frames_path = tmp_path / "frames.csv"
        frames_path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "report", frames_path)
        assert code == 0, err
        assert out.startswith("frames,2099\n")
