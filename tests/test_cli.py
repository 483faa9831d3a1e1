import contextlib
import csv
import io
import json
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tactsim import (
    PRESET_MODELS,
    PolynomialModel,
    save_dataset,
    save_model,
    save_scenario,
    synthetic_protocol_dataset,
)
from tactsim.cli import main
from tactsim.config import _KEYS, _four_floats, load_config

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


#: A scenario or dataset file with a non-finite number -> the error message.
NON_FINITE_INPUTS = {
    "scenario_time_inf": ("simulate", "t,force_n,quadrants\n0,0,\ninf,0.5,1\n",
                          "line 3: scenario time and force must be finite"),
    "scenario_time_nan": ("simulate", "t,force_n,quadrants\nnan,0,\n1,0.5,1\n",
                          "line 2: scenario time and force must be finite"),
    "scenario_force_nan": ("simulate", "t,force_n,quadrants\n0,0,\n1,nan,1\n",
                           "line 3: scenario time and force must be finite"),
    "scenario_force_inf": ("simulate", "t,force_n,quadrants\n0,0,\n1,inf,1\n",
                           "line 3: scenario time and force must be finite"),
    "truth_force_nan": ("report", "t,force_n,quadrants\n0,0,\n1,nan,1\n",
                        "line 3: scenario time and force must be finite"),
    "dataset_signal_nan": ("calibrate", "v,force_n\n0.1,0\nnan,0.1\n",
                           "line 3: dataset fields must be finite"),
    "dataset_force_inf": ("calibrate", "v,force_n\n0.1,-inf\n",
                          "line 2: dataset fields must be finite"),
    "dataset_weight_inf": ("calibrate", "v,force_n,weight_gw\n0.1,0,5\n0.2,0.1,inf\n",
                           "line 3: dataset fields must be finite"),
}

#: A config line -> the error message after the config file's path.
BAD_CONFIG_LINES = {
    "sample_rate = inf": " line 2: sample_rate must be finite",
    "gain = nan": " line 2: gain must be finite",
    "gain = -inf": " line 2: gain must be finite",
    "rail_high = 1e400": " line 2: rail_high must be finite",
    "element_rest = 1e6,nan,1e6,1e6": " line 2: element_rest must be finite",
    "supply_voltage = -5": ": supply voltage must be positive",
    "supply_voltage = 0": ": supply voltage must be positive",
    "seed = -1": ": seed must be non-negative",
    "kfold = 1": ": kfold must be at least 2",
    "repeats = 0": ": repeats must be at least 1",
    "filter_window = 0": ": filter_window must be at least 1",
    "signal_units = amps": ": signal_units must be one of ('volts', 'counts')",
}


#: A --gain value -> the error message.
BAD_GAINS = {
    "nan": "--gain must be finite, got nan",
    "inf": "--gain must be finite, got inf",
    "-inf": "--gain must be finite, got -inf",
    "0": "--gain must be positive",
    "-1": "--gain must be positive",
}

#: JSON kind -> a model file of that kind that is not an object.
NON_OBJECT_MODELS = {
    "array": "[1, 2]",
    "string": '"tactsim-model-v1"',
    "integer": "3",
    "float": "2.5",
    "boolean": "true",
    "null": "null",
}

#: The "order" member of a two-coefficient model file that is not a JSON integer.
NON_INTEGER_ORDERS = {
    "true": "true",
    "float": "1.0",
    "string": '"1"',
    "null": "null",
}

STREAM_LINE = "0.0,1,2,3,4,5\n"
FRAME_LINE = "0.0,0.0,0.0,0,0,0,0,none\n"


class TestMalformedInputs:
    @pytest.mark.parametrize("case", sorted(NON_FINITE_INPUTS))
    def test_non_finite_number_names_its_line(self, case, capsys, tmp_path):
        command, text, message = NON_FINITE_INPUTS[case]
        path = tmp_path / "input.csv"
        path.write_text(text)
        if command == "report":
            frames = tmp_path / "frames.csv"
            frames.write_text("0.0,0.0,0.0,0,0,0,0,none\n")
            args = ("report", frames, "--truth", path)
        else:
            args = (command, path)
        code, out, err = run(capsys, *args)
        assert (code, out, err) == (2, "", f"tactsim: error: {message}\n")

    @pytest.mark.parametrize("line", sorted(BAD_CONFIG_LINES))
    def test_bad_config_names_the_file(self, line, capsys, tmp_path, workdir):
        config = tmp_path / "x.cfg"
        config.write_text(f"# deployment\n{line}\n")
        code, out, err = run(capsys, "simulate", workdir / "scenario.csv", "--config", config)
        expected = f"tactsim: error: {config}{BAD_CONFIG_LINES[line]}\n"
        assert (code, out, err) == (2, "", expected)

    @pytest.mark.parametrize("command", ("simulate", "calibrate", "estimate", "report"))
    @pytest.mark.parametrize("gain", sorted(BAD_GAINS))
    def test_bad_gain_flag_is_usage_error(self, command, gain, capsys, tmp_path, workdir,
                                          model_path):
        stream, frames = tmp_path / "stream.csv", tmp_path / "frames.csv"
        stream.write_text(STREAM_LINE)
        frames.write_text(FRAME_LINE)
        inputs = {
            "simulate": (workdir / "scenario.csv",),
            "calibrate": (workdir / "calibration.csv",),
            "estimate": (stream, "-m", model_path),
            "report": (frames,),
        }
        code, out, err = run(capsys, command, *inputs[command], f"--gain={gain}")
        assert (code, out, err) == (1, "", f"tactsim: error: {BAD_GAINS[gain]}\n")

    @pytest.mark.parametrize("kind", sorted(NON_OBJECT_MODELS))
    def test_model_file_that_is_not_an_object(self, kind, capsys, tmp_path):
        model, stream = tmp_path / "model.json", tmp_path / "stream.csv"
        model.write_text(NON_OBJECT_MODELS[kind] + "\n")
        stream.write_text(STREAM_LINE)
        code, out, err = run(capsys, "estimate", stream, "-m", model)
        assert (code, out, err) == (2, "", f"tactsim: error: model file {model}: not a JSON object\n")

    @pytest.mark.parametrize("kind", sorted(NON_INTEGER_ORDERS))
    def test_model_order_that_is_not_an_integer(self, kind, capsys, tmp_path):
        model, stream = tmp_path / "model.json", tmp_path / "stream.csv"
        order = NON_INTEGER_ORDERS[kind]
        model.write_text('{"format": "tactsim-model-v1", "order": %s, '
                         '"coefficients": [-0.05, 0.3], "signal_units": "volts"}\n' % order)
        stream.write_text(STREAM_LINE)
        code, out, err = run(capsys, "estimate", stream, "-m", model)
        expected = f"tactsim: error: model file {model}: order must be an integer, got {order}\n"
        assert (code, out, err) == (2, "", expected)

    @pytest.mark.parametrize("force", ("1e200", "1.2e154"))
    def test_report_rmse_that_overflows_is_inf(self, force, capsys, tmp_path, workdir):
        frames = tmp_path / "frames.csv"
        frames.write_text(f"0.0,{force},{force},0,0,0,0,none\n"
                          f"0.5,{force},{force},0,0,0,0,none\n")
        code, out, err = run(capsys, "report", frames, "--truth", workdir / "scenario.csv",
                             "--rmse")
        assert (code, err) == (0, "")
        assert out.endswith("\nrmse_n,inf\n")


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


class TestReportMemory:
    """``report --truth --rmse`` summarizes a frame file in the memory of one block."""

    @staticmethod
    def report_peak(tmp_path, frames, capsys):
        """Peak traced memory of ``tactsim report --truth --rmse`` on ``frames`` lines."""
        import tracemalloc

        scenario, path = tmp_path / "scenario.csv", tmp_path / "frames.csv"
        steps = (f"{600 * k},{0.25 * (k % 5)},{'1+2' if k % 5 else ''}\n" for k in range(40))
        scenario.write_text("t,force_n,quadrants\n" + "".join(steps))
        tails = ("0,0,0,0,none", "1,0,0,0,point", "1,1,0,0,line", "1,1,1,1,area")
        with open(path, "w") as handle:
            handle.writelines(
                f"{n / 9.6!r},{0.25 * (n % 7)!r},{(n % 97) / 64!r},{tails[n % 4]}\n"
                for n in range(frames))
        tracemalloc.start()
        try:
            code = main(["report", str(path), "--truth", str(scenario), "--rmse"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 0, err
        summary = dict(line.split(",") for line in out.splitlines())
        assert summary["frames"] == str(frames)
        assert 0.0 < float(summary["rmse_n"]) < 2.0
        return peak

    def test_peak_does_not_grow_with_frame_count(self, tmp_path, capsys):
        short = self.report_peak(tmp_path, 50_000, capsys)
        long = self.report_peak(tmp_path, 200_000, capsys)
        assert short < 3_000_000 and long < 3_000_000
        # within one block: 1,024 lines and their fields
        assert abs(long - short) < 1024 * 200


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


#: Each reader of an input file -> the command line that reads {bad} with it.
INPUT_READERS = {
    "config": ("simulate", "{scenario}", "--config", "{bad}"),
    "scenario": ("simulate", "{bad}"),
    "truth": ("report", "{frames}", "--truth", "{bad}"),
    "dataset": ("calibrate", "{bad}"),
    "model": ("estimate", "{stream}", "-m", "{bad}"),
    "stream": ("estimate", "{bad}", "-m", "{model}"),
    "frames": ("report", "{bad}"),
}

CSV_FIELD_LIMIT = csv.field_size_limit()

#: A scenario or dataset file -> its command and the error message. Rows are
#: numbered by the file line they start on, also after a field that spans lines.
CSV_TABLE_ERRORS = {
    "after_multi_line_field": ("simulate", 't,force_n,quadrants\n0,0,\n1,0.2,"1\n+2"\n2,abc,\n',
                               "line 5: could not convert string to float: 'abc'"),
    "in_multi_line_field": ("simulate", 't,force_n,quadrants\n0,0,\n1,abc,"1\n+2"\n2,0,\n',
                            "line 3: could not convert string to float: 'abc'"),
    "dataset_after_multi_line_field": ("calibrate", 'v,force_n\n"0.1\n",0.2\n0.2,abc\n',
                                       "line 4: could not convert string to float: 'abc'"),
    "oversized_scenario_field": ("simulate",
                                 "t,force_n,quadrants\n0,0,\n1,0.2," + "1" * (CSV_FIELD_LIMIT + 1),
                                 f"line 3: field larger than field limit ({CSV_FIELD_LIMIT})"),
    "oversized_dataset_field": ("calibrate", "v,force_n\n0.1," + "0" * (CSV_FIELD_LIMIT + 1) + "\n",
                                f"line 2: field larger than field limit ({CSV_FIELD_LIMIT})"),
}


def overflow_dataset(tmp_path, v, force):
    """A 20-row dataset file with signals ``v(i)`` and forces ``force(i)``."""
    path = tmp_path / "overflow.csv"
    path.write_text("v,force_n\n" + "".join(f"{v(i)!r},{force(i)!r}\n" for i in range(1, 21)))
    return path


class TestExitCodeRule:
    """Only toolkit errors and unreadable files become exit codes."""

    @pytest.mark.parametrize("reader", sorted(INPUT_READERS))
    def test_file_that_is_not_utf8_is_a_data_error(self, reader, capsys, tmp_path, workdir,
                                                   model_path):
        bad, stream, frames = tmp_path / "bad", tmp_path / "stream.csv", tmp_path / "frames.csv"
        bad.write_bytes(b"t,force_n,quadrants\n0,0,\xff\n")
        stream.write_text(STREAM_LINE)
        frames.write_text(FRAME_LINE)
        paths = dict(bad=bad, stream=stream, frames=frames, model=model_path,
                     scenario=workdir / "scenario.csv")
        args = [arg.format(**paths) for arg in INPUT_READERS[reader]]
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "")
        assert err.startswith(f"tactsim: error: {bad}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    def test_stdin_that_is_not_utf8_is_a_data_error(self, capsys, monkeypatch, model_path):
        # Read as UTF-8 whatever stdin's own encoding; in latin-1 0xff would decode.
        stdin = io.TextIOWrapper(io.BytesIO(b"0.0,1,2,3,4,5\n\xff\n"), encoding="latin-1")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "estimate", "-", "-m", model_path)
        assert (code, out) == (2, "")
        assert err.startswith("tactsim: error: -: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("k", (1, 3))
    def test_frame_before_the_truth_start_names_its_line(self, k, capsys, tmp_path):
        truth, frames = tmp_path / "truth.csv", tmp_path / "frames.csv"
        truth.write_text("t,force_n,quadrants\n0.5,0.2,1\n2.0,0.0,\n")
        times = [0.5, 0.75, 1.0]
        times[k - 1] = 0.0
        frames.write_text("".join(f"{t!r},0.1,0.1,1,0,0,0,point\n" for t in times))
        code, out, err = run(capsys, "report", frames, "--truth", truth, "--rmse")
        message = f"line {k}: time 0.0 s is before the scenario start (0.5 s)"
        assert (code, out, err) == (2, "", f"tactsim: error: {message}\n")

    def test_design_matrix_overflow_is_a_fit_failure(self, capfd, tmp_path):
        dataset = overflow_dataset(tmp_path, lambda i: 1e154 * (1 + i / 10), lambda i: i / 10)
        code, out, err = run(capfd, "calibrate", dataset, "--orders", "2")
        message = "repeat 0, test fold 0: signals too large for an order-2 fit: v^2 overflows"
        assert (code, out, err) == (3, "", f"tactsim: error: {message}\n")

    def test_coefficient_overflow_is_a_fit_failure(self, capfd, tmp_path):
        dataset = overflow_dataset(tmp_path, lambda i: i / 10, lambda i: 1.7e308 * (-1) ** i)
        code, out, err = run(capfd, "calibrate", dataset, "--orders", "3")
        message = "repeat 0, test fold 0: order-3 fit overflows: model coefficients must be finite"
        assert (code, out, err) == (3, "", f"tactsim: error: {message}\n")

    def test_coefficient_overflow_prints_no_warning(self, capfd, tmp_path):
        # Folds before the failing one predict inf; they must not warn.
        dataset = overflow_dataset(tmp_path, lambda i: i / 10, lambda i: 1.7e308 * (-1) ** i)
        code, out, err = run(capfd, "calibrate", dataset, "--orders", "1")
        message = "repeat 9, test fold 4: order-1 fit overflows: model coefficients must be finite"
        assert (code, out, err) == (3, "", f"tactsim: error: {message}\n")

    @pytest.mark.parametrize("case", sorted(CSV_TABLE_ERRORS))
    def test_csv_table_error_names_its_file_line(self, case, capsys, tmp_path):
        command, text, message = CSV_TABLE_ERRORS[case]
        path = tmp_path / "input.csv"
        path.write_text(text)
        code, out, err = run(capsys, command, path)
        assert (code, out, err) == (2, "", f"tactsim: error: {message}\n")

    def test_gain_past_the_range_table_is_a_data_error(self, capsys, tmp_path, model_path):
        stream = tmp_path / "stream.csv"
        stream.write_text(STREAM_LINE)
        code, out, err = run(capsys, "estimate", stream, "-m", model_path, "--gain", "500")
        assert (code, out, err) == (2, "", "tactsim: error: resolution must be positive\n")

    @pytest.mark.parametrize("command", ("simulate", "estimate"))
    def test_config_whose_chain_overflows_is_a_data_error(self, command, capsys, tmp_path,
                                                          model_path):
        config, scenario, stream = tmp_path / "x.cfg", tmp_path / "s.csv", tmp_path / "st.csv"
        config.write_text("element_signal_delta = 1e308\n")
        scenario.write_text("t,force_n,quadrants\n0,0.5,1+2+3+4\n1,0,\n")
        stream.write_text(STREAM_LINE)
        inputs = {"simulate": (scenario,), "estimate": (stream, "-m", model_path)}
        code, out, err = run(capsys, command, *inputs[command], "--config", config)
        assert (code, out, err) == (2, "", "tactsim: error: amplifier input must be finite\n")

    @pytest.mark.parametrize("text, message", (
        ("fabric_rest = 1e308\n", "bridge arm resistances overflow"),
        ("supply_voltage = 1e308\nrail_high = 1e308\nadc_full_scale = 1e308\n",
         "ADC input times the largest code overflows"),
    ))
    def test_chain_overflow_is_found_before_any_sample(self, text, message, capsys, tmp_path,
                                                       workdir):
        config, output = tmp_path / "x.cfg", tmp_path / "out.csv"
        config.write_text(text)
        code, out, err = run(capsys, "simulate", workdir / "scenario.csv", "--config", config,
                             "-o", output)
        assert (code, out, err) == (2, "", f"tactsim: error: {message}\n")
        assert not output.exists()

    def test_signal_that_overflows_names_its_line(self, capsys, tmp_path, model_path):
        config, stream = tmp_path / "x.cfg", tmp_path / "st.csv"
        config.write_text("adc_full_scale = 1.7e308\n")
        stream.write_text("0.0,1,0,0,0,0\n0.1,200,0,0,0,0\n")
        code, out, err = run(capsys, "estimate", stream, "-m", model_path, "--config", config)
        assert (code, len(out.splitlines())) == (2, 1)
        assert err == "tactsim: error: line 2: signal value must be finite\n"

    def test_value_error_inside_a_command_propagates(self, monkeypatch, tmp_path, workdir):
        from tactsim import cli

        def load_scenario(path):
            raise ValueError("a caller error")

        monkeypatch.setattr(cli, "load_scenario", load_scenario)
        with pytest.raises(ValueError, match="^a caller error$"):
            main(["simulate", str(workdir / "scenario.csv")])


#: Values drawn for every config key: zeros, the smallest and largest
#: floats, integers past 64 bits, ADC widths at and past exact floats,
#: non-finite spellings, a non-integer, and a few ordinary values.
BOUNDARY_VALUES = ("0", "-0.0", "5e-324", "1e308", "-1e308", str(2**64), str(10**30), "53",
                   "54", "nan", "-inf", "inf", "Infinity", "1.5", "1", "8", "1e5", "1.5e6")


@st.composite
def config_texts(draw):
    """A config file setting a few keys to boundary values; the four-value
    keys get three, four or five of them."""
    lines = []
    for key in draw(st.lists(st.sampled_from(sorted(_KEYS)), min_size=1, max_size=6,
                             unique=True)):
        parse = _KEYS[key][2]
        if parse is str:
            value = draw(st.sampled_from(("volts", "counts", "nan")))
        elif parse is _four_floats:
            count = draw(st.sampled_from((4, 4, 3, 5)))
            value = ",".join(draw(st.lists(st.sampled_from(BOUNDARY_VALUES),
                                           min_size=count, max_size=count)))
        else:
            value = draw(st.sampled_from(BOUNDARY_VALUES))
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A one-row scenario at t = 0 (one tick at any rate), a two-line
    stream and a linear model in each signal unit."""
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "scenario.csv").write_text("t,force_n,quadrants\n0,0.5,1+2\n")
    (directory / "stream.csv").write_text("0.0,0,1,1,1,1\n0.1,1,0,0,0,0\n")
    for units in ("volts", "counts"):
        save_model(directory / f"{units}.json", PolynomialModel((-0.05, 0.3), units))
    return directory


@settings(max_examples=250, deadline=None, derandomize=True)
@given(text=config_texts(), units=st.sampled_from(("volts", "counts")))
def test_config_fuzz_exits_with_one_error_line(fuzz_inputs, text, units):
    config, output = fuzz_inputs / "fuzz.cfg", fuzz_inputs / "out.csv"
    config.write_text(text)
    commands = {
        "simulate": ("simulate", fuzz_inputs / "scenario.csv"),
        "estimate": ("estimate", fuzz_inputs / "stream.csv", "-m", fuzz_inputs / f"{units}.json"),
    }
    for command, args in commands.items():
        output.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
            warnings.simplefilter("always")
            code = main([str(a) for a in (*args, "--config", config, "-o", output)])
        err = stderr.getvalue()
        assert code in (0, 1, 2, 3)
        assert [str(w.message) for w in caught] == []
        if code:
            assert err.startswith("tactsim: error: ") and err.count("\n") == 1, err
            assert command != "simulate" or not output.exists()
        else:
            assert err == ""
            if command == "simulate":
                top = load_config(config).adc.max_code
                codes = output.read_text().strip().split(",")[1:]
                assert all(0 <= int(c) <= top for c in codes)
