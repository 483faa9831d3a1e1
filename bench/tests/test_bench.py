"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import tactsim.cli
import run
import spans
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _write(plan, directory):
    directory.mkdir()
    workloads.write_inputs(plan, directory, tactsim)
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_generator_is_deterministic(workload, tmp_path):
    plan = workloads.make_plan(workload, 5)
    assert plan == workloads.make_plan(workload, 5)
    assert _write(plan, tmp_path / "a") == _write(workloads.make_plan(workload, 5),
                                                  tmp_path / "b")
    other = workloads.make_plan(workload, 6)
    assert other.scenario != plan.scenario
    # The seed changes the content, never the size of the work.
    assert (other.record()["steps"], other.ticks) == (plan.record()["steps"], plan.ticks)


def test_shapes_match_the_stated_workloads():
    hold = workloads.make_plan("hold_hour", workloads.CANONICAL_SEED)
    taps = workloads.make_plan("tap_storm", workloads.CANONICAL_SEED)
    assert (hold.ticks, hold.simulated_s, len(hold.scenario)) == (34561, 3600.0, 125)
    assert (taps.ticks, len(taps.scenario)) == (19191, 2000)
    spacings = [b.time - a.time for a, b in zip(taps.scenario, taps.scenario[1:])]
    assert 0.3 - 1e-6 <= min(spacings) and max(spacings) <= 1.7 + 1e-6
    assert max(s.force for s in hold.scenario) <= 2.0
    for plan in (workloads.make_plan("hold_hour", 5, minimal=True),
                 workloads.make_plan("tap_storm", 5, minimal=True)):
        assert plan.ticks == 1


def test_flipped_byte_in_any_artifact_is_a_failure(tmp_path):
    plan = workloads.make_plan("calibrate_campaign", workloads.CANONICAL_SEED, minimal=True)
    workloads.write_inputs(plan, tmp_path, tactsim)
    ledger = run.Ledger()
    _, keys = run.run_pass(plan, tmp_path, ledger, [])
    digests, _ = run.check(plan, tmp_path, keys, ledger)
    assert len(digests) == 11
    assert not ledger.failed
    for name, index in run.artifacts.producers(plan).items():
        path = tmp_path / name
        original = path.read_bytes()
        flipped = bytearray(original)
        flipped[len(flipped) // 2] ^= 0x01
        path.write_bytes(bytes(flipped))
        ledger = run.Ledger()
        run.check(plan, tmp_path, keys, ledger, expected=digests)
        assert keys[index] in ledger.failed, name
        path.write_bytes(original)


def test_derived_report_catches_an_edited_value(tmp_path):
    plan = workloads.make_plan("tap_storm", workloads.CANONICAL_SEED, minimal=True)
    workloads.write_inputs(plan, tmp_path, tactsim)
    ledger = run.Ledger()
    _, keys = run.run_pass(plan, tmp_path, ledger, [])
    report = tmp_path / "report.txt"
    report.write_text(report.read_text().replace("frames,1", "frames,2"))
    run.check(plan, tmp_path, keys, ledger)
    assert list(ledger.failed) == [keys[-1]]


def test_metric_names_and_units_are_well_formed():
    declared = DECLARED["end_to_end"] + DECLARED["per_layer"]
    names = [m["name"] for m in declared]
    names += list(run.END_TO_END) + list(spans.LAYER_METRICS)
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in declared:
        assert UNIT.fullmatch(metric["unit"]), metric
    assert len(set(m["name"] for m in declared)) == len(declared)


def test_benchmark_json_declares_the_workloads():
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert DECLARED["command"] == ["python3", "bench/run.py"]
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_harness_prints_exactly_the_declared_metrics(trace, section):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "calibrate_campaign",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: value["unit"] for name, value in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in DECLARED[section]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hold_hour", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
