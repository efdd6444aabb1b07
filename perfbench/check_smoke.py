"""Smoke test of the benchmark itself, at a tiny run size.

    python3 -m pytest -q perfbench/check_smoke.py

The file name keeps it out of the repository's default test collection: it
times and spawns processes, which the unit suite should not.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402

sys.path.insert(0, str(wl.SRC))

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture
def tiny(monkeypatch):
    """One 100-frame cycle per clip, two rounds, a short training.

    A single cycle has the same skip ratio as the full clips, so the
    recorded values still apply.
    """
    monkeypatch.setattr(wl, "VIDEOS", {name: wl.Video(v.moving, 100, v.obj_threshold)
                                       for name, v in wl.VIDEOS.items()})
    monkeypatch.setattr(wl, "TRAINING", wl.Training(frames=16, holdout=8, epochs=1))
    monkeypatch.setattr(wl, "MIN_ROUNDS", 2)
    monkeypatch.setattr(worker, "TRACE_REPEATS", 1)
    monkeypatch.setattr(worker, "PROBE_REPEATS", 1)
    monkeypatch.setattr(worker, "BATCH_REPEATS", 1)


def _measure(workload: str, tmp_path: Path) -> dict:
    inputs = wl.prepare(workload, 3, tmp_path / workload)
    if workload == "train-evolve":
        return worker.measure_training(inputs, tmp_path / workload, 0.0, 3)
    return worker.measure_video(workload, inputs, tmp_path / workload, 0.0)


def _outcome(workload: str, obs: dict) -> run.Outcome:
    if workload == "train-evolve":
        return run.training_outcome(obs, EXPECTED[workload])
    return run.video_outcome(workload, obs, EXPECTED[workload], EXPECTED["reference"])


def _corrupt(path: Path) -> str:
    """Flip one byte of an output file (or add one to an empty file)."""
    data = bytearray(path.read_bytes()) or bytearray(b"\n")
    data[0] ^= 0x01
    path.write_bytes(bytes(data))
    return wl.digest(path)


@pytest.mark.parametrize("workload", wl.ALL)
def test_checks_pass_and_fire(workload, tiny, tmp_path):
    obs = _measure(workload, tmp_path)
    outcome = _outcome(workload, obs)
    assert [c.name for c in outcome.checks if not c.ok] == []
    assert outcome.failed_operations == 0
    assert END_TO_END <= set(outcome.metrics)

    # A corrupted streamed detection file must fail the byte-for-byte check.
    bad = json.loads(json.dumps(obs))
    bad["stream_digests"][-1] = _corrupt(tmp_path / workload / "stream.txt")
    failed = {c.name for c in _outcome(workload, bad).checks if not c.ok}
    assert failed == {"stream_equals_cli"}

    # A gate that infers once more than the schedule says must fail both
    # decision checks.
    bad = json.loads(json.dumps(obs))
    bits = bad["decisions"]
    bad["decisions"] = bits[:-1] + ("1" if bits[-1] == "0" else "0")
    failed = {c.name for c in _outcome(workload, bad).checks if not c.ok}
    assert failed == {"decisions_follow_schedule", "skip_ratio_recorded"}

    bad = json.loads(json.dumps(obs))
    if workload == "train-evolve":
        bad["reference"]["loss"] *= 1.001
        bad["lineages"][0]["params"][1] = bad["lineages"][0]["params"][0]
        expect = {"reference_loss_recorded", "offspring_smaller"}
    else:
        bad["reference"]["summary"][0][6] += 0.01  # objectness sum of frame 1
        bad["always_digest"] = _corrupt(tmp_path / workload / "always.txt")
        expect = {"reference_output_recorded", "always_equals_detect"}
        if workload == "static-lowthr":
            bad["candidates"] = [59] * len(bad["candidates"])
            expect.add("candidates_per_frame")
    failed = {c.name for c in _outcome(workload, bad).checks if not c.ok}
    assert failed == expect


@pytest.mark.parametrize("scale,fails", [(1.001, True), (1 + 1e-6, False)])
def test_reference_pins_forward(scale, fails, monkeypatch, tmp_path):
    """A forward pass that returns values 0.1% off fails the reference check;
    one that is off by float32 rounding noise, as a kernel summing in
    another order would be, passes."""
    from skipdet import pipeline
    from skipdet.tensor import Tensor

    forward = pipeline.forward
    monkeypatch.setattr(pipeline, "forward",
                        lambda net, store, x: Tensor(forward(net, store, x).data * scale))
    inputs = wl.prepare("static-gated", 3, tmp_path)
    ref = worker.reference_video(inputs, tmp_path)
    failed = {c.name for c in run._reference_checks(ref, EXPECTED["reference"]) if not c.ok}
    assert failed == ({"reference_output_recorded"} if fails else set())


def test_trace_reports_every_per_layer_metric(tiny, tmp_path):
    inputs = {w: wl.prepare(w, 3, tmp_path / w) for w in wl.ALL}
    job = {"seed": 3, "inputs": inputs, "spans_out": str(tmp_path / "spans.jsonl")}
    outcome = run.trace_outcome(worker.trace_suite(job, tmp_path), EXPECTED)
    assert [c.name for c in outcome.checks if not c.ok] == []
    assert set(outcome.metrics) == PER_LAYER
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {"id", "name", "start", "end", "parent", "run"} <= set(spans[0])
    assert {s["run"] for s in spans} == set(wl.ALL)


def test_command_prints_the_declared_metrics():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "static-gated", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=wl.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(wl.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "motion-gated",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
