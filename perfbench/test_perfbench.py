"""Fast tests of the benchmark itself, on the 4-segment test hand.

    python3 -m pytest -q perfbench

They show that every workload completes with its checks passing, traced
and untraced, that a corrupted output fails its check, and that the
oracles agree with the program where both compute the same quantity.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from softprop import geometry  # noqa: E402

PLANS = {
    "datagen": {"worker": 1, "batch": 2, "rounds": 2},
    "servo": {"worker": 0, "keyframes": 3, "hold": 2, "train_epochs": 5},
    "calib": {"worker": 0, "walk": 5, "points": 100, "max_evals": 27, "calls": 1,
              "train_epochs": 5},
    "learn": {"worker": 0, "train_frames": 16, "heldout_frames": 4, "epochs": 3,
              "calls": 2},
}


def _run_workload(name, workdir):
    w = workloads.WORKLOADS[name]
    inputs = w.setup("test", 5, PLANS[name], workdir)
    outcome = w.run(inputs, PLANS[name], 5, workloads.Timer())
    return w, inputs, outcome


@pytest.mark.parametrize("name", sorted(PLANS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_completes_with_checks_passing(name, trace, tmp_path):
    result, tracer = run.measure(name, 5, 1.0, trace, hand="test", workdir=tmp_path,
                                 plan=PLANS[name])
    assert result["problems"] == []
    report = run.combine([result], trace)
    assert report["correct"] and report["failed"] == 0 and report["attempted"] > 0
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(report["metrics"]) == [n for n, _ in expected]
    for name_, unit in expected:
        value = report["metrics"][name_]["value"]
        assert report["metrics"][name_]["unit"] == unit
        assert np.isfinite(value) and value >= 0.0
    if trace:
        assert tracer.spans and "newton_iterations" in result["fingerprint"]
        assert "timed" in {s.phase for s in tracer.spans}
        # uninstall() put every original function back
        from softprop import controller, simulator
        assert controller.solve_hand is simulator.solve_hand
        assert simulator.solve_hand.__module__ == "softprop.simulator"
        assert not hasattr(simulator.solve_hand, "__wrapped__")
    else:
        for name_ in ("setup_s", "ops_per_s", "op_ms_p50", "peak_rss_mb"):
            assert report["metrics"][name_]["value"] > 0.0


def test_same_seed_repeats_the_same_work(tmp_path):
    first = run.measure("servo", 2, 1.0, False, hand="test", workdir=tmp_path / "a",
                        plan=PLANS["servo"])[0]["fingerprint"]
    second = run.measure("servo", 2, 1.0, True, hand="test", workdir=tmp_path / "b",
                         plan=PLANS["servo"])[0]["fingerprint"]
    second.pop("newton_iterations")
    assert first == second


def test_moved_node_fails_datagen_check(tmp_path):
    w, inputs, outcome = _run_workload("datagen", tmp_path)
    assert w.check(inputs, outcome) == []
    _, _, _, loaded = outcome.data["batches"][0]
    finger = inputs["hand"].fingers[0]
    loaded[0].nodes[0][finger.base_fixed[0]] += np.array([0.0, 0.0, 0.5])
    loaded[1].nodes[0][finger.tip_node] += np.array([0.0, 0.0, 0.5])
    problems = w.check(inputs, outcome)
    assert any("frame 0 finger 0: base nodes moved" in p for p in problems)
    assert any("load_dataset differs" in p for p in problems)
    assert any("frame 1 finger 0: warm re-solve took" in p for p in problems)


def test_inverted_tet_fails_datagen_check(tmp_path):
    w, inputs, outcome = _run_workload("datagen", tmp_path)
    frame = outcome.data["batches"][1][3][0]
    finger = inputs["hand"].fingers[2]
    a, b, c, d = finger.rest.tets[-1]
    # Reflect the tet's last node through the plane of the other three.
    x = frame.nodes[2]
    normal = np.cross(x[b] - x[a], x[c] - x[a])
    normal /= np.linalg.norm(normal)
    x[d] -= 2.0 * ((x[d] - x[a]) @ normal) * normal
    assert any("inverted tet" in p for p in w.check(inputs, outcome))


def test_wrong_loss_fails_calib_check(tmp_path):
    w, inputs, outcome = _run_workload("calib", tmp_path)
    assert w.check(inputs, outcome) == []
    result = outcome.data["results"][0]
    outcome.data["results"][0] = dataclasses.replace(result, loss=result.loss * (1 + 1e-6))
    assert any("oracle Chamfer" in p for p in w.check(inputs, outcome))


def test_mismatched_error_series_fails_servo_check(tmp_path):
    w, inputs, outcome = _run_workload("servo", tmp_path)
    assert w.check(inputs, outcome) == []
    errors = outcome.data["errors"]
    errors[2] = (errors[2][0] + 1e-6,)
    assert any("step 2: reported error" in p for p in w.check(inputs, outcome))
    errors.pop()
    assert "error series" in w.check(inputs, outcome)[0]


def test_wrong_evaluation_fails_learn_check(tmp_path, monkeypatch):
    w, inputs, outcome = _run_workload("learn", tmp_path)
    assert w.check(inputs, outcome) == []
    from softprop import estimator
    evaluate = estimator.evaluate

    def off_by_a_micron(*args, **kwargs):
        out = evaluate(*args, **kwargs)
        return dict(out, mean_mm=out["mean_mm"] + 1e-3)

    monkeypatch.setattr(estimator, "evaluate", off_by_a_micron)
    assert any("oracle" in p for p in w.check(inputs, outcome))


def test_oracles_agree_with_the_program():
    rng = np.random.default_rng(0)
    obs, pred = rng.normal(size=(700, 3)), rng.normal(size=(300, 3))
    assert oracles.chamfer(obs, pred) == pytest.approx(geometry.chamfer_ucd(obs, pred), rel=1e-12)
    assert oracles.mean_nn(obs, pred) == pytest.approx(
        geometry.mean_nn_distance(obs, pred), rel=1e-12)
    hand = workloads.build_hand("test")
    mesh = hand.fingers[0].rest
    np.testing.assert_allclose(oracles.tet_volumes(mesh.nodes, mesh.tets),
                               geometry.signed_volumes(mesh.nodes, mesh.tets), rtol=1e-12)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_command_line_run_on_the_test_hand():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "datagen", "--seed", "4",
         "--seconds", "1", "--trace", "0", "--hand", "test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(report) == ["attempted", "correct", "failed", "metrics"]
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] == workloads.WORKERS * workloads.DATAGEN_BATCH
    assert sorted(report["metrics"]) == sorted(n for n, _ in metrics.END_TO_END)
    fingerprint = [line for line in proc.stderr.splitlines() if line.startswith("fingerprint ")]
    assert len(json.loads(fingerprint[0].split(" ", 1)[1])["workers"]) == workloads.WORKERS


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "learn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
