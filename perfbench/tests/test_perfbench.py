"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import candlekit.nn.layers as layers
from candlekit.nn import Sequential

import run
import tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _originals(tr):
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tr._targets()]


def test_wrappers_put_the_original_names_back():
    tr = tracer.Tracer()
    before = _originals(tr)
    with pytest.raises(RuntimeError):
        with tr.installed(pass_id=0):
            for owner, attr, original in before:
                assert owner.__dict__[attr] is not original, (owner, attr)
            raise RuntimeError("pass failed")
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_self_time_on_a_hand_built_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]; e [12, 13] is top level.
    spans = [
        ["experiment.a", 0.0, 10.0, -1, 0, None],
        ["raster.b", 1.0, 4.0, 0, 0, None],
        ["raster.c", 5.0, 9.0, 0, 0, None],
        ["nn.d", 6.0, 7.0, 2, 0, None],
        ["nn.e", 12.0, 13.0, -1, 0, None],
    ]
    assert tracer.self_times(spans) == [3.0, 3.0, 3.0, 1.0, 1.0]
    tr = tracer.Tracer()
    tr.spans = spans
    m = tracer.per_layer(tr, wall_s=15.0, untraced_wall_s=14.0)
    assert m["layer.experiment.self_s"] == 3.0
    assert m["layer.raster.self_s"] == 6.0
    assert m["layer.nn.self_s"] == 2.0
    assert m["other_s"] == 4.0  # 15 minus the top-level spans (10 + 1)
    assert m["trace.overhead_s"] == 1.0


def test_computed_conv_counts_for_a_tiny_shape():
    spec = layers.Conv2D(2, 3, 3, 1, 1)
    x = np.ones((1, 2, 4, 4), dtype=np.float32)
    # 4x4 output, M = 16 patches of K = 2*3*3 = 18 values, 3 output channels.
    flops, nbytes = tracer._kernel_counts(spec, x.shape, x.itemsize, backward=False)
    assert flops == 2 * 16 * 18 * 3
    assert nbytes == 16 * 18 * 4  # float32 patch matrix
    assert tracer._kernel_counts(spec, (1, 3, 4, 4), 4, backward=True) == (2 * flops, nbytes)

    net = Sequential([spec], (2, 4, 4), seed=1)
    tr = tracer.Tracer()
    with tr.installed(pass_id=0):
        y, caches = net.forward(x)
        net.backward(np.ones_like(y), caches)
    m = tracer.per_layer(tr, wall_s=1.0, untraced_wall_s=1.0)
    assert m["nn.conv2d.flops"] == 3 * flops
    assert m["nn.conv2d.im2col_bytes"] == 2 * nbytes
    assert m["nn.conv2d.calls"] == 2
    assert m["nn.conv2d.bwd_im2col_ratio"] == 1.0  # backward rebuilds the patch matrix


def test_benchmark_json_names_every_metric_the_run_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == tracer.per_layer_names()
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOAD_NAMES)


def _bench(tmp_path, *args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )


def test_a_second_seed_finishes_with_no_failures(tmp_path):
    out = _bench(tmp_path, "--workload", "dataset_roundtrip", "--seed", "3", "--seconds", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in doc["end_to_end"]}
    assert list((tmp_path / ".perfbench").iterdir()) == []  # program outputs removed


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_planted", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
