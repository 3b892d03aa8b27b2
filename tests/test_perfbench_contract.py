"""The names and call shapes that perfbench relies on still exist in the package.

perfbench's tracer swaps package functions by name and its workloads call them
with fixed arguments; a rename there would otherwise only show as a metric that
reads 0 or a benchmark that no longer runs.
"""

import inspect
import types
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from candlekit import datasets, decompose, experiment, nn
from candlekit.nn import layers

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# names the tracer still lists whose functions the package has since removed
DEAD = {
    "candlekit.experiment.train_subchart_pipeline",
    "candlekit.datasets.resize_nearest",
    "candlekit.datasets.subcharts",
}


def test_tracer_finds_every_live_name():
    # tracer.py is executed from its source text, so nothing is written under perfbench/
    path = PERFBENCH / "tracer.py"
    tracer = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    t = tracer.Tracer()
    t._targets()
    assert set(t.missing) <= DEAD


# each call as perfbench/workloads.py makes it
CALLS = [
    (datasets.planted_signal_set, (600,), {"seed": 7}),
    (datasets.assemble_training_set, ([], (32, 32), (16, 16)), {"include_pattern": True}),
    (datasets.assemble_subchart_dataset, ([], (16, 16), None), {"k": 3, "stride": 1}),
    (experiment.build_dataset, (None, "desk_a", Path("out")), {}),
    (experiment.run_experiment, (None,), {"out_dir": Path("out")}),
    (decompose.inverse_parse, (None, None, (1.0, 2.0)), {}),
]


@pytest.mark.parametrize("fn, args, kwargs", CALLS, ids=[fn.__name__ for fn, _, _ in CALLS])
def test_workload_calls_still_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_run_arm_takes_the_arm_fourth():
    # the tracer names each run_arm span from args[3].arm_name
    name = list(inspect.signature(experiment.run_arm).parameters)[3]
    assert get_type_hints(experiment.run_arm)[name] is experiment.ArmSpec


def test_conv2d_builds_patches_through_the_name_the_tracer_wraps(monkeypatch):
    # the tracer wraps layers.sliding_window_view only if the module has that name, and sees
    # only the calls made through it; else nn.conv2d.bwd_im2col_ratio silently reads 0
    assert "sliding_window_view" in vars(layers)
    calls = []
    view = layers.sliding_window_view

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return view(*args, **kwargs)

    monkeypatch.setattr(layers, "sliding_window_view", counted)
    spec = nn.Conv2D(2, 3, 3, pad=1)
    params = nn.init_params(spec, 0)
    y, cache = nn.forward(spec, params, np.ones((2, 2, 5, 6), np.float32))
    forward_calls = len(calls)
    nn.backward(spec, params, cache, np.ones_like(y))
    assert forward_calls > 0 and len(calls) > forward_calls
