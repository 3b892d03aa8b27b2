import contextlib
import importlib
import inspect
import io
import json
import multiprocessing
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candlekit.cli import main as cli_main
from candlekit.datasets import (
    assemble_subchart_dataset,
    assemble_training_set,
    image_to_array,
    load_manifest_rows,
    planted_signal_set,
)
from candlekit.decompose import subcharts
from candlekit.errors import (
    CandlekitError,
    EmptyDataset,
    ManifestError,
    ShapeMismatch,
    SourceNotFound,
)
from candlekit.experiment import (
    ARM_MODELS,
    ModelSettings,
    _model_config,
    build_dataset,
    load_manifest,
    load_report,
    manifest_from_dict,
    render_report,
    run_arm,
    run_experiment,
)
from candlekit.labeling import LabelerParams
from candlekit import experiment, models
from candlekit.models import _PREDICT_CHUNK, ModelConfig, TrainConfig, build_model, model_input
from candlekit.nn import arrays_to_bytes, load_arrays, save_arrays
from candlekit import market_data
from candlekit.market_data import MAX_SYNTH_N, SynthParams, synth_series, window, write_csv
from candlekit.patterns import Direction, PatternKind, PatternMatch, PatternRuleParams
from candlekit.raster import (
    RasterImage, RenderSpec, read_ppm, render_pattern, render_window, resize_nearest, write_ppm,
)
from conftest import DIMS_65, LONG_INT, mutated

BASE_DOC = {
    "master_seed": 42,
    "output_dir": "out",
    "datasets": [
        {"name": "alpha", "synth": {"n": 320, "volatility": 0.02}},
        {"name": "beta", "synth": {"n": 320, "volatility": 0.03}},
        {"name": "merged", "members": ["alpha", "beta"]},
    ],
    "arms": [
        {"arm_name": "with_pattern", "model": "two_stream", "include_pattern": True},
        {"arm_name": "non_pattern", "model": "mini_cnn", "include_pattern": False},
    ],
    "model": {
        "hist_hw": [32, 32],
        "pattern_hw": [16, 16],
        "subchart_hw": [16, 16],
        "block_widths": [4, 8],
        "pattern_widths": [4],
        "fc_dim": 16,
        "latent_dim": 16,
    },
    "train": {"epochs": 1, "batch_size": 32},
}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
MANIFEST_KEYS = [
    "master_seed", "output_dir", "datasets", "arms", "model", "render", "train", "pattern",
    "labeler", "name", "synth", "csv_path", "members", "n", "arm_name", "include_pattern",
]


@st.composite
def json_manifests(draw):
    """BASE_DOC with one to three values, at any depth, set to any JSON value."""
    doc = {"root": json.loads(json.dumps(BASE_DOC))}
    for _ in range(draw(st.integers(1, 3))):
        parent, key = doc, "root"
        while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
            node = parent[key]
            keys = range(len(node)) if isinstance(node, list) else sorted(node) + MANIFEST_KEYS
            parent, key = node, draw(st.sampled_from(keys))
            if isinstance(parent, dict) and key not in parent:
                break  # a key the document lacks: add it
        parent[key] = draw(JSON_VALUES)
    return doc["root"]


def manifest(tmp_path, **overrides):
    doc = json.loads(json.dumps(BASE_DOC))
    doc.update(overrides)
    if isinstance(doc["output_dir"], str):  # a bad one goes to the loader as it is
        doc["output_dir"] = str(tmp_path / doc["output_dir"])
    return manifest_from_dict(doc, base_dir=tmp_path)


class TestManifest:
    def test_requires_master_seed(self):
        with pytest.raises(ManifestError):
            manifest_from_dict({"datasets": [], "arms": []})

    def test_synth_n_above_the_bound_fails_at_load(self, tmp_path):
        with pytest.raises(ManifestError, match=f"n in \\[1, {MAX_SYNTH_N}\\]"):
            manifest(tmp_path, datasets=[{"name": "a", "synth": {"n": MAX_SYNTH_N + 1}}])

    def test_unique_dataset_names(self, tmp_path):
        doc = {
            "master_seed": 1,
            "datasets": [{"name": "a", "synth": {"n": 50}}, {"name": "a", "synth": {"n": 50}}],
            "arms": [{"arm_name": "x", "model": "mini_cnn"}],
        }
        with pytest.raises(ManifestError):
            manifest_from_dict(doc)

    def test_unknown_merge_member(self):
        doc = {
            "master_seed": 1,
            "datasets": [{"name": "m", "members": ["ghost"]}],
            "arms": [{"arm_name": "x", "model": "mini_cnn"}],
        }
        with pytest.raises(ManifestError):
            manifest_from_dict(doc)

    def test_unknown_arm_model(self):
        doc = {
            "master_seed": 1,
            "datasets": [{"name": "a", "synth": {"n": 50}}],
            "arms": [{"arm_name": "x", "model": "perceptron"}],
        }
        with pytest.raises(ManifestError):
            manifest_from_dict(doc)

    @pytest.mark.parametrize("override", [
        {"datasets": 5},
        {"master_seed": "x"},
        {"datasets": [{"name": "a", "synth": {"n": "10"}}]},
        {"arms": [1]},
        {"render": {"candle_px": 4}},
        {"model": {"hist_hw": [0, 0]}},
        {"model": {"pattern_hw": [32]}},
        {"model": {"subchart_hw": [18, 18]}},
        {"model": {"hist_hw": "32x32"}},
        {"model": {"block_widths": []}},
        {"model": {"pattern_widths": [8, -16]}},
        {"model": {"block_widths": [8.0]}},
        {"model": {"fc_dim": 0}},
        {"model": {"latent_dim": "16"}},
        {"model": {"window": 0}},
        {"model": {"subchart_k": 0}},
        {"model": {"subchart_stride": 0}},
        {"model": {"window": 2, "subchart_k": 3}},
        {"datasets": [{"name": "..", "synth": {"n": 50}}]},
        {"datasets": [{"name": ".", "synth": {"n": 50}}]},
        {"datasets": [{"name": "/abs", "synth": {"n": 50}}]},
        {"datasets": [{"name": "a/b", "synth": {"n": 50}}]},
        {"datasets": [{"name": ".x.tmp", "synth": {"n": 50}}]},
        {"datasets": [{"name": 7, "synth": {"n": 50}}]},
        {"arms": [{"arm_name": "../x", "model": "mini_cnn"}]},
        {"arms": [{"arm_name": "x", "model": "two_stream", "include_pattern": "no"}]},
        {"datasets": [{"name": "a", "csv_path": 5}]},
        {"output_dir": 5},
        {"model": {"window": 3, "subchart_k": 3, "block_widths": [4, 8]}},
        {"datasets": [{"name": "a", "synth": {"n": 50}}, {"name": "m", "members": [["a"]]}]},
        {"arms": [{"arm_name": "x", "model": "two_stream", "include_pattern": False}]},
        {"arms": [{"arm_name": "x", "model": "mini_cnn", "include_pattern": True}]},
        {"train": {"seed": 5}},
        {"train": {"epochs": 1.5}},
        {"render": {"candle_px": 5.0}},
        {"pattern": {"trend_lookback": 2.5}},
        {"labeler": {"horizon": 2.5}},
        {"train": {"lr": -1.0}},
        {"train": {"lr": float("nan")}},
        {"train": {"epochs": True}},
        {"train": {"chronological": "no"}},
        {"train": {"chronological": False}},
        {"render": {"up_color": [0, 168.0, 0]}},
        {"pattern": {"doji_body_frac": float("nan")}},
        {"datasets": [{"name": "a", "synth": {"n": 50, "volatility": float("inf")}}]},
        {"datasets": [{"name": "a", "synth": {"n": 800, "drift": 1000.0}}]},
        {"model": {"hist_hw": [4, 4]}},
        {"model": {"pattern_hw": [2, 2]}},
        {"arms": [{"arm_name": "with_pattern", "modle": "two_stream"}]},
        {"labler": {"horizon": 3}},
        {"datasets": [{"name": "a", "synth": {"n": 50}, "memebrs": ["alpha"]}]},
        {"datasets": [{"name": "a", "synth": {"n": 50}, "csv_path": None}]},
        {"datasets": [{"name": "a", "synth": {"n": 50}, "members": []}]},
        {"datasets": [{"name": "a", "synth": {"n": 50}, 1: "x", None: "y"}]},
        {"master_seed": -1},
        {"master_seed": 2**64},
    ], ids=[
        "datasets-int", "seed-str", "synth-n-str", "arm-int", "candle_px-even",
        "hist_hw-zero", "pattern_hw-one-dim", "subchart_hw-not-div4", "hist_hw-str",
        "block_widths-empty", "pattern_widths-negative", "block_widths-float", "fc_dim-zero",
        "latent_dim-str", "window-zero", "subchart_k-zero", "subchart_stride-zero",
        "window-below-subchart_k", "name-dotdot", "name-dot", "name-abs", "name-sep",
        "name-hidden", "name-int", "arm-name-sep", "include_pattern-str", "csv_path-int",
        "output_dir-int", "window-too-short-for-cnn1d", "member-list",
        "two_stream-without-pattern", "mini_cnn-with-pattern", "train-seed",
        "epochs-float", "candle_px-float", "trend_lookback-float", "horizon-float",
        "lr-negative", "lr-nan", "epochs-bool", "chronological-str", "shuffled-split", "color-float",
        "doji_body_frac-nan", "volatility-inf", "drift-overflow", "hist_hw-too-small-for-blocks",
        "pattern_hw-too-small-for-blocks", "arm-key-typo", "document-key-typo",
        "dataset-key-typo", "null-value", "synth-with-empty-members", "non-str-keys",
        "seed-negative", "seed-2^64",
    ])
    def test_bad_types_and_values_fail_at_load(self, tmp_path, override):
        with pytest.raises(ManifestError):
            manifest(tmp_path, **override)

    @settings(max_examples=150, deadline=None)
    @given(section=st.fixed_dictionaries({}, optional={
        "hist_hw": st.lists(st.integers(1, 24), min_size=2, max_size=2),
        "pattern_hw": st.lists(st.integers(1, 12), min_size=2, max_size=2),
        "subchart_hw": st.lists(st.integers(1, 12), min_size=2, max_size=2),
        "block_widths": st.lists(st.integers(1, 3), min_size=1, max_size=4),
        "pattern_widths": st.lists(st.integers(1, 3), min_size=1, max_size=3),
        "fc_dim": st.integers(1, 4),
        "latent_dim": st.integers(1, 4),
        "window": st.integers(1, 12),
        "subchart_k": st.integers(1, 5),
        "subchart_stride": st.integers(1, 3),
    }))
    def test_model_section_loads_iff_every_arm_kind_builds(self, section):
        # Each arm kind's config is written out here, apart from _model_config,
        # since a section that fails to load gives no manifest to read it from.
        # BASE_DOC's small values stand in for keys the section lacks, to keep
        # weight initialisation quick.
        section = {**BASE_DOC["model"], **section}
        ms = {**asdict(ModelSettings()), **section}
        seq_len = (ms["window"] - ms["subchart_k"]) // ms["subchart_stride"] + 1
        try:
            for kind in ARM_MODELS:
                build_model(ModelConfig(
                    variant=kind, input_shape=(3, *ms["subchart_hw" if kind == "subchart" else "hist_hw"]),
                    block_widths=tuple(ms["block_widths"]), fc_dim=ms["fc_dim"],
                    pattern_shape=(3, *ms["pattern_hw"]), pattern_widths=tuple(ms["pattern_widths"]),
                    latent_dim=ms["latent_dim"], seq_len=seq_len,
                ))
            builds = True
        except CandlekitError:
            builds = False
        try:
            arms = [{"arm_name": m, "model": m} for m in ARM_MODELS]
            man = manifest_from_dict(dict(BASE_DOC, model=section, arms=arms))
        except ManifestError:
            assert not builds
        else:
            assert builds
            for arm in man.arms:
                build_model(_model_config(man, "alpha", arm))

    def test_readme_schema_states_the_defaults(self):
        # the JSON block under README's "Manifest schema" loads, and each
        # section in it holds its class's defaults, as the README says
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("### Manifest schema", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        man = manifest_from_dict(json.loads(block))
        assert man.pattern_params == PatternRuleParams()
        assert man.labeler_params == LabelerParams()
        assert man.render_spec == RenderSpec()
        assert man.train_config == TrainConfig()
        assert man.model_settings == ModelSettings()
        assert man.output_dir == "out"
        alpha = man.datasets[0].synth
        assert alpha.n == 700
        assert SynthParams(**{f.name: getattr(alpha, f.name) for f in fields(SynthParams)}) == SynthParams()

    def test_include_pattern_follows_the_model(self, tmp_path):
        man = manifest(tmp_path, arms=[{"arm_name": m, "model": m} for m in ARM_MODELS])
        assert [a.include_pattern for a in man.arms] == [m == "two_stream" for m in ARM_MODELS]

    @settings(max_examples=300, deadline=None)
    @given(doc=json_manifests())
    def test_json_documents_give_manifest_or_candlekit_error(self, doc):
        try:
            manifest_from_dict(doc)
        except CandlekitError:
            pass

    def test_too_deeply_nested_file_is_manifest_error(self, tmp_path):
        path = tmp_path / "man.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ManifestError):
            load_manifest(path)

    def test_load_from_file_resolves_relative_csv(self, tmp_path):
        (tmp_path / "prices.csv").write_text(
            "Date,Open,High,Low,Close\n2020-01-01,1,2,0.5,1.5\n"
        )
        doc = {
            "master_seed": 1,
            "datasets": [{"name": "file", "csv_path": "prices.csv"}],
            "arms": [{"arm_name": "x", "model": "mini_cnn"}],
        }
        path = tmp_path / "man.json"
        path.write_text(json.dumps(doc))
        man = load_manifest(path)
        assert man.base_dir == tmp_path


class TestBuildDataset:
    def test_constant_series_26_samples(self, tmp_path):
        man = manifest(
            tmp_path,
            datasets=[
                {
                    "name": "flat",
                    "synth": {"n": 60, "drift": 0.0, "volatility": 0.0, "wick_frac": 0.0},
                }
            ],
        )
        ddir = build_dataset(man, "flat")
        rows = [json.loads(l) for l in (ddir / "manifest.jsonl").read_text().splitlines()]
        assert len(rows) == 26
        assert len(list((ddir / "history").glob("*.ppm"))) == 26
        assert len(list((ddir / "pattern").glob("*.ppm"))) == 26
        assert all(r["kind"] == "doji" and r["strength"] == "strong" for r in rows)

    def test_rebuild_is_byte_identical(self, tmp_path):
        man = manifest(tmp_path)
        ddir = build_dataset(man, "alpha")
        before = {p.name: p.read_bytes() for p in sorted(ddir.rglob("*")) if p.is_file()}
        build_dataset(man, "alpha")
        after = {p.name: p.read_bytes() for p in sorted(ddir.rglob("*")) if p.is_file()}
        assert before == after

    def test_rebuild_leaves_no_stale_files(self, tmp_path):
        big = manifest(tmp_path, datasets=[{"name": "alpha", "synth": {"n": 600}}])
        small = manifest(tmp_path, datasets=[{"name": "alpha", "synth": {"n": 200}}])
        build_dataset(big, "alpha", tmp_path / "reused")
        reused = build_dataset(small, "alpha", tmp_path / "reused")
        fresh = build_dataset(small, "alpha", tmp_path / "fresh")

        def tree(d):
            return {p.relative_to(d): p.read_bytes() for p in d.rglob("*") if p.is_file()}

        assert tree(reused) == tree(fresh)
        assert [p.name for p in reused.parent.iterdir()] == ["alpha"]

    def test_too_short_series_is_empty(self, tmp_path):
        man = manifest(tmp_path, datasets=[{"name": "tiny", "synth": {"n": 30}}])
        with pytest.raises(EmptyDataset):
            build_dataset(man, "tiny")

    def test_unknown_name_is_one_error_for_build_and_members(self, tmp_path):
        man = manifest(tmp_path)
        with pytest.raises(SourceNotFound, match="'nope' not in manifest"):
            build_dataset(man, "nope")
        with pytest.raises(SourceNotFound, match="'nope' not in manifest"):
            experiment._members(man, "nope")
        assert not (tmp_path / "out" / "datasets").exists()

    def test_missing_csv(self, tmp_path):
        man = manifest(tmp_path, datasets=[{"name": "gone", "csv_path": "gone.csv"}])
        with pytest.raises(SourceNotFound):
            build_dataset(man, "gone")

    def test_pattern_images_are_crops(self, tmp_path):
        man = manifest(tmp_path)
        ddir = build_dataset(man, "alpha")
        row = json.loads((ddir / "manifest.jsonl").read_text().splitlines()[0])
        img = read_ppm((ddir / row["pattern_image_path"]).read_bytes())
        spec = man.render_spec
        assert img.width_px == 2 * spec.margin_px + row["span"] * spec.candle_px + (
            row["span"] - 1
        ) * spec.gap_px


def chart_dir(tmp_path, spec, n_candles, n_charts=3):
    """A dataset directory of ``n_charts`` history charts of ``n_candles`` candles each.

    Their pattern crops cover the last 1, 2, 3, 1, ... candles in turn.
    """
    series = synth_series(5, n_candles + n_charts)
    (tmp_path / "history").mkdir(parents=True)
    (tmp_path / "pattern").mkdir()
    rows = []
    for i in range(n_charts):
        end = n_candles - 1 + i
        hist, pat = f"history/{i}.ppm", f"pattern/{i}.ppm"
        win = window(series, end, n_candles)
        match = PatternMatch(PatternKind.DOJI, end, i % 3 + 1, Direction.NEUTRAL)
        (tmp_path / hist).write_bytes(write_ppm(render_window(win, spec)))
        (tmp_path / pat).write_bytes(write_ppm(render_pattern(win, match, spec)))
        rows.append(json.dumps({"end_index": end, "strength": "strong" if i % 2 else "weak",
                                "history_image_path": hist, "pattern_image_path": pat}))
    (tmp_path / "manifest.jsonl").write_text("\n".join(rows) + "\n")
    return tmp_path


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAssembly:
    def test_merged_training_set_counts(self, tmp_path):
        man = manifest(tmp_path)
        dirs = [build_dataset(man, "alpha"), build_dataset(man, "beta")]
        single = [assemble_training_set([d], (32, 32), (16, 16), True) for d in dirs]
        merged = assemble_training_set(dirs, (32, 32), (16, 16), True)
        assert len(merged) == len(single[0]) + len(single[1])
        assert merged.member is not None
        assert merged.pattern.shape == (len(merged), 3, 16, 16)
        for stream in (merged.history, merged.pattern):
            assert stream.dtype == np.uint8 and stream.flags.c_contiguous
            scaled = model_input(stream)
            assert scaled.dtype == np.float32
            assert scaled.max() <= 1.0 and scaled.min() >= 0.0

    def test_training_set_equals_per_image_reference(self, tmp_path):
        # a merged pair of members whose pattern crops span 1, 2 and 3 candles
        spec = RenderSpec(candle_px=3, gap_px=2, margin_px=3, height_px=24)
        dirs = [chart_dir(tmp_path / "a", spec, n_candles=6), chart_dir(tmp_path / "b", spec, 9, 4)]
        rows = [(d, row) for d in dirs for row in load_manifest_rows(d)]
        ts = assemble_training_set(dirs, (32, 32), (16, 16), True)
        for arr, key, hw in ((ts.history, "history_image_path", (32, 32)),
                             (ts.pattern, "pattern_image_path", (16, 16))):
            imgs = [resize_nearest(read_ppm((d / row[key]).read_bytes()), *hw) for d, row in rows]
            assert arr.flags.c_contiguous
            assert_same_bits(arr, np.stack([img.pixels.transpose(2, 0, 1) for img in imgs]))
            assert_same_bits(model_input(arr), np.stack([image_to_array(img) for img in imgs]))

    def test_subchart_dataset_has_28_crops(self, tmp_path):
        man = manifest(tmp_path)
        ddir = build_dataset(man, "alpha")
        ds = assemble_subchart_dataset([ddir], (16, 16), man.render_spec)
        assert ds.history is None  # the one stream is subcharts
        assert ds.subcharts.shape[1] == 28
        assert ds.subcharts.shape[2:] == (3, 16, 16)

    @pytest.mark.parametrize("spec", [
        RenderSpec(candle_px=3, gap_px=2, margin_px=3, height_px=24),
        RenderSpec(candle_px=5, gap_px=4, margin_px=1, height_px=40),  # margin < gap // 2: end crops clamp
    ], ids=["margin-wide", "margin-narrow"])
    @pytest.mark.parametrize("k", [1, 3, 6])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("sub_hw", [(64, 64), (8, 4)], ids=["upscale", "downscale"])
    def test_subchart_array_equals_per_crop_reference(self, tmp_path, spec, k, stride, sub_hw):
        ddir = chart_dir(tmp_path, spec, n_candles=6)
        ds = assemble_subchart_dataset([ddir], sub_hw, spec, k=k, stride=stride)
        crops = [
            [resize_nearest(c, *sub_hw)
             for c in subcharts(read_ppm((ddir / row["history_image_path"]).read_bytes()),
                                spec, k=k, stride=stride)]
            for row in load_manifest_rows(ddir)
        ]
        assert ds.subcharts.flags.c_contiguous
        assert_same_bits(ds.subcharts, np.stack([np.stack([c.pixels.transpose(2, 0, 1) for c in chart])
                                                 for chart in crops]))
        assert_same_bits(model_input(ds.subcharts), np.stack([np.stack([image_to_array(c) for c in chart])
                                                              for chart in crops]))

    def test_charts_with_different_subchart_counts_raise_shape_mismatch(self, tmp_path):
        spec = RenderSpec()
        ddir = chart_dir(tmp_path, spec, n_candles=30)
        cut = ddir / "history/2.ppm"
        pixels = read_ppm(cut.read_bytes()).pixels
        cut.write_bytes(write_ppm(RasterImage(pixels[:, : 2 * pixels.shape[1] // 3].copy())))
        with pytest.raises(ShapeMismatch, match="history/2.ppm"):
            assemble_subchart_dataset([ddir], (16, 16), spec)

    @pytest.mark.parametrize("damage,error", [
        ("not-json", ManifestError),
        ("not-object", ManifestError),
        ("missing-key", ManifestError),
        ("missing-ppm", SourceNotFound),
        ("path-not-str", ManifestError),
        ("end_index-bool", ManifestError),
        ("path-nul", SourceNotFound),
        ("strength-unknown", ManifestError),
        ("repeated-key", ManifestError),
    ], ids=["not-json", "not-object", "missing-key", "missing-ppm", "path-not-str",
            "end_index-bool", "path-nul", "strength-unknown", "repeated-key"])
    def test_bad_dataset_dir_fails_both_assemblers(self, tmp_path, damage, error):
        man = manifest(tmp_path)
        ddir = build_dataset(man, "alpha")
        path = ddir / "manifest.jsonl"
        lines = path.read_text().splitlines()
        row = json.loads(lines[0])
        if damage == "missing-ppm":
            (ddir / row["history_image_path"]).unlink()
        elif damage in ("path-not-str", "end_index-bool", "path-nul", "strength-unknown"):
            row.update({"path-not-str": {"history_image_path": None},
                        "end_index-bool": {"end_index": True},
                        "path-nul": {"history_image_path": "history/\u0000.ppm"},
                        "strength-unknown": {"strength": "STRONG"}}[damage])
            lines[0] = json.dumps(row)
            path.write_text("\n".join(lines) + "\n")
        else:
            del row["strength"]
            # repeated-key: a bare json.loads would keep the last "strength" and read a valid row
            lines[0] = {"not-json": "{not json", "not-object": "[1, 2]", "missing-key": json.dumps(row),
                        "repeated-key": json.dumps(row)[:-1] + ', "strength": "strong", "strength": "weak"}'}[damage]
            path.write_text("\n".join(lines) + "\n")
        with pytest.raises(error):
            assemble_training_set([ddir], (32, 32), (16, 16), True)
        with pytest.raises(error):
            assemble_subchart_dataset([ddir], (16, 16), man.render_spec)

    @settings(max_examples=300, deadline=None)
    @given(
        head=st.sampled_from([
            b"",
            b'{"end_index": 3, "strength": "weak", "history_image_path": "h.ppm", '
            b'"pattern_image_path": "p.ppm"}\n',
            b'{"end_index": ',
        ]),
        tail=st.binary(max_size=64) | st.integers(0, 3000).map(lambda n: b"[" * n),
    )
    def test_arbitrary_manifest_bytes_give_rows_or_candlekit_error(self, tmp_path_factory,
                                                                   head, tail):
        ddir = tmp_path_factory.mktemp("rows")
        (ddir / "manifest.jsonl").write_bytes(head + tail)
        try:
            rows = load_manifest_rows(ddir)
        except CandlekitError:
            return
        assert rows and all(isinstance(r, dict) and type(r["end_index"]) is int for r in rows)

    ROWS = b"".join(json.dumps({"end_index": i, "strength": "weak", "history_image_path": "h.ppm",
                                "pattern_image_path": "p.ppm"}).encode() + b"\n" for i in range(3))

    @settings(max_examples=300, deadline=None)
    @given(data=mutated(ROWS, chunks=(b"[" * 3000, b"\xff", b'"strength": "weak", ', b"{", b"}", b"NaN", b"\n"),
                        spots=tuple(i + 1 for i, c in enumerate(ROWS) if c in b"{,:\n")))
    def test_mutated_manifest_gives_rows_or_candlekit_error(self, tmp_path_factory, data):
        ddir = tmp_path_factory.mktemp("rows")
        (ddir / "manifest.jsonl").write_bytes(data)
        try:
            assert all(type(r["end_index"]) is int for r in load_manifest_rows(ddir))
        except CandlekitError:
            pass

    def test_planted_signal_balanced_and_native_size(self):
        ts = planted_signal_set(n_samples=40, seed=3)
        assert ts.history.shape == (40, 3, 32, 32)
        assert ts.labels.mean() == 0.5

    def test_image_to_array_range(self, tmp_path):
        man = manifest(tmp_path)
        ddir = build_dataset(man, "alpha")
        row = json.loads((ddir / "manifest.jsonl").read_text().splitlines()[0])
        arr = image_to_array(read_ppm((ddir / row["history_image_path"]).read_bytes()))
        assert arr.shape[0] == 3 and arr.dtype == np.float32
        assert arr.max() == 1.0  # white background


class TestRunExperiment:
    def test_streams_are_scaled_a_batch_or_chunk_at_a_time(self, tmp_path, monkeypatch):
        # the uint8 streams become float32 only as they are fed: no call scales more
        # charts than one minibatch or one predict chunk holds (alpha has 103 samples)
        man = manifest(tmp_path, arms=[{"arm_name": "non_pattern", "model": "mini_cnn"},
                                       {"arm_name": "subchart", "model": "subchart"}])
        dirs = {"alpha": build_dataset(man, "alpha")}
        charts, scale = [], models.model_input

        def counted(x):
            if x.dtype == np.uint8:
                charts.append(x.size // (3 * x.shape[-2] * x.shape[-1]))
            return scale(x)

        monkeypatch.setattr(models, "model_input", counted)
        for arm in man.arms:
            before = len(charts)
            run_arm(man, dirs, "alpha", arm, tmp_path / "out")
            assert len(charts) > before
        assert max(charts) <= max(man.train_config.batch_size, _PREDICT_CHUNK)

    def test_report_structure_and_isolation(self, tmp_path):
        # "tiny" cannot produce samples; its rows must be errors while the
        # other dataset's arms still succeed
        man = manifest(
            tmp_path,
            datasets=[
                {"name": "alpha", "synth": {"n": 320, "volatility": 0.02}},
                {"name": "tiny", "synth": {"n": 30}},
            ],
        )
        report = run_experiment(man)
        assert len(report.rows) == 4
        by_key = {(r["dataset"], r["arm"]): r for r in report.rows}
        assert by_key[("alpha", "with_pattern")]["status"] == "ok"
        assert by_key[("alpha", "non_pattern")]["status"] == "ok"
        assert by_key[("tiny", "with_pattern")]["status"] == "error"
        assert "EmptyDataset" in by_key[("tiny", "non_pattern")]["error"]
        assert not report.all_ok()

    def test_report_files_written_and_json_round_trips(self, tmp_path):
        man = manifest(tmp_path, datasets=[{"name": "alpha", "synth": {"n": 320}}])
        report = run_experiment(man)
        out = tmp_path / "out"
        doc = json.loads((out / "report.json").read_text())
        assert doc == report.to_dict()
        md, js = render_report(report)
        assert (out / "report.md").read_text() == md
        assert (out / "report.json").read_text() == js

    def test_metrics_formatted_to_three_decimals(self, tmp_path):
        man = manifest(tmp_path, datasets=[{"name": "alpha", "synth": {"n": 320}}])
        run_experiment(man)
        md = (tmp_path / "out" / "report.md").read_text()
        table_lines = [l for l in md.splitlines() if l.startswith("| alpha |")]
        cells = table_lines[0].split("|")[2:5]
        for cell in cells:
            cell = cell.strip()
            assert cell == "n/a" or len(cell.split(".")[1]) == 3

    def test_rerun_with_a_smaller_manifest_gives_the_fresh_tree(self, tmp_path):
        small = {"datasets": [{"name": "alpha", "synth": {"n": 320, "volatility": 0.02}}],
                 "arms": [BASE_DOC["arms"][1]]}
        run_experiment(manifest(tmp_path, output_dir="reused"))
        reused = tmp_path / "reused"
        (reused / "datasets" / ".beta.tmp").mkdir()  # left by a killed build
        before = tree(reused)
        # entries the last report does not list: a user's folder and a `candlekit train` run
        (reused / "datasets" / "raw").mkdir()
        (reused / "datasets" / "raw" / "prices.csv").write_text("Date,Open,High,Low,Close\n")
        other = tmp_path / "other.json"
        other.write_text(json.dumps(BASE_DOC | {"datasets": [{"name": "gamma", "synth": {"n": 320}}]}))
        assert cli_main(["train", "--manifest", str(other), "--dataset", "gamma",
                         "--arm", "non_pattern", "--out", str(reused)]) == 0
        theirs = {k: v for k, v in tree(reused).items() if k not in before}
        assert Path("checkpoints/gamma__non_pattern.ckpt") in theirs
        run_experiment(manifest(tmp_path, output_dir="reused", **small))
        run_experiment(manifest(tmp_path, output_dir="fresh", **small))
        assert tree(reused) == tree(tmp_path / "fresh") | theirs

    def test_failed_rebuild_keeps_the_last_build(self, tmp_path):
        (tmp_path / "prices.csv").write_text(write_csv(synth_series(5, 320)))
        man = manifest(tmp_path, datasets=[{"name": "file", "csv_path": "prices.csv"}],
                       arms=[BASE_DOC["arms"][1]])
        run_experiment(man)
        kept = tree(tmp_path / "out")
        (tmp_path / "prices.csv").unlink()
        assert run_experiment(man).rows[0]["error"].startswith("SourceNotFound")
        assert {k: v for k, v in tree(tmp_path / "out").items() if k.name not in REPORTS} == {
            k: v for k, v in kept.items() if k.name not in REPORTS
        }


def usable_cpus(monkeypatch, n):
    """``run_experiment`` sees ``n`` usable CPUs: a pool of workers for 2 or more, else this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


PAIR = experiment._pair


def pair_logging_its_start(man, dirs, ds_name, arm, out_root, broken):
    """``experiment._pair``, after appending "<dataset> <arm>" to ``<out_root>.starts`` as it starts.
    Module-level, so a pool sends it by name: a local function does not pickle."""
    with open(out_root.with_suffix(".starts"), "a") as log:
        log.write(f"{ds_name} {arm.arm_name}\n")
    return PAIR(man, dirs, ds_name, arm, out_root, broken)


def alive(pid: int) -> bool:
    """Whether process ``pid`` runs; a zombie, dead but not yet reaped, counts as exited."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.fixture
def alarm():
    # a hung pool fails the test in 60 s instead of stalling the suite
    def hung(signum, frame):
        raise TimeoutError("run_experiment did not return within 60 s")

    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


class TestWorkers:
    def test_pool_gives_the_in_process_rows_and_bytes(self, tmp_path, monkeypatch, alarm):
        doc = {"datasets": [{"name": "alpha", "synth": {"n": 320, "volatility": 0.02}},
                            {"name": "tiny", "synth": {"n": 30}}],
               "arms": BASE_DOC["arms"] + [{"arm_name": "subchart", "model": "subchart"}]}
        arm, pids = run_arm, {}

        def recorded(*args):
            (pids["dir"] / str(os.getpid())).touch()
            return arm(*args)

        monkeypatch.setattr(experiment, "run_arm", recorded)
        rows = {}
        for n in (1, 2):
            usable_cpus(monkeypatch, n)
            pids["dir"] = tmp_path / f"pids{n}"
            pids["dir"].mkdir()
            rows[n] = run_experiment(manifest(tmp_path, output_dir=f"cpus{n}", **doc)).rows
        assert rows[1] == rows[2]
        assert [r["status"] for r in rows[1]] == ["ok"] * 3 + ["error"] * 3
        assert all(r["error"].startswith("EmptyDataset: ") for r in rows[1][3:])
        assert tree(tmp_path / "cpus1") == tree(tmp_path / "cpus2")
        in_process, pooled = ({int(p.name) for p in (tmp_path / f"pids{n}").iterdir()} for n in (1, 2))
        assert in_process == {os.getpid()}
        assert pooled and os.getpid() not in pooled

    def test_subchart_pairs_start_first(self, tmp_path, monkeypatch, alarm):
        doc = {"datasets": BASE_DOC["datasets"][:2],
               "arms": BASE_DOC["arms"] + [{"arm_name": "subchart", "model": "subchart"}]}
        monkeypatch.setattr(experiment, "_pair", pair_logging_its_start)
        rows, starts = {}, {}
        for n in (1, 2):
            usable_cpus(monkeypatch, n)
            rows[n] = run_experiment(manifest(tmp_path, output_dir=f"cpus{n}", **doc)).rows
            starts[n] = (tmp_path / f"cpus{n}.starts").read_text().splitlines()
        assert [(r["dataset"], r["arm"]) for r in rows[1]] == [
            (d, a) for d in ("alpha", "beta") for a in ("with_pattern", "non_pattern", "subchart")]
        assert all(r["status"] == "ok" for r in rows[1])
        assert rows[1] == rows[2]
        assert tree(tmp_path / "cpus1") == tree(tmp_path / "cpus2")
        first = ["alpha subchart", "beta subchart"]
        rest = [f"{d} {a}" for d in ("alpha", "beta") for a in ("with_pattern", "non_pattern")]
        assert starts[1] == first + rest
        # two workers take the first two jobs before either one ends
        assert sorted(starts[2][:2]) == first and sorted(starts[2]) == sorted(starts[1])

    @pytest.mark.parametrize("n", [1, 2], ids=["in-process", "pool"])
    def test_interrupt_in_a_pair_propagates(self, tmp_path, monkeypatch, alarm, n):
        usable_cpus(monkeypatch, n)
        arm = run_arm

        def interrupted(man, dirs, ds_name, spec, out_root):
            if spec.arm_name == "non_pattern":
                raise KeyboardInterrupt
            return arm(man, dirs, ds_name, spec, out_root)

        monkeypatch.setattr(experiment, "run_arm", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(manifest(tmp_path, datasets=[BASE_DOC["datasets"][0]]))
        assert not (tmp_path / "out" / "report.json").exists()
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises(self, tmp_path, monkeypatch, alarm):
        usable_cpus(monkeypatch, 2)
        parent = os.getpid()

        def dies(*args):
            if os.getpid() != parent:
                os._exit(1)
            raise AssertionError("the pair ran in the test's own process")

        monkeypatch.setattr(experiment, "run_arm", dies)
        with pytest.raises(BrokenProcessPool):
            run_experiment(manifest(tmp_path, datasets=[BASE_DOC["datasets"][0]]))
        assert not (tmp_path / "out" / "report.json").exists()
        assert multiprocessing.active_children() == []

    def test_workers_exit_when_the_caller_is_killed(self, tmp_path):
        # a child interpreter runs the pool with pairs that stall; once both workers
        # hold one, the child is SIGKILLed, and neither worker may outlive it by 5 s
        doc = dict(BASE_DOC, datasets=[BASE_DOC["datasets"][0]], output_dir=str(tmp_path / "out"))
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        script = (
            "import os, sys, time\n"
            "from candlekit import experiment\n"
            "def stalled(*args):\n"
            "    (experiment.Path(sys.argv[2]) / str(os.getpid())).touch()\n"
            "    time.sleep(120)\n"
            "experiment.run_arm = stalled\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "experiment.run_experiment(experiment.load_manifest(sys.argv[1]))\n"
        )
        env = dict(os.environ)
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        child = subprocess.Popen([sys.executable, "-c", script, str(tmp_path / "manifest.json"),
                                  str(pid_dir)], env=env)
        pids: set[int] = set()
        try:
            deadline = time.monotonic() + 60
            while len(pids) < 2 and child.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
                pids = {int(p.name) for p in pid_dir.iterdir()}
            assert len(pids) == 2, f"workers that took a pair: {pids}, child exit {child.poll()}"
            child.kill()
            child.wait(timeout=10)
            deadline = time.monotonic() + 5
            while any(map(alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(alive, pids))
        finally:
            child.kill()
            child.wait(timeout=10)
            for pid in filter(alive, pids):
                os.kill(pid, signal.SIGKILL)


REPORTS = ("report.json", "report.md")


def tree(d):
    """Every path under ``d``, relative, mapped to its bytes (None for a directory)."""
    return {p.relative_to(d): p.read_bytes() if p.is_file() else None for p in d.rglob("*")}


class TestCli:
    def test_detect_emits_jsonl(self, capsys):
        assert cli_main(["detect", "--synth", "60", "--seed", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        first = json.loads(lines[0])
        assert set(first) == {"kind", "end_index", "span", "direction"}

    def test_render_then_decompose(self, tmp_path, capsys):
        out = tmp_path / "chart.ppm"
        assert cli_main(
            ["render", "--synth", "60", "--seed", "5", "--end-index", "40",
             "--window", "30", "--out", str(out)]
        ) == 0
        assert cli_main(
            ["decompose", "--image", str(out), "--out-dir", str(tmp_path / "subs")]
        ) == 0
        assert len(list((tmp_path / "subs").glob("chart.sub*.ppm"))) == 28

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_u64_exits_2_naming_the_flag(self, capsys, seed):
        # derive_seed masks to 64 bits: -1 and 2^64 - 1 would build the same series
        with pytest.raises(SystemExit) as exc:
            cli_main(["detect", "--synth", "40", "--seed", seed])
        assert exc.value.code == 2 and "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, flag", [
        (["--end-index", "-1"], "--end-index"),
        (["--end-index", "50"], "--end-index"),
        (["--window", "100"], "--window"),
        (["--window", "0"], "--window"),
        (["--end-index", "20"], "--window"),  # the default window of 30 does not fit
    ], ids=["end-index-negative", "end-index-past-the-series", "window-longer-than-the-series",
            "window-zero", "default-window-past-the-start"])
    def test_render_rejects_a_window_that_does_not_fit(self, tmp_path, capsys, flags, flag):
        out = tmp_path / "chart.ppm"
        assert cli_main(["render", "--synth", "50", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err
        assert not out.exists()

    def test_render_and_decompose_default_to_the_model_section(self, tmp_path, capsys):
        # without --window, --k and --stride the charts and crops follow the
        # manifest's model section, as the experiment's own do
        man_path = tmp_path / "man.json"
        man_path.write_text(json.dumps(
            dict(BASE_DOC, model={**BASE_DOC["model"], "window": 20, "subchart_k": 4, "subchart_stride": 2})
        ))
        out = tmp_path / "chart.ppm"
        common = ["--manifest", str(man_path)]
        assert cli_main(["render", *common, "--synth", "60", "--end-index", "40", "--out", str(out)]) == 0
        man = load_manifest(man_path)
        assert read_ppm(out.read_bytes()).width_px == man.render_spec.chart_width(20)
        assert cli_main(["decompose", *common, "--image", str(out), "--out-dir", str(tmp_path / "subs")]) == 0
        assert len(list((tmp_path / "subs").glob("chart.sub*.ppm"))) == man.model_settings.seq_len == 9

    def test_experiment_exit_code_reflects_arm_failures(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["datasets"] = [{"name": "tiny", "synth": {"n": 30}}]
        doc["output_dir"] = str(tmp_path / "out")
        man_path = tmp_path / "man.json"
        man_path.write_text(json.dumps(doc))
        assert cli_main(["experiment", "--manifest", str(man_path)]) == 1

    def test_seed_flag_overrides_manifest(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["datasets"] = [{"name": "alpha", "synth": {"n": 320}}]
        doc["output_dir"] = str(tmp_path / "o1")
        man_path = tmp_path / "man.json"
        man_path.write_text(json.dumps(doc))
        assert cli_main(["experiment", "--manifest", str(man_path), "--seed", "7"]) == 0
        env = json.loads((tmp_path / "o1" / "report.json").read_text())["environment"]
        assert env["master_seed"] == 7

    def _tiny_manifest(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["datasets"] = [{"name": "alpha", "synth": {"n": 320}}]
        doc["arms"].append({"arm_name": "sub", "model": "subchart"})
        doc["output_dir"] = str(tmp_path / "out")
        man_path = tmp_path / "man.json"
        man_path.write_text(json.dumps(doc))
        return man_path

    @pytest.mark.parametrize("arm", ["with_pattern", "non_pattern", "sub"])
    def test_eval_reproduces_train_metrics(self, tmp_path, capsys, arm):
        man_path = self._tiny_manifest(tmp_path)
        common = ["--manifest", str(man_path), "--dataset", "alpha", "--arm", arm]
        assert cli_main(["train", *common]) == 0
        row = json.loads((tmp_path / "out" / "train" / f"alpha__{arm}" / "row.json").read_text())
        capsys.readouterr()
        ckpt = tmp_path / "out" / row["checkpoint"]
        assert cli_main(["eval", *common, "--checkpoint", str(ckpt)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert {k: rep[k] for k in ("accuracy", "f1", "auc")} == row["metrics"]
        with ckpt.open("ab") as f:  # trailing bytes after the last array
            f.write(b"\x00")
        assert cli_main(["eval", *common, "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_train_writes_the_whole_cae_record(self, tmp_path, capsys):
        # every epoch's CAE MSE, not only the two ends the row keeps
        man_path = self._tiny_manifest(tmp_path)
        man_path.write_text(json.dumps(json.loads(man_path.read_text()) | {"train": {"epochs": 3}}))
        assert cli_main(["train", "--manifest", str(man_path), "--dataset", "alpha", "--arm", "sub"]) == 0
        run_dir = tmp_path / "out" / "train" / "alpha__sub"
        row = json.loads((run_dir / "row.json").read_text())
        record = json.loads((run_dir / "train_report.json").read_text())["cae_mse"]
        assert len(record) == 4
        assert [record[0], record[-1]] == [row["cae_mse_first"], row["cae_mse_final"]]

    def test_train_report_json_keeps_its_layout(self, tmp_path, capsys):
        # the layout the report was written in by hand before it came from asdict
        man_path = self._tiny_manifest(tmp_path)
        assert cli_main(["train", "--manifest", str(man_path), "--dataset", "alpha", "--arm", "sub"]) == 0
        text = (tmp_path / "out" / "train" / "alpha__sub" / "train_report.json").read_text()
        doc = json.loads(text)
        epoch_keys = ("epoch", "train_loss", "val_accuracy", "val_f1", "val_auc")
        expected = {
            "epochs": [{k: e[k] for k in epoch_keys} for e in doc["epochs"]],
            "n_train": doc["n_train"],
            "n_val": doc["n_val"],
            "n_test": doc["n_test"],
            "cae_mse": doc["cae_mse"],
        }
        assert text == json.dumps(expected, sort_keys=True, indent=2) + "\n"
        assert len(doc["epochs"]) == 2 and len(doc["cae_mse"]) == 2

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_eval_rejects_a_non_finite_checkpoint(self, tmp_path, capsys, value):
        man_path = self._tiny_manifest(tmp_path)
        man = load_manifest(man_path)
        arrays = build_model(_model_config(man, "alpha", man.arms[1])).arrays()
        arrays[-2].flat[0] = value  # the last Dense, whose sigmoid would absorb an inf
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(arrays_to_bytes(arrays))
        argv = ["eval", "--manifest", str(man_path), "--dataset", "alpha", "--arm", "non_pattern",
                "--checkpoint", str(ckpt)]
        assert cli_main(argv) == 2
        assert "error: non-finite values in a loaded array" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["wrong-count", "nan"])
    def test_eval_checks_the_checkpoint_before_building_datasets(self, tmp_path, capsys, bad):
        man_path = self._tiny_manifest(tmp_path)
        man = load_manifest(man_path)
        arrays = build_model(_model_config(man, "alpha", man.arms[1])).arrays()
        if bad == "wrong-count":
            arrays = [np.zeros(3, np.float32)]
        else:
            arrays[0].flat[0] = np.nan
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(arrays_to_bytes(arrays))
        argv = ["eval", "--manifest", str(man_path), "--dataset", "alpha", "--arm", "non_pattern",
                "--checkpoint", str(ckpt)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out" / "datasets").exists()

    def test_train_overflow_is_a_non_finite_error_without_a_numpy_warning(self, tmp_path, capsys):
        man_path = self._tiny_manifest(tmp_path)
        man_path.write_text(json.dumps(json.loads(man_path.read_text()) | {"train": {"lr": 1e30}}))
        argv = ["train", "--manifest", str(man_path), "--dataset", "alpha", "--arm", "non_pattern"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(argv) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.startswith("error: non-finite")

    @pytest.mark.parametrize("arm,checkpoint", [
        ("sub", None),
        ("sub", "non_pattern"),
        ("non_pattern", b"CKPT\x01\x00"),
        pytest.param("non_pattern", b"CKPT" + struct.pack("<II", 1, 1) + DIMS_65, id="non_pattern-65-dims"),
        ("non_pattern", None),
        ("non_pattern", "directory"),
    ])
    def test_eval_errors_exit_2(self, tmp_path, capsys, arm, checkpoint):
        # a subchart checkpoint path with no file; the non_pattern arm's arrays
        # handed to the subchart arm (12 arrays where the CAE and CNN1D hold 16);
        # a 6-byte checkpoint; an array of 65 dims; a checkpoint path with no file; a directory
        ckpt = tmp_path / "model.ckpt"
        man_path = self._tiny_manifest(tmp_path)
        if checkpoint == "non_pattern":
            man = load_manifest(man_path)
            model = build_model(_model_config(man, "alpha", man.arms[1]))
            ckpt.write_bytes(arrays_to_bytes(model.arrays()))
        elif checkpoint == "directory":
            ckpt.mkdir()
        elif checkpoint is not None:
            ckpt.write_bytes(checkpoint)
        argv = ["eval", "--manifest", str(man_path), "--dataset", "alpha", "--arm", arm,
                "--checkpoint", str(ckpt)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_unknown_dataset_exits_2(self, tmp_path, capsys, command):
        man_path = self._tiny_manifest(tmp_path)
        ckpt = tmp_path / "empty.ckpt"
        ckpt.write_bytes(arrays_to_bytes([]))  # loads, so eval reaches the dataset lookup
        argv = [command, "--manifest", str(man_path), "--dataset", "nope", "--arm", "non_pattern"]
        if command == "eval":
            argv += ["--checkpoint", str(ckpt)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out" / "datasets").exists()

    @pytest.mark.parametrize("dataset,members", [
        ("alpha", {"alpha"}),
        ("merged", {"alpha", "beta"}),
    ], ids=["concrete", "merge"])
    def test_train_and_eval_build_only_members(self, tmp_path, capsys, dataset, members):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["datasets"].append({"name": "gamma", "synth": {"n": 320}})
        doc["output_dir"] = str(tmp_path / "out")
        man_path = tmp_path / "man.json"
        man_path.write_text(json.dumps(doc))
        common = ["--manifest", str(man_path), "--dataset", dataset, "--arm", "non_pattern"]
        datasets = tmp_path / "out" / "datasets"
        assert cli_main(["train", *common]) == 0
        assert {p.name for p in datasets.iterdir()} == members
        shutil.rmtree(datasets)
        ckpt = tmp_path / "out" / "checkpoints" / f"{dataset}__non_pattern.ckpt"
        assert cli_main(["eval", *common, "--checkpoint", str(ckpt)]) == 0
        assert {p.name for p in datasets.iterdir()} == members

    @pytest.mark.parametrize("argv", [
        ["detect", "--csv", "nope.csv"],
        ["decompose", "--image", "nope.ppm"],
        ["decompose", "--image", "long_int.ppm"],
        ["report", "--report-json", "nope.json"],
        ["detect", "--synth", "60", "--manifest", "bad.json"],
        ["report", "--report-json", "bad.json"],
        ["detect", "--csv", "undecodable.csv"],
        ["report", "--report-json", "keyless.json"],
        ["build-dataset", "--manifest", "nul_csv.json"],
        ["build-dataset", "--manifest", "drift_overflow.json"],
        ["build-dataset", "--manifest", "volatility_overflow.json"],
        ["experiment", "--manifest", "small_hist.json"],
        ["experiment", "--manifest", "repeated_key.json"],
        ["report", "--report-json", "repeated_report_key.json"],
        ["experiment", "--manifest", "typo_arm.json"],
        ["experiment", "--manifest", "typo_dataset.json"],
        ["experiment", "--manifest", "typo_document.json"],
        ["experiment", "--manifest", "typo_section.json"],
    ], ids=[
        "csv-missing", "image-missing", "image-header-int-too-long", "report-missing", "manifest-bad", "report-bad",
        "csv-undecodable", "report-keyless", "csv-path-nul", "synth-drift-overflow",
        "synth-volatility-overflow", "hist_hw-too-small-for-blocks", "manifest-repeated-key",
        "report-repeated-key", "arm-key-typo", "dataset-key-typo", "document-key-typo",
        "section-key-typo",
    ])
    def test_file_input_errors_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        # missing files, a PPM header integer too long to convert, a file that is not
        # JSON, a CSV with a byte that is not UTF-8, a report without the keys the renderer reads, a csv_path
        # holding a NUL byte, synth values whose walk overflows a float, a
        # model section that the CNN arms cannot build from, a JSON object
        # that repeats a key, and a misspelled key at each level of a manifest
        monkeypatch.chdir(tmp_path)
        nul_doc = dict(BASE_DOC, datasets=[{"name": "a", "csv_path": "a\u0000.csv"}])
        (tmp_path / "nul_csv.json").write_text(json.dumps(nul_doc))
        # dataset "x" draws a positive first shock, so its exp overflows rather than underflows
        for name, key, value in (("a", "drift", 1000.0), ("x", "volatility", 1e6)):
            doc = dict(BASE_DOC, datasets=[{"name": name, "synth": {"n": 800, key: value}}])
            (tmp_path / f"{key}_overflow.json").write_text(json.dumps(doc))
        (tmp_path / "small_hist.json").write_text(json.dumps(dict(BASE_DOC, model={"hist_hw": [4, 4]})))
        # a second "train" object, which json.loads would otherwise let win
        (tmp_path / "repeated_key.json").write_text(json.dumps(BASE_DOC)[:-1] + ', "train": {"epochs": 30}}')
        (tmp_path / "repeated_report_key.json").write_text(
            '{"rows": [{}], "rows": [], "environment": '
            '{"version": "0", "python": "3", "numpy": "2", "master_seed": 0}}'
        )
        ds = BASE_DOC["datasets"][0]
        for name, doc in (
            ("arm", dict(BASE_DOC, arms=[{"arm_name": "with_pattern", "modle": "two_stream"}])),
            ("dataset", dict(BASE_DOC, datasets=[dict(ds, memebrs=["beta"])])),
            ("document", dict(BASE_DOC, trian={"epochs": 30})),
            ("section", dict(BASE_DOC, train={"epoch": 30})),
        ):
            (tmp_path / f"typo_{name}.json").write_text(json.dumps(doc))
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "long_int.ppm").write_bytes(b"P6\n" + LONG_INT + b" 1\n255\n")
        (tmp_path / "undecodable.csv").write_bytes(
            b"Date,Open,High,Low,Close\n2020-01-01,1,2,0.5,1.5\n2020-01-02,1,2,0.5,\xff\n"
        )
        (tmp_path / "keyless.json").write_text('{"rows": [{}], "environment": {}}')
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()  # no dataset was written

    @pytest.mark.parametrize("argv", [
        ["render", "--synth", "100", "--out", "missing/x.ppm"],
        ["decompose", "--image", "chart.ppm", "--out-dir", "afile"],
        ["report", "--report-json", "report.json", "--out-dir", "afile"],
        ["experiment", "--manifest", "man.json", "--out", "afile"],
    ], ids=["render-dir-missing", "decompose-dir-is-file", "report-dir-is-file",
            "experiment-out-is-file"])
    def test_output_errors_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        # an output path under a directory that does not exist, or a
        # directory path that names an existing file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        (tmp_path / "chart.ppm").write_bytes(
            write_ppm(render_window(window(synth_series(5, 60), 40, 30), RenderSpec()))
        )
        (tmp_path / "report.json").write_text(
            json.dumps({"rows": [], "environment": {"version": "0", "python": "3", "numpy": "2",
                                                    "master_seed": 0}})
        )
        (tmp_path / "man.json").write_text(json.dumps(BASE_DOC))
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_report_subcommand_rerenders(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["datasets"] = [{"name": "alpha", "synth": {"n": 320}}]
        doc["output_dir"] = str(tmp_path / "out")
        man_path = tmp_path / "man.json"
        man_path.write_text(json.dumps(doc))
        cli_main(["experiment", "--manifest", str(man_path)])
        capsys.readouterr()
        assert cli_main(
            ["report", "--report-json", str(tmp_path / "out" / "report.json")]
        ) == 0
        md = capsys.readouterr().out
        assert md == (tmp_path / "out" / "report.md").read_text()

    @pytest.mark.parametrize("path", ["gone", "a\u0000b"], ids=["missing", "nul"])
    def test_unreadable_report_and_checkpoint_paths(self, tmp_path, path):
        with pytest.raises(SourceNotFound):
            load_report(tmp_path / path)
        with pytest.raises(SourceNotFound):
            load_arrays(tmp_path / path)

    @pytest.mark.parametrize("command", ["detect", "render"])
    def test_synth_above_the_bound_is_rejected_before_any_candle(self, tmp_path, monkeypatch,
                                                                 capsys, command):
        def no_candles(*args, **kwargs):
            raise AssertionError("a candle was generated")

        monkeypatch.setattr(market_data, "Rng", no_candles)
        argv = [command, "--synth", str(MAX_SYNTH_N + 1)]
        assert cli_main(argv + (["--out", str(tmp_path / "x.ppm")] if command == "render" else [])) == 2
        assert capsys.readouterr().err.startswith(f"error: n must be in [1, {MAX_SYNTH_N}]")

    @pytest.mark.parametrize("env, row", [
        ({"master_seed": "x"}, {}),
        ({}, {"metrics": {"accuracy": True, "f1": 0.4, "auc": None}}),
        ({}, {"n_test": 2.0}),
    ], ids=["master-seed-string", "metric-bool", "count-float"])
    def test_report_rejects_mistyped_numbers(self, tmp_path, capsys, env, row):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"rows": [REPORT_ROW | row], "environment": REPORT_ENV | env}))
        assert cli_main(["report", "--report-json", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


REPORT_ROW = {
    "dataset": "a", "arm": "non_pattern", "model": "mini_cnn", "include_pattern": False,
    "status": "ok", "metrics": {"accuracy": 0.5, "f1": 0.4, "auc": None},
    "n_samples": 10, "n_train": 7, "n_val": 1, "n_test": 2, "class_balance": {"strong": 4, "weak": 6},
}
REPORT_ENV = {"version": "0", "python": "3", "numpy": "2", "master_seed": 0}
# Integers around each flag's bounds; --synth keeps to sizes that build in milliseconds.
CLI_INTS = st.integers(-3, 40) | st.sampled_from([-2**64, 2**63, 2**64, 10**30])
CLI_SYNTH = st.integers(-3, 40) | st.sampled_from([-10**30, 2000])


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Small inputs for the argv property, good and bad: manifests, CSVs, PPMs, reports, and
    checkpoints of man.json's (alpha, non_pattern) pair, trained once: as trained, and with a NaN."""
    d = tmp_path_factory.mktemp("cli")
    model = {**BASE_DOC["model"], "window": 12, "subchart_k": 4}
    for name, text in {
        "man.json": json.dumps(dict(BASE_DOC, output_dir=str(d / "out"), model=model)),
        "huge_synth.json": json.dumps(dict(BASE_DOC, datasets=[{"name": "a", "synth": {"n": MAX_SYNTH_N + 1}}])),
        "bad.json": "{not json",
        "tiny.csv": write_csv(synth_series(3, 3)),
        "header.csv": "Date,Open,High,Low,Close\n",
        "report.json": json.dumps({"rows": [REPORT_ROW], "environment": REPORT_ENV}),
        "typo_report.json": json.dumps({"rows": [REPORT_ROW | {"n_val": "1"}], "environment": REPORT_ENV}),
    }.items():
        (d / name).write_text(text)
    (d / "chart.ppm").write_bytes(write_ppm(render_window(window(synth_series(5, 12), 11, 8), RenderSpec())))
    (d / "dot.ppm").write_bytes(write_ppm(RasterImage(np.full((1, 1, 3), 255, np.uint8))))
    (d / "junk.ppm").write_bytes(b"P6\n9 9\n255\n\x00")
    (d / "subs").mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["train", "--manifest", str(d / "man.json"), "--dataset", "alpha", "--arm", "non_pattern"]) == 0
    arrays = load_arrays(d / "out" / "checkpoints" / "alpha__non_pattern.ckpt")
    save_arrays(d / "alpha.ckpt", arrays)
    arrays[0].flat[0] = np.nan
    save_arrays(d / "nan.ckpt", arrays)
    return d


@st.composite
def cli_argvs(draw, d: Path) -> list[str]:
    """argv for detect, render, decompose, report or eval, each flag present or not."""
    command = draw(st.sampled_from(["detect", "render", "decompose", "report", "eval"]))
    argv = [command]

    def maybe(flag, values):
        if draw(st.booleans()):
            argv.extend([flag, str(draw(values))])

    def files(*names):
        return st.sampled_from([str(d / n) for n in (*names, "missing")])

    def mostly(good, others):  # eval's draws lean to the trained (alpha, non_pattern) pair, which exits 0
        return st.just(good) | others

    if command == "report":
        argv += ["--report-json", draw(files("report.json", "typo_report.json", "bad.json", "man.json"))]
        maybe("--out-dir", files("subs", "tiny.csv"))
        return argv
    manifests = files("man.json", "huge_synth.json", "bad.json")
    if command == "eval":  # always a manifest, mostly man.json
        argv += ["--manifest", draw(mostly(str(d / "man.json"), manifests))]
    else:
        maybe("--manifest", manifests)
    if command == "decompose":
        argv += ["--image", draw(files("chart.ppm", "dot.ppm", "junk.ppm")), "--out-dir", str(d / "subs")]
        maybe("--k", CLI_INTS)
        maybe("--stride", CLI_INTS)
        return argv
    maybe("--seed", CLI_INTS)
    if command == "eval":
        argv += ["--dataset", draw(mostly("alpha", st.sampled_from(["alpha", "merged", "nope"]))),
                 "--arm", draw(mostly("non_pattern", st.sampled_from(["non_pattern", "with_pattern", "nope"]))),
                 "--checkpoint", draw(mostly(str(d / "alpha.ckpt"), files("alpha.ckpt", "nan.ckpt", "junk.ppm")))]
        return argv
    maybe("--synth", CLI_SYNTH)
    maybe("--csv", files("tiny.csv", "header.csv"))
    if command == "render":
        maybe("--end-index", CLI_INTS)
        maybe("--window", CLI_INTS)
        argv += ["--out", str(d / "out.ppm")]
    return argv


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_every_cli_argv_exits_0_or_2(cli_files, data):
    # argparse's own rejections exit 2 through SystemExit; any other exception is a bug
    argv = data.draw(cli_argvs(cli_files))
    (cli_files / "out.ppm").unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), err.getvalue()
    assert code == 0 or err.getvalue().startswith(("error:", "usage:"))
    flags = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "render" and code == 0:  # without --window, man.json's model window or the default
        w = int(flags.get("--window", 12 if "--manifest" in flags else ModelSettings().window))
        assert read_ppm((cli_files / "out.ppm").read_bytes()).width_px == RenderSpec().chart_width(w)
    if argv[0] == "eval" and code == 0:  # only the trained checkpoint, and only into its own model
        assert flags["--checkpoint"].endswith("alpha.ckpt") and flags["--arm"] == "non_pattern"


@pytest.mark.parametrize("module", ["candlekit", "candlekit.nn"])
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its definition is gone breaks `from ... import *`
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_cli_import_loads_no_process_pool():
    # run_experiment imports its pool when it runs, so startup does not pay for it
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import sys, candlekit.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_only_fileio_reads_files():
    # every input file goes through fileio.read_input, which maps each failure
    # to a CandlekitError; a second reader would map them its own way
    src = Path(__file__).resolve().parent.parent / "src" / "candlekit"
    assert (src / "fileio.py").is_file()  # else the scan below passes on nothing
    call = re.compile(r"(\.read_bytes|\.read_text|\bopen)\(")
    readers = [
        f"{path.relative_to(src)}:{n}"
        for path in sorted(src.rglob("*.py")) if path.name != "fileio.py"
        for n, line in enumerate(path.read_text().splitlines(), start=1) if call.search(line)
    ]
    assert readers == []


def test_only_model_input_divides_by_255():
    # pixels become model input in one place, so every stream is scaled by the same rounding
    src = Path(__file__).resolve().parent.parent / "src" / "candlekit"
    assert (src / "models.py").is_file()  # else the scan below passes on nothing
    division = re.compile(r"(/|divide\().*\b255\b")
    found = [
        f"{path.relative_to(src)}:{n}"
        for path in sorted(src.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), start=1) if division.search(line)
    ]
    lines, first = inspect.getsourcelines(model_input)
    assert found == [f"models.py:{first + n}" for n, line in enumerate(lines) if division.search(line)]
    assert len(found) == 1


def test_only_fileio_parses_json():
    # fileio.parse_json rejects a repeated key; a bare json.loads keeps the last
    src = Path(__file__).resolve().parent.parent / "src" / "candlekit"
    assert (src / "fileio.py").is_file()  # else the scan below passes on nothing
    parsers = [
        f"{path.relative_to(src)}:{n}"
        for path in sorted(src.rglob("*.py")) if path.name != "fileio.py"
        for n, line in enumerate(path.read_text().splitlines(), start=1) if "json.loads(" in line
    ]
    assert parsers == []
