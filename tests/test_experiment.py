import json

import numpy as np
import pytest

from candlekit.cli import main as cli_main
from candlekit.datasets import (
    assemble_subchart_dataset,
    assemble_training_set,
    image_to_array,
    planted_signal_set,
)
from candlekit.errors import EmptyDataset, ManifestError, SourceNotFound
from candlekit.experiment import (
    build_dataset,
    load_manifest,
    manifest_from_dict,
    render_report,
    run_experiment,
)
from candlekit.raster import read_ppm

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
    ], ids=[
        "datasets-int", "seed-str", "synth-n-str", "arm-int", "candle_px-even",
        "hist_hw-zero", "pattern_hw-one-dim", "subchart_hw-not-div4", "hist_hw-str",
        "block_widths-empty", "pattern_widths-negative", "block_widths-float", "fc_dim-zero",
        "latent_dim-str", "window-zero", "subchart_k-zero", "subchart_stride-zero",
        "window-below-subchart_k", "name-dotdot", "name-dot", "name-abs", "name-sep",
        "name-hidden", "name-int", "arm-name-sep", "include_pattern-str", "csv_path-int",
        "output_dir-int", "window-too-short-for-cnn1d",
    ])
    def test_bad_types_and_values_fail_at_load(self, tmp_path, override):
        with pytest.raises(ManifestError):
            manifest(tmp_path, **override)

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


class TestAssembly:
    def test_merged_training_set_counts(self, tmp_path):
        man = manifest(tmp_path)
        dirs = [build_dataset(man, "alpha"), build_dataset(man, "beta")]
        single = [assemble_training_set([d], (32, 32), (16, 16), True) for d in dirs]
        merged = assemble_training_set(dirs, (32, 32), (16, 16), True)
        assert len(merged) == len(single[0]) + len(single[1])
        assert merged.member is not None
        assert merged.pattern.shape == (len(merged), 3, 16, 16)
        assert merged.inputs.dtype == np.float32
        assert merged.inputs.max() <= 1.0 and merged.inputs.min() >= 0.0

    def test_subchart_dataset_has_28_crops(self, tmp_path):
        man = manifest(tmp_path)
        ddir = build_dataset(man, "alpha")
        ds = assemble_subchart_dataset([ddir], (16, 16), man.render_spec)
        assert ds.subcharts.shape[1] == 28
        assert ds.subcharts.shape[2:] == (3, 16, 16)

    @pytest.mark.parametrize("damage,error", [
        ("not-json", ManifestError),
        ("not-object", ManifestError),
        ("missing-key", ManifestError),
        ("missing-ppm", SourceNotFound),
        ("path-not-str", ManifestError),
        ("end_index-bool", ManifestError),
    ], ids=["not-json", "not-object", "missing-key", "missing-ppm", "path-not-str",
            "end_index-bool"])
    def test_bad_dataset_dir_fails_both_assemblers(self, tmp_path, damage, error):
        man = manifest(tmp_path)
        ddir = build_dataset(man, "alpha")
        path = ddir / "manifest.jsonl"
        lines = path.read_text().splitlines()
        row = json.loads(lines[0])
        if damage == "missing-ppm":
            (ddir / row["history_image_path"]).unlink()
        elif damage in ("path-not-str", "end_index-bool"):
            row.update({"path-not-str": {"history_image_path": None},
                        "end_index-bool": {"end_index": True}}[damage])
            lines[0] = json.dumps(row)
            path.write_text("\n".join(lines) + "\n")
        else:
            del row["strength"]
            lines[0] = {"not-json": "{not json", "not-object": "[1, 2]", "missing-key": json.dumps(row)}[damage]
            path.write_text("\n".join(lines) + "\n")
        with pytest.raises(error):
            assemble_training_set([ddir], (32, 32), (16, 16), True)
        with pytest.raises(error):
            assemble_subchart_dataset([ddir], (16, 16), man.render_spec)

    def test_planted_signal_balanced_and_native_size(self):
        ts = planted_signal_set(n_samples=40, seed=3)
        assert ts.inputs.shape == (40, 3, 32, 32)
        assert ts.labels.mean() == 0.5

    def test_image_to_array_range(self, tmp_path):
        man = manifest(tmp_path)
        ddir = build_dataset(man, "alpha")
        row = json.loads((ddir / "manifest.jsonl").read_text().splitlines()[0])
        arr = image_to_array(read_ppm((ddir / row["history_image_path"]).read_bytes()))
        assert arr.shape[0] == 3 and arr.dtype == np.float32
        assert arr.max() == 1.0  # white background


class TestRunExperiment:
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

    @pytest.mark.parametrize("arm", ["with_pattern", "non_pattern"])
    def test_eval_reproduces_train_metrics(self, tmp_path, capsys, arm):
        man_path = self._tiny_manifest(tmp_path)
        common = ["--manifest", str(man_path), "--dataset", "alpha", "--arm", arm]
        assert cli_main(["train", *common]) == 0
        row = json.loads((tmp_path / "out" / "train" / f"alpha__{arm}" / "row.json").read_text())
        capsys.readouterr()
        ckpt = tmp_path / "out" / row["checkpoints"][0]
        assert cli_main(["eval", *common, "--checkpoint", str(ckpt)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert {k: rep[k] for k in ("accuracy", "f1", "auc")} == row["metrics"]
        with ckpt.open("ab") as f:  # trailing bytes after the last array
            f.write(b"\x00")
        assert cli_main(["eval", *common, "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("arm,checkpoint", [
        ("sub", None),
        ("non_pattern", b"CKPT\x01\x00"),
        ("non_pattern", None),
    ])
    def test_eval_errors_exit_2(self, tmp_path, capsys, arm, checkpoint):
        # a subchart arm, a 6-byte checkpoint, a checkpoint path with no file
        ckpt = tmp_path / "model.ckpt"
        if checkpoint is not None:
            ckpt.write_bytes(checkpoint)
        man_path = self._tiny_manifest(tmp_path)
        argv = ["eval", "--manifest", str(man_path), "--dataset", "alpha", "--arm", arm,
                "--checkpoint", str(ckpt)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["detect", "--csv", "nope.csv"],
        ["decompose", "--image", "nope.ppm"],
        ["report", "--report-json", "nope.json"],
        ["detect", "--synth", "60", "--manifest", "bad.json"],
        ["report", "--report-json", "bad.json"],
        ["detect", "--csv", "undecodable.csv"],
        ["report", "--report-json", "keyless.json"],
    ], ids=[
        "csv-missing", "image-missing", "report-missing", "manifest-bad", "report-bad",
        "csv-undecodable", "report-keyless",
    ])
    def test_file_input_errors_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        # missing files, a file that is not JSON, a CSV with a byte that is not
        # UTF-8, and a report without the keys the renderer reads
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "undecodable.csv").write_bytes(
            b"Date,Open,High,Low,Close\n2020-01-01,1,2,0.5,1.5\n2020-01-02,1,2,0.5,\xff\n"
        )
        (tmp_path / "keyless.json").write_text('{"rows": [{}], "environment": {}}')
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
