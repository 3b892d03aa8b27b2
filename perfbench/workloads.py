"""The three benchmark workloads.

Each workload object is built once per set-up from the workload seed and
then serves every pass of the run:

    wl = WORKLOADS[name](seed, root)   # inputs, part of set-up
    job = wl.prepare()                 # fresh per-pass state (a new model)
    out = wl.run(job, out_dir)         # the timed pass
    wl.check(out, out_dir)             # [(operation, ok)], untimed
    wl.check_run()                     # checks across passes, untimed

The program only receives generated inputs. The benchmark calls candlekit
through module attributes (``models.train``, ``experiment.build_dataset``,
...) so that a traced pass sees those calls too.
"""

from __future__ import annotations

import csv
import hashlib
import io
from pathlib import Path

import numpy as np

import candlekit.datasets as datasets
import candlekit.decompose as decompose
import candlekit.experiment as experiment
import candlekit.labeling as labeling
import candlekit.market_data as market_data
import candlekit.models as models
import candlekit.raster as raster
from candlekit.rng import derive_seed

# ACCEPT-6: MiniCNN at 32x32 with widths (4, 8), 30 epochs at batch 32.
PLANTED_N = 600
PLANTED_CFG = models.ModelConfig(
    variant="mini_cnn", input_shape=(3, 32, 32), block_widths=(4, 8), fc_dim=32, seed=5
)
PLANTED_TC = models.TrainConfig(epochs=30, batch_size=32, lr=1e-3, seed=11)
PLANTED_MIN_ACC = 0.95

# ACCEPT-8 desk geometry, shared by experiment_desk and dataset_roundtrip.
DESK_MODEL = {
    "hist_hw": [32, 32],
    "pattern_hw": [16, 16],
    "subchart_hw": [16, 16],
    "block_widths": [4, 8],
    "pattern_widths": [4],
    "fc_dim": 16,
    "latent_dim": 16,
}
DESK_N = 1500
WINDOW = 30
SUBCHARTS_PER_CHART = WINDOW - 3 + 1


class Workload:
    """Defaults shared by the workloads below."""

    min_passes = 1

    def prepare(self):
        return None

    def check_run(self) -> list[tuple[str, bool]]:
        return []

    def facts(self) -> dict:
        return {}


class TrainPlanted(Workload):
    """ROADMAP W1: ACCEPT-6 planted-signal ``train()``; only ``nn`` works."""

    default_seed = 7
    rate = ("train_samples_per_s", "forward+backward sample passes (n_train x epochs) per second")

    def __init__(self, seed: int, root: Path) -> None:
        self.inputs = datasets.planted_signal_set(PLANTED_N, seed=seed)
        self.best_acc: list[float] = []

    def prepare(self):
        return models.MiniCNN(PLANTED_CFG)

    def run(self, model, out_dir: Path):
        return models.train(model, self.inputs, PLANTED_TC)

    def items(self, report) -> int:
        """Forward+backward sample passes."""
        return report.n_train * PLANTED_TC.epochs

    def check(self, report, out_dir: Path) -> list[tuple[str, bool]]:
        best = report.best_val_accuracy()
        self.best_acc.append(best)
        return [(f"planted best val accuracy {best:.4f} >= {PLANTED_MIN_ACC}", best >= PLANTED_MIN_ACC)]

    def facts(self) -> dict:
        return {"planted_val_acc_best": min(self.best_acc)} if self.best_acc else {}


def desk_manifest(seed: int) -> dict:
    """ROADMAP W2: the ACCEPT-8 desk manifest at n=1500 plus a subchart arm."""
    return {
        "master_seed": seed,
        "output_dir": "unused",
        "datasets": [
            {"name": "desk_a", "synth": {"n": DESK_N, "volatility": 0.02}},
            {"name": "desk_b", "synth": {"n": DESK_N, "volatility": 0.03, "start_price": 40.0}},
        ],
        "arms": [
            {"arm_name": "with_pattern", "model": "two_stream", "include_pattern": True},
            {"arm_name": "non_pattern", "model": "mini_cnn", "include_pattern": False},
            {"arm_name": "subchart", "model": "subchart"},
        ],
        "model": DESK_MODEL,
        "train": {"epochs": 2, "batch_size": 32},
    }


class ExperimentDesk(Workload):
    """``run_experiment`` end to end; every pass must write the same report."""

    default_seed = 42
    min_passes = 2
    rate = ("samples_per_s", "dataset samples, each through every arm, per second")

    def __init__(self, seed: int, root: Path) -> None:
        self.man = experiment.manifest_from_dict(desk_manifest(seed), base_dir=root)
        self.digests: list[str] = []

    def run(self, job, out_dir: Path):
        return experiment.run_experiment(self.man, out_dir=out_dir)

    def items(self, report) -> int:
        """Dataset samples; each goes through every arm."""
        return sum(r["n_samples"] for r in report.rows if r["arm"] == "subchart")

    def check(self, report, out_dir: Path) -> list[tuple[str, bool]]:
        self.digests.append(hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest())
        return [(f"row {r['dataset']}/{r['arm']} status {r['status']}", r["status"] == "ok")
                for r in report.rows]

    def check_run(self) -> list[tuple[str, bool]]:
        return [(f"report.json identical over {len(self.digests)} passes",
                 len(set(self.digests)) == 1)]

    def facts(self) -> dict:
        return {"report_sha256": self.digests[0]} if self.digests else {}


def _ohlc_from_csv(text: str) -> np.ndarray:
    """(n, 4) open/high/low/close read back with the csv module alone."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return np.asarray([[float(v) for v in r[1:5]] for r in rows if r])


def _ohlc(series: market_data.Series) -> np.ndarray:
    return np.asarray([[c.open, c.high, c.low, c.close] for c in series.candles])


class DatasetRoundtrip(Workload):
    """Build, rebuild, read back and inverse-parse two datasets; no training.

    Set-up writes a CSV of one synthetic series. A pass builds one synth
    and one CSV-sourced dataset, rebuilds both into the same directory,
    assembles them with the pattern stream and as 16x16 sub-charts, and
    inverse-parses every history chart against its true price axis.
    """

    default_seed = 42
    rate = ("charts_per_s", "history + pattern charts written twice and read back, per second")
    names = ("rt_synth", "rt_csv")

    def __init__(self, seed: int, root: Path) -> None:
        source = market_data.synth_series(
            derive_seed(seed, "roundtrip-csv"), DESK_N,
            market_data.SynthParams(volatility=0.025, start_price=60.0), symbol="rt_csv",
        )
        csv_text = market_data.write_csv(source)
        root.mkdir(parents=True, exist_ok=True)
        (root / "rt_csv.csv").write_text(csv_text)
        doc = {
            "master_seed": seed,
            "output_dir": "unused",
            "datasets": [
                {"name": "rt_synth", "synth": {"n": DESK_N, "volatility": 0.02}},
                {"name": "rt_csv", "csv_path": "rt_csv.csv"},
            ],
            "arms": [{"arm_name": "non_pattern", "model": "mini_cnn"}],
            "model": DESK_MODEL,
        }
        self.man = experiment.manifest_from_dict(doc, base_dir=root)
        self.spec = self.man.render_spec
        # The true series behind each dataset: the synth walk the manifest
        # seeds via derive_seed(master, "dataset:<name>"), and the CSV as the
        # csv module reads it back.
        synth = market_data.synth_series(
            derive_seed(seed, "dataset:rt_synth"), DESK_N, self.man.datasets[0].synth,
            symbol="rt_synth",
        )
        self.truth = {"rt_synth": _ohlc(synth), "rt_csv": _ohlc_from_csv(csv_text)}
        self.expected: dict[str, list[tuple]] | None = None

    def _axis(self, name: str, end: int) -> tuple[float, float]:
        w = self.truth[name][end - WINDOW + 1 : end + 1]
        return float(w[:, 2].min()), float(w[:, 1].max())

    def run(self, job, out_dir: Path) -> dict:
        dirs = [experiment.build_dataset(self.man, n, out_dir) for n in self.names]
        first = [(d / "manifest.jsonl").read_bytes() for d in dirs]
        dirs = [experiment.build_dataset(self.man, n, out_dir) for n in self.names]
        hist_hw, pattern_hw = tuple(DESK_MODEL["hist_hw"]), tuple(DESK_MODEL["pattern_hw"])
        ts = datasets.assemble_training_set(dirs, hist_hw, pattern_hw, include_pattern=True)
        sub = datasets.assemble_subchart_dataset(
            dirs, tuple(DESK_MODEL["subchart_hw"]), self.spec, k=3, stride=1
        )
        parsed = {}
        for name, d in zip(self.names, dirs):
            rows = datasets.load_manifest_rows(d)
            parsed[name] = [
                (row, decompose.inverse_parse(
                    raster.read_ppm((d / row["history_image_path"]).read_bytes()),
                    self.spec, self._axis(name, row["end_index"]),
                ))
                for row in rows
            ]
        return {"dirs": dirs, "first": first, "ts": ts, "sub": sub, "parsed": parsed}

    def items(self, out: dict) -> int:
        """History plus pattern charts; each is written twice and read back."""
        return 2 * sum(len(p) for p in out["parsed"].values())

    def _expected(self) -> dict[str, list[tuple]]:
        if self.expected is None:
            self.expected = {}
            for name, ohlc in self.truth.items():
                series = market_data.Series(
                    symbol=name,
                    candles=tuple(
                        market_data.Candle(t, *map(float, row)) for t, row in enumerate(ohlc)
                    ),
                )
                self.expected[name] = [
                    (s.sample_id, s.match.end_index, s.match.kind.value, s.strength.value)
                    for s in labeling.build_samples(
                        series, self.man.pattern_params, self.man.labeler_params, w=WINDOW
                    )
                ]
        return self.expected

    def check(self, out: dict, out_dir: Path) -> list[tuple[str, bool]]:
        results = []
        expected = self._expected()
        n_total = 0
        for name, d, first in zip(self.names, out["dirs"], out["first"]):
            rows = [r for r, _ in out["parsed"][name]]
            got = [(r["sample_id"], r["end_index"], r["kind"], r["strength"]) for r in rows]
            results.append((f"{name}: manifest rows equal built samples", got == expected[name]))
            results.append((f"{name}: rebuild leaves the same manifest bytes",
                            (d / "manifest.jsonl").read_bytes() == first))
            n_total += len(rows)
        ts, sub = out["ts"], out["sub"]
        results.append(("training set holds every sample with its pattern stream",
                        len(ts) == n_total and ts.pattern is not None
                        and ts.pattern.shape[0] == n_total))
        results.append((f"every chart gives {SUBCHARTS_PER_CHART} sub-charts",
                        sub.subcharts.shape[:2] == (n_total, SUBCHARTS_PER_CHART)))
        for name, pairs in out["parsed"].items():
            for row, candles in pairs:
                end = row["end_index"]
                axis = self._axis(name, end)
                q = decompose.pixel_quantum(axis, self.spec)
                truth = self.truth[name][end - WINDOW + 1 : end + 1]
                got = np.asarray([[c.open, c.high, c.low, c.close] for c in candles])
                ok = got.shape == truth.shape and bool(np.all(np.abs(got - truth) <= q))
                results.append((f"{name}@{end}: {WINDOW} extents, fields within one quantum", ok))
        return results


WORKLOADS = {
    "train_planted": TrainPlanted,
    "experiment_desk": ExperimentDesk,
    "dataset_roundtrip": DatasetRoundtrip,
}
