"""Command-line surface: pipelines, artifacts, exit codes."""

import json
import time

import numpy as np
import pytest

from dualseg import cli
from dualseg.cli import main
from dualseg.harness.train import MICRO
from dualseg.model import TrainSettings
from dualseg.harness.netpbm import read_pgm, read_ppm, write_pgm, write_ppm

MICRO_CFG = """
# micro run for tests
stage_channels = 4,4
d_model = 4
global_size = 8
steps = 2
train_scenes = 2
val_scenes = 1
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config + dataset + short training run, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(MICRO_CFG)
    assert main(["gen-data", "--config", str(cfg),
                 "--out", str(root / "data")]) == 0
    assert main(["train", "--config", str(cfg),
                 "--data", str(root / "data/train"),
                 "--out", str(root / "run"), "--deterministic"]) == 0
    return root


class TestPipeline:
    def test_training_artifacts_exist(self, workspace):
        assert (workspace / "run/ckpt.json").exists()
        log = (workspace / "run/log.jsonl").read_text().splitlines()
        assert len(log) == 2

    def test_infer_writes_prediction_and_report(self, workspace, capsys):
        assert main(["infer", "--ckpt", str(workspace / "run/ckpt.json"),
                     "--image", str(workspace / "data/val/scene_0000.ppm"),
                     "--out", str(workspace / "pred"), "--overlay"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["transient_bytes"] > 0
        pred = read_pgm(workspace / "pred/scene_0000.pgm")
        assert pred.shape == (64, 64)
        overlay = read_ppm(workspace / "pred/scene_0000.overlay.ppm")
        assert overlay.shape == (64, 64, 3)
        assert (workspace / "pred/memory.json").exists()

    def test_infer_global_mode_single_patch_image_matches(self, workspace,
                                                          tmp_path, capsys):
        # an image exactly one patch wide: both modes see one tile
        cfg = tmp_path / "one.cfg"
        cfg.write_text(MICRO_CFG + "patch = 64\noverlap = 0\n")
        outs = {}
        for mode in ("patch", "global"):
            assert main(["infer", "--ckpt", str(workspace / "run/ckpt.json"),
                         "--config", str(cfg),
                         "--image", str(workspace / "data/val/scene_0000.ppm"),
                         "--mode", mode,
                         "--out", str(tmp_path / mode)]) == 0
            outs[mode] = (tmp_path / mode / "scene_0000.pgm").read_bytes()
        capsys.readouterr()
        assert outs["patch"] == outs["global"]

    def test_eval_scores_predictions(self, workspace, capsys):
        assert main(["eval", "--pred", str(workspace / "pred"),
                     "--gt", str(workspace / "data/val")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert json.loads(lines[0])["image"] == "scene_0000.pgm"
        summary = json.loads(lines[-1])["summary"]
        assert 0.0 <= summary["miou"] <= 1.0

    def test_tile_plan_json(self, capsys):
        assert main(["tile", "--height", "2448", "--width", "2448",
                     "--patch", "500", "--overlap", "50"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_tiles"] == 36
        assert doc["origins"][5] == [0, 1948]

    def test_train_determinism_byte_identical(self, workspace, tmp_path,
                                              capsys):
        cfg = workspace / "run.cfg"
        for sub in ("a", "b"):
            assert main(["train", "--config", str(cfg),
                         "--data", str(workspace / "data/train"),
                         "--out", str(tmp_path / sub),
                         "--deterministic"]) == 0
        capsys.readouterr()
        assert (tmp_path / "a/log.jsonl").read_bytes() \
            == (tmp_path / "b/log.jsonl").read_bytes()
        assert (tmp_path / "a/ckpt.json").read_bytes() \
            == (tmp_path / "b/ckpt.json").read_bytes()


class TestExitCodes:
    def test_tile_plan_too_large_is_3(self, capsys):
        t0 = time.perf_counter()
        assert main(["tile", "--height", "1000000", "--width", "1000000",
                     "--patch", "1"]) == 3
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "needs 1000000000000 tiles" in captured.err

    def test_unknown_config_key_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("patchh = 8\n")
        assert main(["gen-data", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == 2
        assert "patchh" in capsys.readouterr().err

    def test_invalid_config_value_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("overlap = 40\n")
        assert main(["train", "--config", str(cfg), "--data", "x",
                     "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    def test_negative_seed_flag_is_2(self, tmp_path, capsys):
        assert main(["gen-data", "--seed", "-1",
                     "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'seed'" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("key, value", [("image_size", 40),
                                            ("num_classes", 2)])
    def test_gen_data_size_the_task_cannot_use_is_2(self, tmp_path, capsys,
                                                    key, value):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main(["gen-data", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"'{key}'" in err
        assert not (tmp_path / "d").exists()

    def test_negative_gradcheck_seed_is_2(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "'seed'" in captured.err

    def test_negative_config_seed_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = -3\n")
        assert main(["train", "--config", str(cfg), "--data", "x",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be >= 0, got -3" in err

    def test_ablate_without_seeds_is_2(self, tmp_path, capsys):
        out = tmp_path / "ablation.csv"
        assert main(["ablate", "--data", str(tmp_path), "--out", str(out),
                     "--seeds", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "at least one seed" in err
        assert not out.exists()

    def test_missing_data_is_3(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nothing"),
                     "--out", str(tmp_path / "o")]) == 3
        capsys.readouterr()

    def test_corrupt_image_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n4 4\n255\n")
        ckpt = tmp_path / "no.json"
        assert main(["infer", "--ckpt", str(ckpt), "--image", str(bad),
                     "--out", str(tmp_path)]) == 3
        capsys.readouterr()

    def test_oversized_image_header_is_3(self, workspace, tmp_path, capsys):
        bad = tmp_path / "huge.ppm"
        bad.write_bytes(b"P6\n8000 8000\n255\n" + bytes(12))
        assert main(["infer", "--ckpt", str(workspace / "run/ckpt.json"),
                     "--image", str(bad), "--out", str(tmp_path / "pred")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "truncated (12 of 192000000 bytes)" in err

    def test_nan_checkpoint_is_3(self, workspace, tmp_path, capsys):
        doc = json.loads((workspace / "run/ckpt.json").read_text())
        doc["params"]["f_agg.bias"]["data"][0] = float("nan")
        ckpt = tmp_path / "nan.json"
        ckpt.write_text(json.dumps(doc))
        assert main(["infer", "--ckpt", str(ckpt),
                     "--image", str(workspace / "data/val/scene_0000.ppm"),
                     "--out", str(tmp_path / "pred")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'f_agg.bias' has non-finite" in err
        assert not (tmp_path / "pred").exists()

    def test_malformed_checkpoint_is_3(self, workspace, tmp_path, capsys):
        doc = json.loads((workspace / "run/ckpt.json").read_text())
        del doc["params"]["f_agg.bias"]["shape"]
        ckpt = tmp_path / "noshape.json"
        ckpt.write_text(json.dumps(doc))
        assert main(["infer", "--ckpt", str(ckpt),
                     "--image", str(workspace / "data/val/scene_0000.ppm"),
                     "--out", str(tmp_path / "pred")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'f_agg.bias' needs 'shape' and 'data'" in err
        assert not (tmp_path / "pred").exists()

    def test_gradcheck_corruption_is_4(self, tmp_path, capsys,
                                       scale_matmul_input_grad):
        cfg = tmp_path / "micro.cfg"
        cfg.write_text("stage_channels = 2,2\nd_model = 2\n")
        scale_matmul_input_grad(1.1)
        assert main(["gradcheck", "--config", str(cfg)]) == 4
        out = capsys.readouterr()
        assert not json.loads(out.out)["passed"]

    def test_gradcheck_degenerate_single_dim_passes(self, tmp_path, capsys):
        # d_model = 1 exercises the 1/sqrt(1) attention scaling path.
        # seed 1: with one channel, seed 0 parks a rectifier within the
        # finite-difference step of its corner and the probe misreads it
        cfg = tmp_path / "one.cfg"
        cfg.write_text("stage_channels = 1,1\nd_model = 1\nnum_classes = 2\n")
        assert main(["gradcheck", "--config", str(cfg), "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]


class TestGradcheckConfig:
    def test_config_settings_pass_through(self, tmp_path, capsys,
                                          monkeypatch):
        # every TrainSettings field off its default; only global_size is
        # replaced by the micro model's
        cfg = tmp_path / "knobs.cfg"
        cfg.write_text("global_size = 16\nuse_self_attn = false\n"
                       "use_mask = false\nfocal_gamma = 1.5\n"
                       "coupling_lambda = 0.3\nmask_dilation = 2\n")
        seen = []

        def fake_run_gradcheck(backbone, settings, num_classes, seed):
            seen.append(settings)
            return {"passed": True, "max_rel_err": 0.0}

        monkeypatch.setattr(cli, "run_gradcheck", fake_run_gradcheck)
        assert main(["gradcheck", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert seen == [TrainSettings(
            global_size=MICRO["global_size"], use_self_attn=False,
            use_mask=False, focal_gamma=1.5, coupling_lambda=0.3,
            mask_dilation=2)]


class TestBenchMemory:
    def test_report_structure(self, capsys):
        assert main(["bench-memory"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["patch"]) == {"128", "256"}
        assert doc["global"]["256"]["transient_bytes"] > 0
        assert doc["patch_growth"] > 0
        assert isinstance(doc["patch_below_global_at_large"], bool)
