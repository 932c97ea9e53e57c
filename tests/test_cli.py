"""Command-line surface: pipelines, artifacts, exit codes."""

import dataclasses
import json
import time
import warnings

import numpy as np
import pytest

from dualseg import cli, model
from dualseg.cli import main
from dualseg.harness import data
from dualseg.harness.checkpoint import load_checkpoint
from dualseg.harness.config import RunConfig
from dualseg.harness.train import MICRO
from dualseg.model import TrainSettings
from dualseg.harness.netpbm import (image_to_bytes, read_pgm, read_ppm,
                                    write_pgm, write_ppm)

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

    def test_infer_config_overrides_only_the_keys_it_sets(
            self, workspace, tmp_path, capsys, monkeypatch):
        ckpt_cfg, _, _ = load_checkpoint(workspace / "run/ckpt.json")
        assert ckpt_cfg.global_size == 8 != RunConfig().global_size
        cfg = tmp_path / "nomask.cfg"
        cfg.write_text("use_mask = false\n")
        seen = []
        real_predict = cli.predict

        def predict(cfg, *args):
            seen.append(cfg)
            return real_predict(cfg, *args)

        monkeypatch.setattr(cli, "predict", predict)
        assert main(["infer", "--ckpt", str(workspace / "run/ckpt.json"),
                     "--config", str(cfg),
                     "--image", str(workspace / "data/val/scene_0000.ppm"),
                     "--out", str(tmp_path / "pred")]) == 0
        capsys.readouterr()
        assert seen == [dataclasses.replace(ckpt_cfg, use_mask=False)]

    def test_eval_scores_predictions(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval.jsonl"
        assert main(["eval", "--pred", str(workspace / "pred"),
                     "--gt", str(workspace / "data/val"),
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert out.read_text() == text
        lines = text.strip().splitlines()
        assert json.loads(lines[0])["image"] == "scene_0000.pgm"
        summary = json.loads(lines[-1])["summary"]
        assert 0.0 <= summary["miou"] <= 1.0

    def test_tile_plan_json(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert main(["tile", "--height", "2448", "--width", "2448",
                     "--patch", "500", "--overlap", "50",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert out.read_text() == text
        doc = json.loads(text)
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

    # each scene is tiled at its own size; both are drawn in two steps
    def test_train_on_scenes_of_two_sizes(self, workspace, tmp_path, capsys):
        for i, side in enumerate((64, 48)):
            scene = data.generate_scene(np.random.default_rng(i), side)
            write_ppm(tmp_path / f"s{i}.ppm", image_to_bytes(scene.image))
            write_pgm(tmp_path / f"s{i}.labels.pgm",
                      scene.labels.astype(np.uint8))
        for seed in ("2", "3"):
            assert main(["train", "--config", str(workspace / "run.cfg"),
                         "--seed", seed, "--data", str(tmp_path),
                         "--out", str(tmp_path / seed)]) == 0
            log = (tmp_path / seed / "log.jsonl").read_text()
            assert len(log.splitlines()) == 2
        capsys.readouterr()


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

    @pytest.mark.parametrize("args, flag", [
        (["tile", "--height", "10", "--width", "10", "--patch", "0"],
         "--patch"),
        (["tile", "--height", "0", "--width", "10", "--patch", "4"],
         "--height"),
        (["tile", "--height", "10", "--width", "-3", "--patch", "4"],
         "--width"),
        (["tile", "--height", "10", "--width", "10", "--patch", "4",
          "--overlap", "4"], "--overlap"),
        (["tile", "--height", "10", "--width", "10", "--patch", "4",
          "--overlap", "-1"], "--overlap"),
        (["eval", "--pred", ".", "--gt", ".", "--classes", "0"], "--classes"),
    ])
    def test_out_of_range_number_is_2(self, capsys, args, flag):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and flag in captured.err

    # the weights fix the model keys: a file naming another model is
    # refused, whichever key differs
    @pytest.mark.parametrize("text, key", [
        ("stage_channels = 8,8\nd_model = 8\n", "stage_channels"),
        ("d_model = 8\n", "d_model"),
        ("downsample = true,false\n", "downsample"),
        ("num_classes = 4\n", "num_classes"),
    ])
    def test_infer_config_for_another_model_is_2(self, workspace, tmp_path,
                                                 capsys, text, key):
        cfg = tmp_path / "other.cfg"
        cfg.write_text(text)
        assert main(["infer", "--ckpt", str(workspace / "run/ckpt.json"),
                     "--config", str(cfg),
                     "--image", str(workspace / "data/val/scene_0000.ppm"),
                     "--out", str(tmp_path / "pred")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"'{key}'" in err
        assert not (tmp_path / "pred").exists()

    def test_checkpoint_with_too_many_classes_is_2(self, workspace, tmp_path,
                                                   capsys):
        # predictions are written as 8-bit gray with 255 kept for ignore
        doc = json.loads((workspace / "run/ckpt.json").read_text())
        assert "\nnum_classes = 3\n" in doc["config"]
        doc["config"] = doc["config"].replace("\nnum_classes = 3\n",
                                              "\nnum_classes = 300\n")
        ckpt = tmp_path / "classes.json"
        ckpt.write_text(json.dumps(doc))
        assert main(["infer", "--ckpt", str(ckpt),
                     "--image", str(workspace / "data/val/scene_0000.ppm"),
                     "--out", str(tmp_path / "pred")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'num_classes'" in err
        assert not (tmp_path / "pred").exists()

    def test_format_1_checkpoint_is_3(self, workspace, tmp_path, capsys):
        # format 1 stored the config as a typed JSON object
        doc = json.loads((workspace / "run/ckpt.json").read_text())
        doc["version"] = 1
        doc["config"] = dataclasses.asdict(load_checkpoint(
            workspace / "run/ckpt.json")[0])
        ckpt = tmp_path / "v1.json"
        ckpt.write_text(json.dumps(doc))
        assert main(["infer", "--ckpt", str(ckpt),
                     "--image", str(workspace / "data/val/scene_0000.ppm"),
                     "--out", str(tmp_path / "pred")]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "checkpoint version 1 is not 2" in captured.err
        assert not (tmp_path / "pred").exists()

    def test_global_size_above_token_cap_is_3(self, workspace, tmp_path,
                                              capsys, monkeypatch):
        # 65536 px at stride 4 is 16384**2 global tokens; the refusal
        # comes before the downsample would allocate ~100 GB
        def resize(*args, **kwargs):
            raise AssertionError("the refused global branch resized")

        monkeypatch.setattr(model.ad, "bilinear_resize", resize)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("global_size = 65536\n")
        assert main(["infer", "--ckpt", str(workspace / "run/ckpt.json"),
                     "--config", str(cfg),
                     "--image", str(workspace / "data/val/scene_0000.ppm"),
                     "--out", str(tmp_path / "pred")]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert ("has 268435456 tokens, more than 65536; use a smaller "
                "global_size") in captured.err
        assert not (tmp_path / "pred").exists()

    def test_global_tile_above_token_cap_is_3(self, workspace, tmp_path,
                                              capsys, monkeypatch):
        # the 64 px scene is one 1024-token tile in global mode
        monkeypatch.setattr(model, "MAX_TILE_TOKENS", 1023)
        assert main(["infer", "--ckpt", str(workspace / "run/ckpt.json"),
                     "--image", str(workspace / "data/val/scene_0000.ppm"),
                     "--mode", "global", "--out", str(tmp_path / "pred")]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "1024 tokens, more than 1023; use patch mode" in captured.err
        assert not (tmp_path / "pred").exists()

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
                                            ("image_size", data.MAX_SIZE + 1),
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

    def test_labels_of_another_size_are_3(self, workspace, tmp_path, capsys):
        src = workspace / "data/train/scene_0000.ppm"
        (tmp_path / "scene_0000.ppm").write_bytes(src.read_bytes())
        write_pgm(tmp_path / "scene_0000.labels.pgm",
                  np.zeros((48, 48), dtype=np.uint8))
        assert main(["train", "--config", str(workspace / "run.cfg"),
                     "--data", str(tmp_path), "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "scene_0000.labels.pgm: labels (48, 48) do not match" in err
        assert not (tmp_path / "run").exists()

    def test_image_smaller_than_the_patch_is_3(self, workspace, tmp_path,
                                               capsys):
        # one zero-padded tile: the padding would be trained as class 0
        rng = np.random.default_rng(0)
        write_ppm(tmp_path / "small.ppm",
                  image_to_bytes(rng.random((3, 24, 40))))
        write_pgm(tmp_path / "small.labels.pgm",
                  rng.integers(1, 3, size=(24, 40)).astype(np.uint8))
        assert main(["train", "--config", str(workspace / "run.cfg"),
                     "--data", str(tmp_path), "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "train: a 24x40 image is smaller than the 32 px patch" in err
        assert not (tmp_path / "run").exists()

    def test_diverging_run_is_3(self, workspace, tmp_path, capsys):
        # the first update throws the weights to ~1e300, so step 1's loss
        # is not finite
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MICRO_CFG.replace("steps = 2", "steps = 6")
                       + "lr_global = 1e300\nlr_local = 1e300\nckpt_every = 1\n")
        out = tmp_path / "run"
        # pytest would swallow numpy's RuntimeWarnings; record them instead
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(cfg), "--deterministic",
                         "--data", str(workspace / "data/train"),
                         "--out", str(out)]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "Traceback" not in err

        def refuse(name):
            raise AssertionError(f"log line holds {name}")

        logged = [json.loads(line, parse_constant=refuse)
                  for line in (out / "log.jsonl").read_text().splitlines()]
        assert [line["step"] for line in logged] == [0]
        assert err.splitlines()[-1].startswith("error: train: step 1 has loss ")
        # the only checkpoint is of step 0, and it loads
        load_checkpoint(str(out / "ckpt.json"))

    def test_missing_data_is_3(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nothing"),
                     "--out", str(tmp_path / "o")]) == 3
        capsys.readouterr()

    def test_corrupt_image_is_3(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n4 4\n255\n")
        assert main(["infer", "--ckpt", str(workspace / "run/ckpt.json"),
                     "--image", str(bad), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "truncated (0 of 48 bytes)" in err

    def test_oversized_image_header_is_3(self, workspace, tmp_path, capsys):
        bad = tmp_path / "huge.ppm"
        bad.write_bytes(b"P6\n8000 8000\n255\n" + bytes(12))
        assert main(["infer", "--ckpt", str(workspace / "run/ckpt.json"),
                     "--image", str(bad), "--out", str(tmp_path / "pred")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "truncated (12 of 192000000 bytes)" in err

    def test_overlong_header_field_is_3_at_once(self, workspace, tmp_path,
                                                capsys):
        # a 320,000-digit width: the reader stops at the token cap rather
        # than growing the token byte by byte and parsing it
        bad = tmp_path / "long.ppm"
        bad.write_bytes(b"P6\n" + b"1" * 320_000 + b" 4\n255\n" + bytes(48))
        t0 = time.perf_counter()
        code = main(["infer", "--ckpt", str(workspace / "run/ckpt.json"),
                     "--image", str(bad), "--out", str(tmp_path / "pred")])
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1
        assert "header token longer than 64 bytes" in err
        assert elapsed < 1.0

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


def _mutations(data: bytes):
    """Truncations and byte flips of a file at fixed offsets."""
    n = len(data)
    for cut in (0, 1, 12, n // 2, n - 1):
        yield data[:cut]
    for at in (0, 3, 12, n // 2):
        for byte in (0xFF, data[at] ^ 0x01):
            flipped = bytearray(data)
            flipped[at] = byte
            yield bytes(flipped)


class TestCorruptionTable:
    """Each input file a command reads, truncated, flipped or missing, and
    each --out a command cannot write: the command finishes or exits 2 or 3
    with one line on stderr. A corrupt config is fed to eval and infer only:
    whatever config it still parses to runs quickly there, while train
    could lose `steps = 2` and run 500 steps."""

    SCENE = "scene_0000"
    # kind -> (file name in the input directory, its source in the workspace)
    FILES = {"ckpt": ("ckpt.json", "run/ckpt.json"),
             "ppm": (f"{SCENE}.ppm", f"data/val/{SCENE}.ppm"),
             "pgm": (f"{SCENE}.labels.pgm", f"data/val/{SCENE}.labels.pgm"),
             "cfg": ("run.cfg", "run.cfg")}
    FED = [("ckpt", "infer"), ("ppm", "infer"), ("ppm", "train"),
           ("pgm", "train"), ("pgm", "eval"), ("cfg", "eval"),
           ("cfg", "infer")]

    def _argv(self, ws, tmp, command, kind, content):
        """`command` reading a copy of the workspace inputs in which the
        `kind` file holds `content`, or is missing when that is None."""
        inputs = tmp / "in"
        inputs.mkdir()
        for k, (name, src) in self.FILES.items():
            data = (ws / src).read_bytes() if k != kind else content
            if data is not None:
                (inputs / name).write_bytes(data)
        # the prediction eval scores: a copy of the clean labels
        (inputs / f"{self.SCENE}.pgm").write_bytes(
            (ws / self.FILES["pgm"][1]).read_bytes())
        cfg = inputs / "run.cfg"
        return {"infer": ["infer", "--ckpt", inputs / "ckpt.json",
                          "--image", inputs / f"{self.SCENE}.ppm",
                          "--config", cfg, "--out", tmp / "out"],
                "train": ["train", "--config", ws / "run.cfg",
                          "--data", inputs, "--out", tmp / "run"],
                "eval": ["eval", "--config", cfg, "--pred", inputs,
                         "--gt", inputs]}[command]

    @staticmethod
    def _run(argv, capsys, codes=(0, 2, 3)):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        assert code in codes, (argv, code, captured.err)
        assert captured.err.count("\n") <= 1, (argv, captured.err)
        if code:
            assert captured.err.startswith("error: "), (argv, captured.err)
        return captured

    @pytest.mark.parametrize("kind, command", FED)
    def test_corrupt_input(self, workspace, tmp_path, capsys, kind, command):
        clean = (workspace / self.FILES[kind][1]).read_bytes()
        for i, content in enumerate(_mutations(clean)):
            tmp = tmp_path / str(i)
            tmp.mkdir()
            self._run(self._argv(workspace, tmp, command, kind, content),
                      capsys)

    @pytest.mark.parametrize("kind, command", FED)
    def test_missing_input(self, workspace, tmp_path, capsys, kind, command):
        self._run(self._argv(workspace, tmp_path, command, kind, None),
                  capsys, codes=(2,) if kind == "cfg" else (3,))

    @pytest.mark.parametrize("kind, code", [("ckpt", 3), ("cfg", 2)])
    def test_non_ascii_byte(self, workspace, tmp_path, capsys, kind, code):
        content = bytearray((workspace / self.FILES[kind][1]).read_bytes())
        content[3] = 0xFF
        argv = self._argv(workspace, tmp_path, "infer", kind, bytes(content))
        err = self._run(argv, capsys, codes=(code,)).err
        assert "cannot read" in err and "0xff" in err

    @pytest.mark.parametrize("command", ["gen-data", "train", "infer",
                                         "eval", "tile", "bench-memory",
                                         "ablate"])
    def test_unwritable_out_is_3(self, workspace, tmp_path, capsys, command):
        # a regular file where a directory must be: no mode bits involved
        blocker = tmp_path / "file"
        blocker.write_text("")
        ws, val = workspace, workspace / "data/val"
        labels = (ws / self.FILES["pgm"][1]).read_bytes()
        (tmp_path / f"{self.SCENE}.pgm").write_bytes(labels)
        argv = {
            "gen-data": ["--config", ws / "run.cfg", "--out", blocker],
            "train": ["--config", ws / "run.cfg", "--data", ws / "data/train",
                      "--out", blocker],
            "infer": ["--ckpt", ws / "run/ckpt.json",
                      "--image", val / f"{self.SCENE}.ppm", "--out", blocker],
            "eval": ["--pred", tmp_path, "--gt", val,
                     "--out", blocker / "e.json"],
            "tile": ["--height", 64, "--width", 64, "--patch", 32,
                     "--out", blocker / "t.json"],
            "bench-memory": ["--out", blocker / "b.json"],
            "ablate": ["--config", ws / "run.cfg", "--data", ws / "data",
                       "--seeds", 1, "--out", blocker / "a.csv"],
        }[command]
        # --out is written before anything is printed
        assert self._run([command, *argv], capsys, codes=(3,)).out == ""
