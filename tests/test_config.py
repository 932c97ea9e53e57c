"""Config parsing: key=value format, typo safety, validation messages."""

import dataclasses
import json

import pytest

from dualseg.cli import main
from dualseg.errors import ConfigError
from dualseg.harness.config import (RunConfig, config_text, parse_config,
                                    parse_config_text, preset_ablation,
                                    preset_convergence)


class TestParsing:
    def test_defaults_when_empty(self):
        cfg = parse_config_text("")
        assert cfg == RunConfig()

    def test_values_comments_and_blanks(self):
        cfg = parse_config_text(
            "# run setup\n"
            "\n"
            "patch = 16\n"
            "overlap=4   # trailing comment\n"
            "focal_gamma = 2.5\n"
            "use_mask = false\n"
            "stage_channels = 4, 4\n"
            "downsample = true,false\n"
            "d_model = 4\n")
        assert cfg.patch == 16 and cfg.overlap == 4
        assert cfg.focal_gamma == 2.5
        assert cfg.use_mask is False
        assert cfg.stage_channels == (4, 4)
        assert cfg.downsample == (True, False)

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="patchh"):
            parse_config_text("patchh = 16\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key 'patch'"):
            parse_config_text("patch = 16\npatch = 32\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("patch 16\n")

    def test_bad_int_and_bool_values(self):
        with pytest.raises(ConfigError, match="patch"):
            parse_config_text("patch = sixteen\n")
        with pytest.raises(ConfigError, match="use_mask"):
            parse_config_text("use_mask = maybe\n")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 7\nsteps = 12\n")
        cfg = parse_config(path)
        assert cfg.seed == 7 and cfg.steps == 12

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.cfg")

    def test_seed_flag_applies_after_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 7\ntrain_scenes = 1\nval_scenes = 1\n"
                        "image_size = 48\n")
        assert main(["gen-data", "--config", str(path), "--seed", "9",
                     "--out", str(tmp_path / "data")]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 9
        # the flag is validated like a config value
        assert main(["gen-data", "--config", str(path), "--seed", "-1",
                     "--out", str(tmp_path / "neg")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'seed'" in err
        assert not (tmp_path / "neg").exists()

    def test_non_ascii_value_named(self):
        # int() would read a fullwidth digit as 8
        with pytest.raises(ConfigError, match="'patch': bad value"):
            parse_config_text("patch = \uff18\n")


class TestValidation:
    def test_overlap_must_be_below_patch(self):
        with pytest.raises(ConfigError, match="overlap"):
            parse_config_text("patch = 16\noverlap = 16\n")

    def test_d_model_must_match_last_stage(self):
        with pytest.raises(ConfigError, match="d_model"):
            parse_config_text("stage_channels = 8,4\nd_model = 8\n")

    def test_global_size_divisibility(self):
        with pytest.raises(ConfigError, match="global_size"):
            parse_config_text("global_size = 10\n")

    def test_patch_divisibility_uses_kept_resolution(self):
        # two pooled stages, last kept at full rate: patch must divide by 2
        cfg = parse_config_text("patch = 18\noverlap = 4\n")
        assert cfg.patch == 18
        with pytest.raises(ConfigError, match="patch"):
            parse_config_text("stage_channels = 8,8,8\n"
                              "downsample = true,true,true\n"
                              "patch = 18\noverlap = 4\n")

    def test_named_key_in_range_errors(self):
        for text, key in [("batch = 0\n", "batch"),
                          ("steps = -1\n", "steps"),
                          ("beta1 = 1.0\n", "beta1"),
                          ("lr_global = 0\n", "lr_global"),
                          ("focal_gamma = -2\n", "focal_gamma"),
                          ("image_size = 16\n", "image_size"),
                          ("mask_dilation = -1\n", "mask_dilation"),
                          ("lr_global = nan\n", "lr_global"),
                          ("lr_local = inf\n", "lr_local"),
                          ("focal_gamma = nan\n", "focal_gamma"),
                          ("coupling_lambda = inf\n", "coupling_lambda"),
                          ("num_classes = 256\n", "num_classes")]:
            with pytest.raises(ConfigError, match=key):
                parse_config_text(text)


# every field off its default, with floats a rounded format would change
OFF_DEFAULT = RunConfig(
    patch=16, overlap=4, global_size=16, num_classes=7,
    stage_channels=(4, 6, 5), downsample=(False, True, True), d_model=5,
    use_self_attn=False, use_mask=False, mask_dilation=2,
    coupling_lambda=0.1 + 0.2, focal_gamma=1e-300, lr_global=1 / 3,
    lr_local=2.5e-3, beta1=0.5, beta2=0.0, batch=2, steps=7, seed=11,
    image_size=40, train_scenes=3, val_scenes=2, ckpt_every=0)


class TestTextRoundTrip:
    @pytest.mark.parametrize("cfg", [RunConfig(), preset_convergence(),
                                     preset_ablation(), OFF_DEFAULT],
                             ids=["defaults", "convergence", "ablation",
                                  "off_default"])
    def test_text_and_back(self, cfg):
        again = parse_config_text(config_text(cfg))
        assert again == cfg
        for field in dataclasses.fields(RunConfig):
            assert repr(getattr(again, field.name)) \
                == repr(getattr(cfg, field.name))

    def test_one_line_per_field_in_field_order(self):
        OFF_DEFAULT.validate()
        for field in dataclasses.fields(RunConfig):
            assert getattr(OFF_DEFAULT, field.name) != field.default
        lines = config_text(OFF_DEFAULT).splitlines()
        assert [line.split(" = ")[0] for line in lines] \
            == [f.name for f in dataclasses.fields(RunConfig)]
        assert "downsample = false, true, true" in lines
        assert "coupling_lambda = 0.30000000000000004" in lines
