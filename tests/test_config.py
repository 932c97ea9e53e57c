"""Config parsing: key=value format, typo safety, validation messages."""

import pytest

from dualseg.errors import ConfigError
from dualseg.harness.config import (RunConfig, config_from_dict,
                                    config_to_dict, parse_config,
                                    parse_config_text)


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

    def test_overrides_apply_after_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 7\n")
        assert parse_config(path, {"seed": 9}).seed == 9


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


class TestDictRoundTrip:
    def test_to_dict_and_back(self):
        cfg = parse_config_text("patch = 16\noverlap = 2\nsteps = 3\n"
                                "use_self_attn = false\n")
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ConfigError, match="mystery"):
            config_from_dict({"mystery": 1})
