"""Checkpoint save/load: lossless round-trip, shape and value policing."""

import json
import re

import numpy as np
import pytest

from dualseg.errors import ConfigError, DataError
from dualseg.harness import checkpoint
from dualseg.harness.checkpoint import (load_checkpoint, make_optimizer,
                                        save_checkpoint)
from dualseg.harness.config import RunConfig, config_text
from dualseg.model import ModelParams


def micro_cfg(**kw):
    base = dict(stage_channels=(4, 4), d_model=4, patch=8, overlap=2,
                global_size=8, num_classes=2, image_size=64)
    base.update(kw)
    return RunConfig(**base).validate()


def fresh(cfg, seed=0):
    return ModelParams(cfg.backbone(), cfg.num_classes,
                       rng=np.random.default_rng(seed))


class TestRoundTrip:
    def test_params_bitwise_identical(self, tmp_path):
        cfg = micro_cfg()
        params = fresh(cfg)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, cfg, params)
        cfg2, params2, opt_state = load_checkpoint(path)
        assert opt_state is None
        assert cfg2 == cfg
        with open(path) as f:
            assert json.load(f)["config"] == config_text(cfg)
        for name, t in params.named().items():
            assert t.data.tobytes() == params2.by_name[name].data.tobytes()

    def test_optimizer_state_round_trip(self, tmp_path):
        cfg = micro_cfg()
        params = fresh(cfg)
        opt = make_optimizer(cfg, params)
        for t in params.named().values():
            t.grad = np.ones_like(t.data)
        opt.step()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, cfg, params, opt)
        cfg2, params2, opt_state = load_checkpoint(path)
        opt2 = make_optimizer(cfg2, params2, opt_state)
        assert opt2.step_count == 1
        for name in opt.m:
            assert opt.m[name].tobytes() == opt2.m[name].tobytes()
            assert opt.v[name].tobytes() == opt2.v[name].tobytes()

    def test_save_is_deterministic(self, tmp_path):
        cfg = micro_cfg()
        params = fresh(cfg)
        save_checkpoint(tmp_path / "a.json", cfg, params)
        save_checkpoint(tmp_path / "b.json", cfg, params)
        assert (tmp_path / "a.json").read_bytes() \
            == (tmp_path / "b.json").read_bytes()

    def test_awkward_floats_survive(self, tmp_path):
        cfg = micro_cfg()
        params = fresh(cfg)
        t = params.by_name["f_agg.bias"]
        t.data[:] = [1e-300, -0.1, np.nextafter(1.0, 2.0)][: t.data.size]
        save_checkpoint(tmp_path / "c.json", cfg, params)
        _, params2, _ = load_checkpoint(tmp_path / "c.json")
        assert t.data.tobytes() == params2.by_name["f_agg.bias"].data.tobytes()


def _set(path, value):
    """Mutation of a checkpoint document: put `value` at the key `path`."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc
    return mutate


def _drop(*path):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return doc
    return mutate


BIAS = ("params", "head_g.bias")
MOMENT = ("optimizer", "m", "f_agg.kernel")

# valid JSON, wrong schema: (id, mutation, message the DataError carries)
MALFORMED = [
    ("top_level_list", lambda doc: [doc], "not a JSON object"),
    ("top_level_number", lambda doc: 3, "not a JSON object"),
    ("params_list", lambda doc: _set(("params",), list(doc["params"].values()))(doc),
     "'params' is not an object"),
    ("config_list", lambda doc: _set(("config",), doc["config"].splitlines())(doc),
     "'config' is not config text"),
    ("array_not_object", _set(BIAS, [0.0, 1.0]), "needs 'shape' and 'data'"),
    ("array_without_shape", _drop(*BIAS, "shape"), "needs 'shape' and 'data'"),
    ("array_without_data", _drop(*BIAS, "data"), "needs 'shape' and 'data'"),
    ("shape_not_list", _set(BIAS + ("shape",), 3), "not a list of sizes"),
    ("shape_of_strings", _set(BIAS + ("shape",), ["3"]), "not a list of sizes"),
    ("shape_negative", _set(BIAS + ("shape",), [-3]), "not a list of sizes"),
    ("data_strings", _set(BIAS + ("data",), ["a", "b"]), "not a flat list"),
    ("data_numeric_strings", _set(BIAS + ("data",), ["0.5", "1"]),
     "not a flat list"),
    ("data_bools", _set(BIAS + ("data",), [True, False]), "not a flat list"),
    ("data_nested", _set(BIAS + ("data",), [[0.5], [1.0]]), "not a flat list"),
    ("data_scalar", _set(BIAS + ("data",), 0.5), "not a flat list"),
    ("data_huge_int", _set(BIAS + ("data",), [10 ** 400]),
     "too large for a float"),
    ("shape_huge", _set(BIAS + ("shape",), [2 ** 63]), "values for shape"),
    ("shape_huge_empty", _set(BIAS, {"shape": [0, 2 ** 63], "data": []}),
     "too large for an array"),
    ("optimizer_list", _set(("optimizer",), []), "'optimizer' is not an object"),
    ("optimizer_without_v", _drop("optimizer", "v"), "optimizer has no 'v'"),
    ("optimizer_step_string", _set(("optimizer", "step"), "1"), "not a count"),
    ("optimizer_m_list", _set(("optimizer", "m"), []), "'m' is not an object"),
    ("moment_without_shape", _drop(*MOMENT, "shape"), "needs 'shape' and 'data'"),
    ("moment_strings", _set(MOMENT + ("data",), ["x"]), "not a flat list"),
]


class TestRejection:
    def _doc(self, tmp_path):
        cfg = micro_cfg()
        save_checkpoint(tmp_path / "ckpt.json", cfg, fresh(cfg))
        with open(tmp_path / "ckpt.json") as f:
            return json.load(f)

    def _write(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return path

    def test_wrong_version(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["version"] = 99
        with pytest.raises(DataError, match="version"):
            load_checkpoint(self._write(tmp_path, doc))

    def test_shape_mismatch(self, tmp_path):
        doc = self._doc(tmp_path)
        doc["params"]["head_g.bias"]["data"].append(0.0)
        with pytest.raises(DataError, match="head_g.bias"):
            load_checkpoint(self._write(tmp_path, doc))

    def test_missing_parameter(self, tmp_path):
        doc = self._doc(tmp_path)
        del doc["params"]["head_g.bias"]
        with pytest.raises(DataError, match="head_g.bias"):
            load_checkpoint(self._write(tmp_path, doc))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_non_finite_parameter(self, tmp_path, value):
        doc = self._doc(tmp_path)
        doc["params"]["head_g.bias"]["data"][0] = value
        with pytest.raises(DataError, match="'head_g.bias' has non-finite"):
            load_checkpoint(self._write(tmp_path, doc))

    def test_non_finite_optimizer_moment(self, tmp_path):
        cfg = micro_cfg()
        params = fresh(cfg)
        save_checkpoint(tmp_path / "ckpt.json", cfg, params,
                        make_optimizer(cfg, params))
        doc = json.loads((tmp_path / "ckpt.json").read_text())
        doc["optimizer"]["v"]["f_agg.kernel"]["data"][3] = float("nan")
        with pytest.raises(DataError, match="'f_agg.kernel' has non-finite"):
            load_checkpoint(self._write(tmp_path, doc))

    @pytest.mark.parametrize("key", ["config", "params"])
    def test_missing_section(self, tmp_path, key):
        doc = self._doc(tmp_path)
        del doc[key]
        with pytest.raises(DataError, match=f"no '{key}' section"):
            load_checkpoint(self._write(tmp_path, doc))

    @pytest.mark.parametrize("mutate,match", [m[1:] for m in MALFORMED],
                             ids=[m[0] for m in MALFORMED])
    def test_malformed_document(self, tmp_path, mutate, match):
        cfg = micro_cfg()
        params = fresh(cfg)
        save_checkpoint(tmp_path / "ckpt.json", cfg, params,
                        make_optimizer(cfg, params))
        doc = mutate(json.loads((tmp_path / "ckpt.json").read_text()))
        with pytest.raises(DataError, match=match):
            load_checkpoint(self._write(tmp_path, doc))

    def _with_line(self, tmp_path, key, raw):
        """A saved checkpoint whose config text sets `key = raw`."""
        doc = self._doc(tmp_path)
        doc["config"], n = re.subn(rf"^{key} = .*$", f"{key} = {raw}",
                                   doc["config"], flags=re.M)
        assert n == 1
        return self._write(tmp_path, doc)

    # each value the typed JSON config refused, now as its JSON text; text
    # reads `use_mask = 1` as true, so that case became `"maybe"`
    @pytest.mark.parametrize("key,value", [("d_model", "4"), ("patch", 8.0),
                                           ("use_mask", "maybe"),
                                           ("stage_channels", [4, "4"]),
                                           ("downsample", True)])
    def test_mistyped_config_value(self, tmp_path, key, value):
        path = self._with_line(tmp_path, key, json.dumps(value))
        with pytest.raises(ConfigError, match=f"^config key '{key}': "):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [("lr_global", float("nan")),
                                           ("coupling_lambda", float("inf"))])
    def test_non_finite_config_value(self, tmp_path, key, value):
        path = self._with_line(tmp_path, key, repr(value))
        with pytest.raises(ConfigError, match=f"'{key}': must be finite"):
            load_checkpoint(path)

    def test_config_text_errors_name_the_key(self, tmp_path):
        for line, match in [("patch = 8", "duplicate key 'patch'"),
                            ("mystery = 1", "unknown key 'mystery'")]:
            doc = self._doc(tmp_path)
            doc["config"] += line + "\n"
            with pytest.raises(ConfigError, match=match):
                load_checkpoint(self._write(tmp_path, doc))

    def test_optimizer_moments_for_wrong_parameters(self, tmp_path):
        cfg = micro_cfg()
        params = fresh(cfg)
        save_checkpoint(tmp_path / "ckpt.json", cfg, params,
                        make_optimizer(cfg, params))
        doc = json.loads((tmp_path / "ckpt.json").read_text())
        del doc["optimizer"]["v"]["f_agg.kernel"]
        cfg2, params2, opt_state = load_checkpoint(self._write(tmp_path, doc))
        with pytest.raises(DataError, match="wrong parameters"):
            make_optimizer(cfg2, params2, opt_state)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="JSON"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.json")


class TestAtomicSave:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path,
                                                    monkeypatch):
        cfg = micro_cfg()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, cfg, fresh(cfg, seed=0))
        before = path.read_bytes()

        def dump_then_fail(doc, f, **kwargs):
            f.write('{"config":{')
            raise OSError("no space left on device")

        monkeypatch.setattr(checkpoint.json, "dump", dump_then_fail)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, cfg, fresh(cfg, seed=1))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_overwrite_replaces_contents(self, tmp_path):
        cfg = micro_cfg()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, cfg, fresh(cfg, seed=0))
        params = fresh(cfg, seed=1)
        save_checkpoint(path, cfg, params)
        _, loaded, _ = load_checkpoint(path)
        for name, t in params.named().items():
            assert t.data.tobytes() == loaded.by_name[name].data.tobytes()
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
