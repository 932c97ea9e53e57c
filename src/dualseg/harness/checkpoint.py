"""JSON checkpoints, format 2: config + parameters + optimizer moments.

JSON keeps the artifact diffable and dependency-free; Python's float
repr round-trips doubles exactly, so save/load is lossless. The config
is one string holding the `key = value` text a config file holds
(`config_text`), read back by the config-file parser, so a bad value
gets the ConfigError a config file would. Arrays are stored as shape +
flat list in C order. Loading raises DataError on any document that does
not follow that schema (another format version, a missing or mistyped
section, an array without a shape, non-numeric data, a size mismatch, a
non-finite value). Saving writes a temporary file next to the target and
moves it into place with `os.replace`, so a write that fails midway
leaves the previous checkpoint as it was.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from ..autodiff import Tensor
from ..errors import DataError
from ..model import Adam, ModelParams
from .config import RunConfig, config_text, parse_config_text

FORMAT_VERSION = 2


def _pack(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}


def _unpack(name: str, raw) -> np.ndarray:
    if not isinstance(raw, dict) or "shape" not in raw or "data" not in raw:
        raise DataError(f"checkpoint: array '{name}' needs 'shape' and 'data'")
    shape, data = raw["shape"], raw["data"]
    if not isinstance(shape, list) \
            or not all(type(n) is int and n >= 0 for n in shape):
        raise DataError(f"checkpoint: array '{name}' has shape {shape!r}, "
                        f"not a list of sizes")
    if not isinstance(data, list) \
            or not all(type(x) in (int, float) for x in data):
        raise DataError(f"checkpoint: array '{name}' data is not a flat "
                        f"list of numbers")
    try:
        data = np.asarray(data, dtype=np.float64)
    except OverflowError:
        raise DataError(f"checkpoint: array '{name}' has a number too large "
                        f"for a float") from None
    if data.size != math.prod(shape):
        raise DataError(f"checkpoint: array '{name}' has {data.size} values "
                        f"for shape {tuple(shape)}")
    # json reads NaN and Infinity without complaint
    if not np.isfinite(data).all():
        raise DataError(f"checkpoint: array '{name}' has non-finite values")
    try:
        return data.reshape(shape)
    except ValueError:  # an empty array with a size numpy cannot index
        raise DataError(f"checkpoint: array '{name}' has shape "
                        f"{tuple(shape)}, too large for an array") from None


def _object(doc: dict, key: str, where: str) -> dict:
    value = doc[key]
    if not isinstance(value, dict):
        raise DataError(f"{where}: '{key}' is not an object")
    return value


def save_checkpoint(path, cfg: RunConfig, params: ModelParams,
                    opt: Adam | None = None) -> None:
    doc = {
        "version": FORMAT_VERSION,
        "config": config_text(cfg),
        "params": {name: _pack(t.data) for name, t in params.named().items()},
    }
    if opt is not None:
        doc["optimizer"] = {
            "step": opt.step_count,
            "m": {name: _pack(a) for name, a in opt.m.items()},
            "v": {name: _pack(a) for name, a in opt.v.items()},
        }
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as f:
            json.dump(doc, f, separators=(",", ":"), sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[RunConfig, ModelParams, dict | None]:
    try:
        with open(path, "r", encoding="ascii") as f:
            doc = json.load(f)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    where = f"checkpoint {path}"
    if not isinstance(doc, dict):
        raise DataError(f"{where} is not a JSON object")
    if doc.get("version") != FORMAT_VERSION:
        raise DataError(f"checkpoint version {doc.get('version')!r} "
                        f"is not {FORMAT_VERSION}")
    for key in ("config", "params"):
        if key not in doc:
            raise DataError(f"{where} has no '{key}' section")
    if not isinstance(doc["config"], str):
        raise DataError(f"{where}: 'config' is not config text")
    cfg = parse_config_text(doc["config"])
    named = {name: Tensor(_unpack(name, raw), requires_grad=True)
             for name, raw in _object(doc, "params", where).items()}
    params = ModelParams.from_named(cfg.backbone(), cfg.num_classes, named)
    opt_state = None
    if "optimizer" in doc:
        raw = _object(doc, "optimizer", where)
        for key in ("step", "m", "v"):
            if key not in raw:
                raise DataError(f"{where}: optimizer has no '{key}'")
        if type(raw["step"]) is not int or raw["step"] < 0:
            raise DataError(f"{where}: optimizer step {raw['step']!r} is "
                            f"not a count")
        opt_state = {
            "step": raw["step"],
            "m": {n: _unpack(n, a)
                  for n, a in _object(raw, "m", f"{where} optimizer").items()},
            "v": {n: _unpack(n, a)
                  for n, a in _object(raw, "v", f"{where} optimizer").items()},
        }
    return cfg, params, opt_state


def make_optimizer(cfg: RunConfig, params: ModelParams,
                   opt_state: dict | None = None) -> Adam:
    opt = Adam(params.named(), lr_global=cfg.lr_global,
               lr_local=cfg.lr_local, beta1=cfg.beta1, beta2=cfg.beta2)
    if opt_state is not None:
        if set(opt_state["m"]) != set(opt.m) or set(opt_state["v"]) != set(opt.v):
            raise DataError("checkpoint optimizer state names the wrong parameters")
        opt.step_count = opt_state["step"]
        for name in opt.m:
            if opt_state["m"][name].shape != opt.m[name].shape \
                    or opt_state["v"][name].shape != opt.v[name].shape:
                raise DataError(f"optimizer state '{name}': shape mismatch")
            opt.m[name] = opt_state["m"][name]
            opt.v[name] = opt_state["v"][name]
    return opt
