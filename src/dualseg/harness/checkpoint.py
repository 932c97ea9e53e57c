"""JSON checkpoints: config + parameters + optimizer moments.

JSON keeps the artifact diffable and dependency-free; Python's float
repr round-trips doubles exactly, so save/load is lossless. Arrays are
stored as shape + flat list in C order. Loading raises DataError on a
missing section, a size mismatch or a non-finite value.
"""

from __future__ import annotations

import json

import numpy as np

from ..autodiff import Tensor
from ..errors import DataError
from ..model import Adam, ModelParams
from .config import RunConfig, config_from_dict, config_to_dict

FORMAT_VERSION = 1


def _pack(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}


def _unpack(name: str, raw: dict) -> np.ndarray:
    shape = tuple(raw["shape"])
    data = np.asarray(raw["data"], dtype=np.float64)
    if data.size != int(np.prod(shape, dtype=np.int64)):
        raise DataError(f"checkpoint: array '{name}' has {data.size} values "
                        f"for shape {shape}")
    # json reads NaN and Infinity without complaint
    if not np.isfinite(data).all():
        raise DataError(f"checkpoint: array '{name}' has non-finite values")
    return data.reshape(shape)


def save_checkpoint(path, cfg: RunConfig, params: ModelParams,
                    opt: Adam | None = None) -> None:
    doc = {
        "version": FORMAT_VERSION,
        "config": config_to_dict(cfg),
        "params": {name: _pack(t.data) for name, t in params.named().items()},
    }
    if opt is not None:
        doc["optimizer"] = {
            "step": opt.step_count,
            "m": {name: _pack(a) for name, a in opt.m.items()},
            "v": {name: _pack(a) for name, a in opt.v.items()},
        }
    with open(path, "w", encoding="ascii") as f:
        json.dump(doc, f, separators=(",", ":"), sort_keys=True)
        f.write("\n")


def load_checkpoint(path) -> tuple[RunConfig, ModelParams, dict | None]:
    try:
        with open(path, "r", encoding="ascii") as f:
            doc = json.load(f)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if doc.get("version") != FORMAT_VERSION:
        raise DataError(f"checkpoint version {doc.get('version')!r} "
                        f"is not {FORMAT_VERSION}")
    for key in ("config", "params"):
        if key not in doc:
            raise DataError(f"checkpoint {path} has no '{key}' section")
    cfg = config_from_dict(doc["config"])
    named = {name: Tensor(_unpack(name, raw), requires_grad=True)
             for name, raw in doc["params"].items()}
    params = ModelParams.from_named(cfg.backbone(), cfg.num_classes, named)
    opt_state = None
    if "optimizer" in doc:
        raw = doc["optimizer"]
        opt_state = {
            "step": int(raw["step"]),
            "m": {n: _unpack(n, a) for n, a in raw["m"].items()},
            "v": {n: _unpack(n, a) for n, a in raw["v"].items()},
        }
    return cfg, params, opt_state


def make_optimizer(cfg: RunConfig, params: ModelParams,
                   opt_state: dict | None = None) -> Adam:
    opt = Adam(params.named(), lr_global=cfg.lr_global,
               lr_local=cfg.lr_local, beta1=cfg.beta1, beta2=cfg.beta2)
    if opt_state is not None:
        if set(opt_state["m"]) != set(opt.m):
            raise DataError("checkpoint optimizer state names the wrong parameters")
        opt.step_count = opt_state["step"]
        for name in opt.m:
            if opt_state["m"][name].shape != opt.m[name].shape:
                raise DataError(f"optimizer state '{name}': shape mismatch")
            opt.m[name] = opt_state["m"][name]
            opt.v[name] = opt_state["v"][name]
    return opt
