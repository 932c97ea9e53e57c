"""Run configuration: a flat key=value text format.

Lines are `key = value`; blank lines and lines starting with # are
skipped, as is anything after # on a value line. Unknown and duplicated
keys are errors (they are almost always typos). List-valued keys take
comma-separated items.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from ..errors import ConfigError
from ..model import BackboneConfig, TrainSettings

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


@dataclass
class RunConfig:
    patch: int = 32
    overlap: int = 8
    global_size: int = 32
    num_classes: int = 3
    stage_channels: tuple = (8, 8)
    downsample: tuple = (True, True)
    d_model: int = 8
    use_self_attn: bool = True
    use_mask: bool = True
    mask_dilation: int = 1
    coupling_lambda: float = 0.15
    focal_gamma: float = 6.0
    lr_global: float = 1e-4
    lr_local: float = 2e-5
    beta1: float = 0.9
    beta2: float = 0.999
    batch: int = 1
    steps: int = 500
    seed: int = 0
    image_size: int = 64
    train_scenes: int = 48
    val_scenes: int = 12
    ckpt_every: int = 100

    def backbone(self) -> BackboneConfig:
        return BackboneConfig(tuple(self.stage_channels),
                              tuple(self.downsample), self.d_model)

    def settings(self) -> TrainSettings:
        return TrainSettings(global_size=self.global_size,
                             use_self_attn=self.use_self_attn,
                             use_mask=self.use_mask,
                             focal_gamma=self.focal_gamma,
                             coupling_lambda=self.coupling_lambda,
                             mask_dilation=self.mask_dilation)

    def validate(self) -> "RunConfig":
        def bad(key, why):
            raise ConfigError(f"config key '{key}': {why}")

        if self.patch < 1:
            bad("patch", f"must be >= 1, got {self.patch}")
        if not 0 <= self.overlap < self.patch:
            bad("overlap", f"must satisfy 0 <= overlap < patch, got {self.overlap}")
        if self.global_size < 1:
            bad("global_size", f"must be >= 1, got {self.global_size}")
        # label maps and predictions are 8-bit, with 255 kept for ignore
        if not 1 <= self.num_classes <= 255:
            bad("num_classes", f"must lie in 1..255, got {self.num_classes}")
        if len(self.stage_channels) < 1:
            bad("stage_channels", "need at least one stage")
        if any(c < 1 for c in self.stage_channels):
            bad("stage_channels", f"channels must be >= 1, got {self.stage_channels}")
        if len(self.downsample) != len(self.stage_channels):
            bad("downsample", f"{len(self.downsample)} flags for "
                f"{len(self.stage_channels)} stages")
        if self.stage_channels[-1] != self.d_model:
            bad("d_model", f"must equal the last stage width "
                f"{self.stage_channels[-1]}, got {self.d_model}")
        div_g = 2 ** sum(self.downsample)
        if self.global_size % div_g:
            bad("global_size", f"must be divisible by {div_g} "
                f"(one halving per pooled stage)")
        div_l = self.backbone().stride(skip_last_pool=True)
        if self.patch % div_l:
            bad("patch", f"must be divisible by {div_l} "
                f"(pooled stages, last one kept at full rate)")
        if self.mask_dilation < 0:
            bad("mask_dilation", f"must be >= 0, got {self.mask_dilation}")
        # float("nan") and float("inf") parse, and NaN passes every bound
        for key in ("focal_gamma", "coupling_lambda", "lr_global", "lr_local"):
            if not math.isfinite(getattr(self, key)):
                bad(key, f"must be finite, got {getattr(self, key)}")
        if self.focal_gamma < 0:
            bad("focal_gamma", f"must be >= 0, got {self.focal_gamma}")
        if self.coupling_lambda < 0:
            bad("coupling_lambda", f"must be >= 0, got {self.coupling_lambda}")
        for key in ("lr_global", "lr_local"):
            if getattr(self, key) <= 0:
                bad(key, f"must be > 0, got {getattr(self, key)}")
        for key in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                bad(key, f"must lie in [0, 1), got {getattr(self, key)}")
        if self.batch < 1:
            bad("batch", f"must be >= 1, got {self.batch}")
        if self.image_size < self.patch:
            bad("image_size", f"must be >= patch ({self.patch}), "
                f"got {self.image_size}")
        for key in ("train_scenes", "val_scenes"):
            if getattr(self, key) < 1:
                bad(key, f"must be >= 1, got {getattr(self, key)}")
        for key in ("steps", "seed", "ckpt_every"):
            if getattr(self, key) < 0:
                bad(key, f"must be >= 0, got {getattr(self, key)}")
        return self


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ConfigError(f"config key '{key}': expected a boolean, got {raw!r}")


def _parse_value(key: str, raw: str, default):
    try:
        if isinstance(default, bool):
            return _parse_bool(key, raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            items = [s.strip() for s in raw.split(",") if s.strip()]
            if not items:
                raise ValueError("empty list")
            if isinstance(default[0], bool):
                return tuple(_parse_bool(key, s) for s in items)
            return tuple(int(s) for s in items)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': bad value {raw!r} ({exc})") from exc
    raise ConfigError(f"config key '{key}': unsupported type")  # pragma: no cover


def _config_keys(text: str) -> dict:
    """The typed value of every key the text sets."""
    keys = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value, "
                              f"got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"config line {lineno}: unknown key '{key}'")
        if key in keys:
            raise ConfigError(f"config line {lineno}: duplicate key '{key}'")
        keys[key] = _parse_value(key, raw, _FIELDS[key].default)
    return keys


def parse_config_text(text: str, overrides: dict | None = None) -> RunConfig:
    cfg = dataclasses.replace(RunConfig(), **_config_keys(text))
    for key, value in (overrides or {}).items():
        if key not in _FIELDS:
            raise ConfigError(f"config override: unknown key '{key}'")
        setattr(cfg, key, value)
    return cfg.validate()


def _read_config(path) -> str:
    try:
        with open(path, "r", encoding="ascii") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    return parse_config_text(_read_config(path), overrides)


# what a trained model's weights are shaped by
_MODEL_KEYS = ("stage_channels", "downsample", "d_model", "num_classes")


def override_config(base: RunConfig, path) -> RunConfig:
    """`base` with only the keys the config file at `path` sets replaced.
    A model's weights fix its `_MODEL_KEYS`, so a file that gives one of
    them another value than `base` has is refused."""
    keys = _config_keys(_read_config(path))
    for key in _MODEL_KEYS:
        if key in keys and keys[key] != getattr(base, key):
            raise ConfigError(
                f"config key '{key}': the model has {getattr(base, key)}, "
                f"the file sets {keys[key]}")
    return dataclasses.replace(base, **keys).validate()


def preset_convergence() -> RunConfig:
    """Tuned recipe for the bundled synthetic task.

    Wider trunk than the defaults, a softer focal exponent and a hotter
    shared learning rate; the coupling penalty is disabled because its
    gradient does not vanish as the branches agree, which at this scale
    drags both feature maps toward constants. Reaches ~0.88 held-out
    mIoU in 500 steps on one core.
    """
    return RunConfig(stage_channels=(16, 16), d_model=16,
                     focal_gamma=2.0, coupling_lambda=0.0,
                     lr_global=5e-3, lr_local=5e-3).validate()


def preset_ablation() -> RunConfig:
    """Capacity-limited recipe for comparing the attention mechanisms.

    At d_model 16 the fusion mask is nearly redundant: the aggregation
    head already receives spatially aligned global features through the
    resized concat path, so restricting retrieval moves results by less
    than seed noise. Halving the width makes the geometric prior earn
    its keep, which is the regime the ablation is meant to probe.
    """
    return RunConfig(stage_channels=(8, 8), d_model=8,
                     focal_gamma=2.0, coupling_lambda=0.0,
                     lr_global=3e-3, lr_local=3e-3).validate()


def config_to_dict(cfg: RunConfig) -> dict:
    out = {}
    for name in _FIELDS:
        value = getattr(cfg, name)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


def _json_type_ok(value, default) -> bool:
    """True when a JSON value has the type of a field's default."""
    if isinstance(default, tuple):
        return isinstance(value, list) \
            and all(_json_type_ok(v, default[0]) for v in value)
    if isinstance(default, float):
        return type(value) in (int, float)
    return type(value) is type(default)


def config_from_dict(raw: dict) -> RunConfig:
    cfg = RunConfig()
    for key, value in raw.items():
        if key not in _FIELDS:
            raise ConfigError(f"checkpoint config: unknown key '{key}'")
        if not _json_type_ok(value, _FIELDS[key].default):
            raise ConfigError(f"checkpoint config: key '{key}' has the wrong "
                              f"type ({value!r})")
        if isinstance(value, list):
            value = tuple(value)
        setattr(cfg, key, value)
    return cfg.validate()
