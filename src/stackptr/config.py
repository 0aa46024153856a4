"""Model and training hyperparameters, plus flat config-file I/O."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .treebank import TreebankError, _open_text

CHILD_ORDERS = ("inside_out", "left2right", "right2left")
ATTENTION_SCALES = ("per_head", "model_dim")
# The fields that fix some parameter tensor's shape: a checkpoint's values
# fit only a config that agrees with its own on every one of them.
ARCHITECTURE_FIELDS = ("d_w", "char_dim", "pos_dim", "num_filters", "filter_width",
                       "r", "d_h", "arc_mlp_dim", "label_mlp_dim")


class ConfigError(ValueError):
    """A configuration key or value the parser cannot use; the message names
    the key and the value."""


class ArchitectureMismatch(ConfigError):
    """A config changes a tensor-shaping field of an existing checkpoint."""


@dataclass(frozen=True)
class TrainConfig:
    """Every knob the parser and trainer read.

    Defaults are the full-size configuration; tests shrink the dimension
    fields to keep runtimes sane. ``d_model`` is derived (word + char-CNN +
    POS widths) and must stay divisible by the head count ``r``.
    """

    # token representation
    d_w: int = 300                 # word embedding size
    char_dim: int = 50
    pos_dim: int = 50
    num_filters: int = 50          # char-CNN output size
    filter_width: int = 3
    # encoder / decoder
    r: int = 4                     # attention heads
    d_h: int = 256                 # LSTM hidden units per direction
    arc_mlp_dim: int = 512
    label_mlp_dim: int = 128
    attention_scale: str = "per_head"
    child_order: str = "inside_out"
    single_root: bool = False      # training trees must have one root child
    # optimization
    learning_rate: float = 0.001
    decay_rate: float = 0.75
    decay_patience: int = 5        # non-improving epochs per LR decay
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 10
    clip_norm: float = 5.0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    # regularization
    p_in: float = 0.5
    p_rnn: float = 0.5
    p_out: float = 0.5
    # data / bookkeeping
    min_word_count: int = 2
    seed: int = 1

    def __post_init__(self) -> None:
        for name in ARCHITECTURE_FIELDS + ("batch_size", "patience", "decay_patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.r != 0:
            raise ConfigError(f"r={self.r}: d_model={self.d_model} is not divisible by it")
        if self.attention_scale not in ATTENTION_SCALES:
            raise ConfigError(f"unknown attention_scale: {self.attention_scale!r}")
        if self.child_order not in CHILD_ORDERS:
            raise ConfigError(f"unknown child_order: {self.child_order!r}")
        for name in ("p_in", "p_rnn", "p_out"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {rate}")
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("learning_rate", "clip_norm", "adam_epsilon"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.decay_rate <= 1.0:
            raise ConfigError(f"decay_rate must be in (0, 1], got {self.decay_rate}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.max_epochs < 0:  # 0 = evaluate-only, legal for fine-tuning
            raise ConfigError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def d_model(self) -> int:
        # The char-CNN contributes num_filters dims to each token row (its
        # output size), not char_dim; the two coincide at full scale (50).
        return self.d_w + self.num_filters + self.pos_dim

    @property
    def decoder_dim(self) -> int:
        """Decoder LSTM width == encoder state width (2 directions x d_h)."""
        return 2 * self.d_h

    def check_architecture(self, base: "TrainConfig") -> None:
        """Raise :class:`ArchitectureMismatch` naming every tensor-shaping
        field on which this config differs from ``base``."""
        changed = [f"{name} {getattr(base, name)} -> {getattr(self, name)}"
                   for name in ARCHITECTURE_FIELDS
                   if getattr(self, name) != getattr(base, name)]
        if changed:
            raise ArchitectureMismatch(
                "cannot change the checkpoint's architecture: " + ", ".join(changed))

    def replaced(self, **changes) -> "TrainConfig":
        merged = asdict(self)
        merged.update(changes)
        return TrainConfig(**merged)

    # -- flat key=value text, used for config files and checkpoint manifests --

    def to_flat(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for key, value in asdict(self).items():
            if isinstance(value, bool):
                out[key] = "true" if value else "false"
            else:
                out[key] = repr(value) if isinstance(value, float) else str(value)
        return out

    @classmethod
    def from_flat(cls, raw: dict[str, str]) -> "TrainConfig":
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(raw) - set(types)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs: dict[str, object] = {}
        for key, text in raw.items():
            kind = types[key]
            try:
                if kind == "int":
                    kwargs[key] = int(text)
                elif kind == "float":
                    kwargs[key] = float(text)
                elif kind == "bool":
                    if text not in ("true", "false"):
                        raise ValueError("expected true or false")
                    kwargs[key] = text == "true"
                else:
                    kwargs[key] = text
            except ValueError as exc:
                raise ConfigError(f"{key}={text!r}: {exc}") from None
        return cls(**kwargs)


def read_flat(path: str | Path) -> dict[str, str]:
    """The key=value pairs of a config file, unchecked ('#' starts a comment
    line); a key may appear once."""
    try:
        text = _open_text(path).read()
    except TreebankError as exc:
        raise ConfigError(f"config {exc}") from None
    raw: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in seen:
            raise ConfigError(f"config key {key!r} repeated: lines {seen[key]} and {lineno}")
        seen[key] = lineno
        raw[key] = value
    return raw
