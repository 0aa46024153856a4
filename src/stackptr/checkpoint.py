"""Checkpoint serialization: text manifest + little-endian float32 blob.

Layout (UTF-8 until the blob marker, then raw bytes):

    stackptr-ckpt/1
    [config N]      N key=value lines, in dataclass field order (a key left
                    out loads with its default)
    [store]         one rng_seed=... line
    [provenance N]  N lines, each prefixed "- "
    [vocab.word N]  N symbol lines   (same for char / pos / label)
    [tensors N]     N lines: name<TAB>dim,dim,...<TAB>byte-offset (back to back)
    [blob]
    <float32 data>

Section counts make the parse unambiguous — a vocabulary symbol that happens
to look like a section header is just a line to consume. Values are stored
as 32-bit floats (training math stays 64-bit; :func:`as_stored` gives the
stored values); loading then saving a file reproduces it byte for byte.
Every value must be finite. Every fault in a file is a
:class:`CheckpointError`, and saving refuses what loading would refuse.
Saving writes a temporary file beside the target and renames it into place,
so a write that fails part-way leaves any file already there as it was.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import ParameterStore
from .config import TrainConfig
from .model import parameter_shapes
from .treebank import TreebankError, Vocabulary

FORMAT_VERSION = "stackptr-ckpt/1"
STORED_DTYPE = "<f4"
VOCAB_KEYS = ("word", "char", "pos", "label")


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    params: ParameterStore
    vocabs: dict[str, Vocabulary]
    config: TrainConfig
    provenance: list[str] = field(default_factory=list)
    # Epoch-mean training losses of the run that produced it; not stored in the file.
    history: list[float] = field(default_factory=list)


def as_stored(values: np.ndarray, dtype=np.float64) -> np.ndarray:
    """``values`` as a checkpoint file holds them: rounded to float32 and
    widened back to float64, exactly what loading the saved file gives.
    With ``dtype=STORED_DTYPE`` the rounded values stay float32."""
    return np.asarray(values, dtype=STORED_DTYPE).astype(dtype, copy=False)


def _check_tensor_set(found: dict[str, tuple[int, ...]],
                      expected: dict[str, tuple[int, ...]]) -> None:
    """The tensors must be exactly those the model registers for the
    recorded config and vocabulary sizes, with the same shapes."""
    problems = [f"missing tensor {name!r} (expected shape {shape})"
                for name, shape in expected.items() if name not in found]
    problems += [f"unexpected tensor {name!r}" for name in found if name not in expected]
    problems += [f"tensor {name!r} has shape {found[name]}, expected {shape}"
                 for name, shape in expected.items()
                 if name in found and found[name] != shape]
    if problems:
        raise CheckpointError("tensors do not match the config: " + "; ".join(problems))


def _check_finite(name: str, stored: np.ndarray) -> None:
    if not np.isfinite(stored).all():
        raise CheckpointError(f"tensor {name!r} holds NaN or infinite values")


def _check_utf8(what: str, text: str) -> None:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise CheckpointError(f"{what} holds a lone surrogate, "
                              "which UTF-8 cannot encode") from None


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write ``ckpt``, or raise, writing nothing, where loading would."""
    _check_tensor_set({name: t.data.shape for name, t in ckpt.params.items()},
                      parameter_shapes(ckpt.config, ckpt.vocabs))
    lines: list[str] = [FORMAT_VERSION]
    flat = ckpt.config.to_flat()
    lines.append(f"[config {len(flat)}]")
    lines.extend(f"{k}={v}" for k, v in flat.items())
    lines.append("[store]")
    lines.append(f"rng_seed={ckpt.params.rng_seed}")
    lines.append(f"[provenance {len(ckpt.provenance)}]")
    for note in ckpt.provenance:
        _check_utf8(f"provenance note {note!r}", note)
        lines.append("- " + note.replace("\n", " "))
    for key in VOCAB_KEYS:
        vocab = ckpt.vocabs[key]
        for symbol in vocab.symbols:
            if "\n" in symbol:
                raise CheckpointError(f"[vocab.{key}] symbol {symbol!r} holds a newline, "
                                      "which would end its manifest line")
            _check_utf8(f"[vocab.{key}] symbol {symbol!r}", symbol)
        lines.append(f"[vocab.{key} {len(vocab)}]")
        lines.extend(vocab.symbols)
    lines.append(f"[tensors {len(ckpt.params)}]")
    arrays: list[np.ndarray] = []
    offset = 0
    for name, tensor in ckpt.params.items():
        with np.errstate(over="ignore", invalid="ignore"):
            stored = np.ascontiguousarray(tensor.data, dtype=STORED_DTYPE)
        _check_finite(name, stored)
        shape_text = ",".join(str(d) for d in tensor.data.shape)
        lines.append(f"{name}\t{shape_text}\t{offset}")
        arrays.append(stored)
        offset += stored.nbytes
    lines.append("[blob]\n")
    manifest = "\n".join(lines).encode("utf-8")
    target = Path(path)
    partial = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "wb") as fh:     # not mkstemp, whose file would be 0600
            fh.write(manifest)
            for stored in arrays:
                fh.write(stored)
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.lineno = 0

    def line(self) -> str:
        nl = self.data.find(b"\n", self.pos)
        if nl < 0:
            raise CheckpointError("truncated manifest")
        self.lineno += 1
        try:
            out = self.data[self.pos:nl].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"manifest line {self.lineno} is not UTF-8") from None
        self.pos = nl + 1
        return out

    def section(self, name: str) -> int:
        """Consume a '[name N]' header (or bare '[name]'), return N."""
        text = self.line()
        if not (text.startswith(f"[{name}") and text.endswith("]")):
            raise CheckpointError(f"expected [{name} ...] section, got {text!r}")
        body = text[1:-1]
        if body == name:
            return 0
        count = body[len(name):].strip()
        if not (count.isascii() and count.isdigit()):
            raise CheckpointError(f"bad section count in {text!r}")
        return int(count)


def load_checkpoint(source: str | Path | bytes) -> Checkpoint:
    """The checkpoint in a file, given by its path or as its bytes."""
    reader = _Reader(source if isinstance(source, bytes) else Path(source).read_bytes())
    version = reader.line()
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    flat: dict[str, str] = {}
    lines: dict[str, int] = {}
    for _ in range(reader.section("config")):
        key, sep, value = reader.line().partition("=")
        if not sep:
            raise CheckpointError(f"malformed config line {key!r}")
        if key in flat:
            raise CheckpointError(f"config key {key!r} repeated on manifest line {reader.lineno}")
        flat[key], lines[key] = value, reader.lineno
    try:
        config = TrainConfig.from_flat(flat)
    except ValueError as exc:
        raise CheckpointError(f"bad [config] section: {exc}") from None
    # Saving writes each value in its one canonical spelling, and the keys in
    # field order, so only that spelling and order load back to the same bytes.
    canonical = config.to_flat()
    position = {key: k for k, key in enumerate(canonical)}
    previous = None
    for key, value in flat.items():
        if value != canonical[key]:
            raise CheckpointError(f"config key {key!r} on manifest line {lines[key]} reads "
                                  f"{value!r}; its canonical spelling is {canonical[key]!r}")
        if previous is not None and position[key] < position[previous]:
            raise CheckpointError(f"config key {key!r} on manifest line {lines[key]} comes "
                                  f"after {previous!r}; the keys must be in field order")
        previous = key
    reader.section("store")
    seed_line = reader.line()
    seed_text = seed_line.removeprefix("rng_seed=")
    if seed_text == seed_line or not (seed_text.isascii() and seed_text.isdigit()):
        raise CheckpointError(f"expected rng_seed=<integer> line, got {seed_line!r}")
    rng_seed = int(seed_text)
    provenance = []
    for _ in range(reader.section("provenance")):
        note = reader.line()
        if not note.startswith("- "):
            raise CheckpointError(f"malformed provenance line {note!r}")
        provenance.append(note[2:])
    vocabs: dict[str, Vocabulary] = {}
    for key in VOCAB_KEYS:
        symbols = tuple(reader.line() for _ in range(reader.section(f"vocab.{key}")))
        try:
            vocabs[key] = Vocabulary(symbols, reserved=key != "label")
        except TreebankError as exc:
            raise CheckpointError(f"bad [vocab.{key}] section: {exc}") from None
    # Tensors lie back to back in manifest order: each starts where the
    # previous one ends, and the last one ends the file.
    shapes: dict[str, tuple[int, ...]] = {}
    blob_end = 0
    for _ in range(reader.section("tensors")):
        parts = reader.line().split("\t")
        if len(parts) != 3:
            raise CheckpointError(f"malformed tensor line {parts!r}")
        name, shape_text, offset_text = parts
        if name in shapes:
            raise CheckpointError(f"duplicate tensor {name!r}")
        dims = shape_text.split(",") if shape_text else []
        if not all(f.isascii() and f.isdigit() for f in dims + [offset_text]):
            raise CheckpointError(f"malformed shape or offset for tensor {name!r} "
                                  "(digits 0-9 only)")
        shape, offset = tuple(map(int, dims)), int(offset_text)
        if offset != blob_end:
            raise CheckpointError(f"tensor {name!r} starts at blob byte {offset}, "
                                  f"expected {blob_end}: tensors lie back to back")
        shapes[name] = shape
        blob_end += 4 * math.prod(shape)
    _check_tensor_set(shapes, parameter_shapes(config, vocabs))
    reader.section("blob")
    blob_size = len(reader.data) - reader.pos
    params = ParameterStore(rng_seed)
    offset = 0
    for name, shape in shapes.items():
        count = math.prod(shape)
        end = offset + 4 * count
        if end > blob_size:
            raise CheckpointError(f"tensor {name!r} needs blob bytes {offset}..{end}, "
                                  f"but the blob holds {blob_size}")
        values = np.frombuffer(reader.data, dtype=STORED_DTYPE, count=count,
                               offset=reader.pos + offset)
        _check_finite(name, values)
        params.put(name, values.reshape(shape))
        offset = end
    if blob_size != blob_end:
        raise CheckpointError(f"{blob_size - blob_end} trailing bytes after the last tensor")
    return Checkpoint(params=params, vocabs=vocabs, config=config, provenance=provenance)
