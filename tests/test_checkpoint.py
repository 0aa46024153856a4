"""Checkpoint file format: round trips, corruption detection."""

import dataclasses
import errno
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackptr import checkpoint
from stackptr.autodiff import ParameterStore
from stackptr.checkpoint import (
    Checkpoint,
    CheckpointError,
    FORMAT_VERSION,
    as_stored,
    load_checkpoint,
    save_checkpoint,
)
from stackptr.config import TrainConfig
from stackptr.model import create_parameters
from stackptr.treebank import RESERVED, Vocabulary

# d_model = 3 and d_h = 2: the encoder LSTM input weights are (8, 3).
SMALL = TrainConfig(d_w=1, char_dim=1, num_filters=1, pos_dim=1, r=3, d_h=2,
                    arc_mlp_dim=2, label_mlp_dim=2)


def _store(config, vocabs, skip=()):
    """The tensors the model registers for ``config`` and ``vocabs``, bar ``skip``."""
    full = ParameterStore(rng_seed=7)
    create_parameters(full, config, vocabs)
    store = ParameterStore(rng_seed=7)
    for name, tensor in full.items():
        if name not in skip:
            store.put(name, tensor.data)
    return store


def _small_checkpoint():
    vocabs = {
        "word": Vocabulary(RESERVED + ("猫",)),
        "char": Vocabulary(RESERVED + ("猫",)),
        "pos": Vocabulary(RESERVED + ("NN",)),
        "label": Vocabulary(("root", "nsubj"), reserved=False),
    }
    return Checkpoint(params=_store(SMALL, vocabs), vocabs=vocabs, config=SMALL,
                      provenance=["unit fixture"])


@pytest.fixture
def small_ckpt():
    return _small_checkpoint()


def _saved_unchecked(ckpt, path):
    """Write ``ckpt`` as a writer without the tensor-set check would, so
    that loading's own check can be tested; returns ``path``."""
    with mock.patch.object(checkpoint, "_check_tensor_set"):
        save_checkpoint(ckpt, path)
    return path


def _saved_with(ckpt, path, old: bytes, new: bytes):
    """Save ``ckpt`` to ``path`` with the first ``old`` in the file replaced."""
    save_checkpoint(ckpt, path)
    data = path.read_bytes()
    assert old in data
    path.write_bytes(data.replace(old, new, 1))
    return path


class TestRoundTrip:
    def test_load_save_byte_identical(self, small_ckpt, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(small_ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_survive_at_float32_precision(self, small_ckpt, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(small_ckpt, path)
        loaded = load_checkpoint(path)
        for name, tensor in small_ckpt.params.items():
            got = loaded.params[name].data
            assert got.shape == tensor.data.shape
            np.testing.assert_array_equal(got, tensor.data.astype("<f4").astype(np.float64))

    def test_scalar_tensor_round_trips(self, small_ckpt, tmp_path):
        path = tmp_path / "s.ckpt"
        small_ckpt.params["biaffine.arc.b"].data[()] = 2.5
        save_checkpoint(small_ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.params["biaffine.arc.b"].data.shape == ()
        assert float(loaded.params["biaffine.arc.b"].data) == 2.5

    def test_metadata_round_trips(self, small_ckpt, tmp_path):
        path = tmp_path / "m.ckpt"
        noted = dataclasses.replace(small_ckpt, provenance=small_ckpt.provenance + ["second line"])
        save_checkpoint(noted, path)
        loaded = load_checkpoint(path)
        assert loaded.config == small_ckpt.config
        assert loaded.provenance == ["unit fixture", "second line"]
        assert loaded.params.rng_seed == 7
        assert loaded.vocabs["word"].symbols == RESERVED + ("猫",)
        assert loaded.vocabs["label"].symbols == ("root", "nsubj")
        assert not loaded.vocabs["label"].reserved

    def test_vocab_reserved_semantics_restored(self, small_ckpt, tmp_path):
        path = tmp_path / "v.ckpt"
        save_checkpoint(small_ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.vocabs["word"].index("missing") == 1  # UNK fallback
        with pytest.raises(Exception):
            loaded.vocabs["label"].index("missing")

    def test_newline_in_provenance_flattened(self, small_ckpt, tmp_path):
        path = tmp_path / "n.ckpt"
        noted = dataclasses.replace(small_ckpt, provenance=small_ckpt.provenance + ["two\nlines"])
        save_checkpoint(noted, path)
        assert "two lines" in load_checkpoint(path).provenance

    def test_history_is_not_stored(self, small_ckpt, tmp_path):
        path = tmp_path / "h.ckpt"
        save_checkpoint(dataclasses.replace(small_ckpt, history=[2.5, 1.25]), path)
        assert load_checkpoint(path).history == []

    def test_loaded_tensors_own_their_values(self, small_ckpt, tmp_path):
        # Loading reads float32 views of the file's bytes; the store must copy them.
        path = tmp_path / "o.ckpt"
        save_checkpoint(small_ckpt, path)
        first = load_checkpoint(path)
        for name, tensor in first.params.items():
            data = tensor.data
            assert data.dtype == np.float64, name
            assert data.flags.c_contiguous and data.flags.writeable and data.flags.owndata, name
            data[...] = 7.0
        for name, tensor in load_checkpoint(path).params.items():
            np.testing.assert_array_equal(tensor.data, as_stored(small_ckpt.params[name].data))

    def test_failed_write_keeps_the_old_file(self, small_ckpt, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(small_ckpt, path)
        old = path.read_bytes()
        written = []
        real_open = open

        class DiskFull:
            """Takes the first write (the manifest), then reports a full disk."""

            def __init__(self, file, mode):
                self.fh = real_open(file, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if written:
                    raise OSError(errno.ENOSPC, "No space left on device")
                written.append(self.fh.write(data))

        small_ckpt.params["encoder.charcnn.W"].data[...] += 1.0
        with mock.patch.object(checkpoint, "open", DiskFull, create=True):
            with pytest.raises(OSError, match="No space left"):
                save_checkpoint(small_ckpt, path)
        assert written and written[0] > 0
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        small_ckpt.params["encoder.charcnn.W"].data[...] -= 1.0
        for name, tensor in load_checkpoint(path).params.items():
            np.testing.assert_array_equal(tensor.data, as_stored(small_ckpt.params[name].data))

    def test_saved_file_has_the_mode_of_a_plainly_written_file(self, small_ckpt, tmp_path):
        path = tmp_path / "mode.ckpt"
        save_checkpoint(small_ckpt, path)
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        assert path.stat().st_mode == plain.stat().st_mode


class TestValidation:
    def test_wrong_version_rejected(self, small_ckpt, tmp_path):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(small_ckpt, path)
        data = path.read_bytes().replace(FORMAT_VERSION.encode(), b"stackptr-ckpt/9", 1)
        path.write_bytes(data)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_foreign_parameter_namespace_rejected(self, small_ckpt, tmp_path):
        small_ckpt.params.create("optimizer.m", (2,), init="zeros")
        with pytest.raises(CheckpointError, match="unexpected tensor 'optimizer.m'"):
            save_checkpoint(small_ckpt, tmp_path / "x.ckpt")

    def test_truncated_file(self, small_ckpt, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(small_ckpt, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_blob_cut_short_names_the_tensor(self, small_ckpt, tmp_path):
        path = tmp_path / "short.ckpt"
        save_checkpoint(small_ckpt, path)
        path.write_bytes(path.read_bytes()[:-10])
        # The last tensor, the (2,) label bias, loses all 8 of its bytes;
        # the one before it loses 2 of its 16.
        with pytest.raises(CheckpointError, match="biaffine.label.w_enc"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, small_ckpt, tmp_path):
        path = tmp_path / "long.ckpt"
        save_checkpoint(small_ckpt, path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(CheckpointError, match="8 trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [b"\t8,-3\t", b"\t8,x\t"])
    def test_bad_tensor_shape_names_the_tensor(self, small_ckpt, tmp_path, bad):
        path = tmp_path / "shape.ckpt"
        save_checkpoint(small_ckpt, path)
        path.write_bytes(path.read_bytes().replace(b"\t8,3\t", bad, 1))
        with pytest.raises(CheckpointError, match="encoder.lstm.fw.W_ih"):
            load_checkpoint(path)

    def test_missing_section_header(self, tmp_path):
        path = tmp_path / "g.ckpt"
        path.write_bytes(f"{FORMAT_VERSION}\n[garbage 0]\n".encode())
        with pytest.raises(CheckpointError, match="config"):
            load_checkpoint(path)

    def test_malformed_section_count(self, tmp_path):
        path = tmp_path / "h.ckpt"
        path.write_bytes(f"{FORMAT_VERSION}\n[config many]\n".encode())
        with pytest.raises(CheckpointError, match="count"):
            load_checkpoint(path)

    def test_non_integer_rng_seed(self, small_ckpt, tmp_path):
        path = _saved_with(small_ckpt, tmp_path / "seed.ckpt", b"rng_seed=7\n", b"rng_seed=x\n")
        with pytest.raises(CheckpointError, match="rng_seed"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new", [(b"\nd_h=2\n", b"\nd_hh=2\n"),
                                          (b"\nd_h=2\n", b"\nd_h=two\n"),
                                          (b"\nr=3\n", b"\nr=0\n"),
                                          (b"\nseed=1\n", b"\nseed=-1\n")])
    def test_bad_config_key_or_value_names_the_section(self, small_ckpt, tmp_path, old, new):
        path = _saved_with(small_ckpt, tmp_path / "config.ckpt", old, new)
        with pytest.raises(CheckpointError, match=r"\[config\]"):
            load_checkpoint(path)

    def test_repeated_config_key_names_the_line(self, small_ckpt, tmp_path):
        # The second line would overwrite the first, and the key it displaced
        # would silently take its default.
        path = tmp_path / "twice.ckpt"
        save_checkpoint(small_ckpt, path)
        lines = path.read_bytes().split(b"\n")
        rate, seed = (next(k for k, line in enumerate(lines) if line.startswith(key))
                      for key in (b"learning_rate=", b"seed="))
        lines[rate] = b"seed=1"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CheckpointError,
                           match=f"config key 'seed' repeated on manifest line {seed + 1}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, canonical, spelling", [
        ("d_w", "1", "+1"), ("d_w", "1", "01"), ("d_w", "1", "1 "),
        ("learning_rate", "0.001", "1e-3"), ("learning_rate", "0.001", "0.0010"),
        ("seed", "1", "\u0661"), ("seed", "1", "\uff11"),
    ])
    def test_non_canonical_config_value_names_key_line_and_spelling(
            self, small_ckpt, tmp_path, key, canonical, spelling):
        # from_flat parses each spelling, but saving would write the canonical
        # one, so the file would not load and save back to the same bytes.
        path = _saved_with(small_ckpt, tmp_path / "spelled.ckpt",
                           f"\n{key}={canonical}\n".encode(),
                           f"\n{key}={spelling}\n".encode())
        line = path.read_bytes().split(b"\n").index(f"{key}={spelling}".encode()) + 1
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == (f"config key {key!r} on manifest line {line} reads "
                                   f"{spelling!r}; its canonical spelling is {canonical!r}")

    def test_missing_config_key_keeps_its_default(self, small_ckpt, tmp_path):
        keys = len(SMALL.to_flat())
        path = _saved_with(small_ckpt, tmp_path / "short.ckpt", f"[config {keys}]\n".encode(),
                           f"[config {keys - 1}]\n".encode())
        path.write_bytes(path.read_bytes().replace(b"\nseed=1\n", b"\n", 1))
        assert load_checkpoint(path).config == small_ckpt.config

    def test_non_utf8_manifest_names_the_line(self, small_ckpt, tmp_path):
        path = _saved_with(small_ckpt, tmp_path / "latin1.ckpt", b"- unit fixture",
                           b"- unit \xe9 fixture")
        line = path.read_bytes().split(b"\n").index(b"- unit \xe9 fixture") + 1
        with pytest.raises(CheckpointError, match=f"manifest line {line} is not UTF-8"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new", [("\n猫\n", "\n<UNK>\n"), ("\n<PAD>\n", "\n<pad>\n")])
    def test_bad_vocabulary_names_the_section(self, small_ckpt, tmp_path, old, new):
        # The word section comes first, so the first match is in it.
        path = _saved_with(small_ckpt, tmp_path / "vocab.ckpt", old.encode(), new.encode())
        with pytest.raises(CheckpointError, match=r"\[vocab.word\] section"):
            load_checkpoint(path)

    def test_duplicate_tensor_line(self, small_ckpt, tmp_path):
        path = _saved_with(small_ckpt, tmp_path / "dup.ckpt", b"embeddings.char\t",
                           b"embeddings.word\t")
        with pytest.raises(CheckpointError, match="duplicate tensor 'embeddings.word'"):
            load_checkpoint(path)

    def test_overlapping_tensor_offsets_rejected(self, small_ckpt, tmp_path):
        # embeddings.word is (4, 1): 16 bytes, so embeddings.char must start at 16.
        path = _saved_with(small_ckpt, tmp_path / "overlap.ckpt", b"embeddings.char\t4,1\t16\n",
                           b"embeddings.char\t4,1\t1\n")
        with pytest.raises(CheckpointError, match="'embeddings.char' starts at blob byte 1, "
                                                  "expected 16"):
            load_checkpoint(path)

    @pytest.mark.parametrize("spelling", [
        "+4,1\t0", "4, 1\t0", "4,1\t٠", "4,1\t0_0", "4,+1\t0", "４,1\t0",
        "4,1\t-0", "4,1\t 0", "-4,1\t0", "4,1,\t0", "4_0,1\t0", "4,١\t0",
    ])
    def test_non_canonical_shape_or_offset_rejected(self, small_ckpt, tmp_path, spelling):
        # int() takes signs, spaces, underscores and non-ASCII digits; the
        # manifest takes only ASCII [0-9]+, like section counts and rng_seed.
        path = _saved_with(small_ckpt, tmp_path / "spelled.ckpt", b"embeddings.word\t4,1\t0\n",
                           f"embeddings.word\t{spelling}\n".encode())
        with pytest.raises(CheckpointError, match="malformed shape or offset for tensor "
                                                  r"'embeddings.word' \(digits 0-9 only\)"):
            load_checkpoint(path)

    def test_vocab_symbol_resembling_header_is_fine(self, small_ckpt, tmp_path):
        # Counts drive the parse, so a symbol like "[tensors 3]" is data.
        small_ckpt.vocabs["word"] = Vocabulary(RESERVED + ("[tensors 3]",))
        small_ckpt.params = _store(small_ckpt.config, small_ckpt.vocabs)
        path = tmp_path / "w.ckpt"
        save_checkpoint(small_ckpt, path)
        assert load_checkpoint(path).vocabs["word"].symbols[-1] == "[tensors 3]"


class TestTensorSet:
    """The tensors must be exactly those the model registers for the
    recorded config and vocabulary sizes."""

    def test_missing_tensor_named(self, small_ckpt, tmp_path):
        small_ckpt.params = _store(small_ckpt.config, small_ckpt.vocabs,
                                   skip={"biaffine.arc.U"})
        path = _saved_unchecked(small_ckpt, tmp_path / "missing.ckpt")
        with pytest.raises(CheckpointError, match=r"missing tensor 'biaffine.arc.U' "
                                                  r"\(expected shape \(2, 2\)\)"):
            load_checkpoint(path)

    def test_unexpected_tensor_named(self, small_ckpt, tmp_path):
        small_ckpt.params.create("biaffine.arc.extra", (2,), init="zeros")
        path = _saved_unchecked(small_ckpt, tmp_path / "extra.ckpt")
        with pytest.raises(CheckpointError, match="unexpected tensor 'biaffine.arc.extra'"):
            load_checkpoint(path)

    def test_wrong_shape_gives_expected_and_found(self, small_ckpt, tmp_path):
        small_ckpt.params["decoder.lstm.W_hh"].data = np.zeros((16, 3))
        path = _saved_unchecked(small_ckpt, tmp_path / "shape.ckpt")
        with pytest.raises(CheckpointError, match=r"tensor 'decoder.lstm.W_hh' has shape "
                                                  r"\(16, 3\), expected \(16, 4\)"):
            load_checkpoint(path)

    def test_vocabulary_size_sets_embedding_rows(self, small_ckpt, tmp_path):
        small_ckpt.vocabs["word"] = Vocabulary(RESERVED + ("猫", "狗"))
        path = _saved_unchecked(small_ckpt, tmp_path / "vocab.ckpt")
        rows = len(RESERVED) + 1
        with pytest.raises(CheckpointError, match=rf"'embeddings.word' has shape "
                                                  rf"\({rows}, 1\), expected \({rows + 1}, 1\)"):
            load_checkpoint(path)


    @pytest.mark.parametrize("change, message", [
        (lambda ckpt: setattr(ckpt, "params", _store(ckpt.config, ckpt.vocabs,
                                                     skip={"biaffine.arc.U"})),
         r"missing tensor 'biaffine.arc.U' \(expected shape \(2, 2\)\)"),
        (lambda ckpt: setattr(ckpt.params["decoder.lstm.W_hh"], "data", np.zeros((16, 3))),
         r"tensor 'decoder.lstm.W_hh' has shape \(16, 3\), expected \(16, 4\)"),
        (lambda ckpt: ckpt.params.create("encoder.extra", (2,), init="zeros"),
         "unexpected tensor 'encoder.extra'"),
        (lambda ckpt: ckpt.vocabs.update(word=Vocabulary(RESERVED + ("a\nb",))),
         r"\[vocab\.word\] symbol 'a\\nb' holds a newline"),
        (lambda ckpt: ckpt.vocabs.update(word=Vocabulary(RESERVED + ("\ud800",))),
         r"\[vocab\.word\] symbol '\\ud800' holds a lone surrogate"),
        (lambda ckpt: ckpt.provenance.append("x\ud800"),
         r"provenance note 'x\\ud800' holds a lone surrogate"),
    ], ids=["missing", "shape", "extra", "newline", "surrogate-symbol", "surrogate-note"])
    def test_save_refuses_what_load_refuses(self, small_ckpt, tmp_path, change, message):
        change(small_ckpt)
        path = tmp_path / "refused.ckpt"
        with pytest.raises(CheckpointError, match=message):
            save_checkpoint(small_ckpt, path)
        assert not path.exists()


# The last tensor in the file is the (2,) label bias: its last 4 bytes end the file.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800000, 0xFF800000])
def test_non_finite_value_names_the_tensor(small_ckpt, tmp_path, bits):
    path = tmp_path / "nan.ckpt"
    save_checkpoint(small_ckpt, path)
    path.write_bytes(path.read_bytes()[:-4] + struct.pack("<I", bits))
    with pytest.raises(CheckpointError, match="'biaffine.label.b' holds NaN or infinite"):
        load_checkpoint(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
def test_save_refuses_values_not_finite_in_float32(small_ckpt, tmp_path, value):
    small_ckpt.params["encoder.charcnn.W"].data[0, 0] = value
    path = tmp_path / "nan.ckpt"
    with pytest.raises(CheckpointError, match="'encoder.charcnn.W' holds NaN or infinite"):
        save_checkpoint(small_ckpt, path)
    assert not path.exists()


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "small.ckpt"
    save_checkpoint(_small_checkpoint(), path)
    return path


_DAMAGE = st.tuples(st.sampled_from(["truncate", "flip", "insert"]), st.integers(0, 10_000),
                    st.integers(0, 7), st.binary(min_size=1, max_size=4))


@given(st.lists(_DAMAGE, min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_damaged_file_loads_or_raises_checkpoint_error(small_file, damage):
    data = bytearray(small_file.read_bytes())
    for kind, at, bit, inserted in damage:
        at %= len(data) + 1
        if kind == "truncate":
            del data[at:]
        elif kind == "insert":
            data[at:at] = inserted
        elif at < len(data):
            data[at] ^= 1 << bit
    path = small_file.with_name("damaged.ckpt")
    path.write_bytes(bytes(data))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


# Line breaks other than "\n" and lines that look like section headers are
# plain symbol text to the manifest; only "\n" ends a line. Lone surrogates
# (which UTF-8 cannot encode) are drawn too.
_SYMBOLS = st.lists(st.one_of(st.text(st.characters(exclude_categories=()), max_size=5),
                              st.sampled_from(["\n", "\r", "\x85", "\u2028", "a\nb", "x\r\n",
                                               "[blob]", "[tensors 0]", "[vocab.char 3]",
                                               "- note", "\ud800", "a\udfffb"])),
                    min_size=1, max_size=6, unique=True)


def _unsaveable(symbol: str) -> bool:
    return "\n" in symbol or any("\ud800" <= c <= "\udfff" for c in symbol)


@pytest.fixture(scope="module")
def vocab_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("vocab")


@given(key=st.sampled_from(checkpoint.VOCAB_KEYS), symbols=_SYMBOLS)
@settings(max_examples=200, deadline=None)
def test_vocabulary_symbols_load_back_or_are_refused(vocab_dir, key, symbols):
    vocabs = dict(_small_checkpoint().vocabs)
    if key == "label":
        vocabs[key] = Vocabulary(tuple(symbols), reserved=False)
    else:
        vocabs[key] = Vocabulary(RESERVED + tuple(s for s in symbols if s not in RESERVED))
    path = vocab_dir / "symbols.ckpt"
    path.unlink(missing_ok=True)
    params = _store(SMALL, vocabs)
    try:
        save_checkpoint(Checkpoint(params=params, vocabs=vocabs, config=SMALL), path)
    except CheckpointError:
        assert not path.exists()
        assert any(_unsaveable(s) for s in vocabs[key].symbols)
        return
    loaded = load_checkpoint(path)
    assert {k: v.symbols for k, v in loaded.vocabs.items()} == \
           {k: v.symbols for k, v in vocabs.items()}
    # Symbols of several UTF-8 bytes make the manifest's byte length differ
    # from its character length, so every tensor must still be read from
    # its byte offset.
    assert loaded.params.names() == params.names()
    for name, tensor in params.items():
        assert loaded.params[name].data.tobytes() == as_stored(tensor.data).tobytes(), name
    again = vocab_dir / "again.ckpt"
    save_checkpoint(loaded, again)
    assert again.read_bytes() == path.read_bytes()
